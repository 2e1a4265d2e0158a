#include "netlist/text_format.hpp"

#include <map>
#include <sstream>
#include <vector>

namespace mte::netlist {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError("line " + std::to_string(line) + ": " + message);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

/// Checked unsigned parse: every malformed or out-of-range number in an
/// .enl file must surface as a ParseError with a line number, never as a
/// raw std::stoul exception.
unsigned long parse_uint(const std::string& tok, int line, unsigned long max_value,
                         const char* what) {
  unsigned long value = 0;
  try {
    if (!tok.empty() && tok[0] == '-') throw std::invalid_argument(tok);
    std::size_t pos = 0;
    value = std::stoul(tok, &pos);
    // stoul stops at the first non-digit: "12x" would silently parse as
    // 12. Partial consumption is a malformed token.
    if (pos != tok.size()) throw std::invalid_argument(tok);
  } catch (const std::exception&) {
    fail(line, std::string("bad ") + what + " '" + tok + "'");
  }
  if (value > max_value) {
    fail(line, std::string(what) + " " + tok + " exceeds the maximum of " +
               std::to_string(max_value));
  }
  return value;
}

unsigned parse_arity(const std::string& tok, int line) {
  return static_cast<unsigned>(parse_uint(tok, line, kMaxPorts, "port count"));
}

double parse_rate(const std::string& tok, int line) {
  if (!tok.starts_with("rate=")) fail(line, "expected rate=..., got '" + tok + "'");
  const std::string num = tok.substr(5);
  try {
    std::size_t pos = 0;
    const double rate = std::stod(num, &pos);
    // "rate=0.5xyz" must not parse as 0.5 (stod stops at the garbage).
    if (pos != num.size()) throw std::invalid_argument(num);
    return rate;
  } catch (const std::exception&) {
    fail(line, "bad rate '" + tok + "'");
  }
}

/// Splits "name:port".
std::pair<std::string, unsigned> parse_endpoint(const std::string& tok, int line) {
  const auto colon = tok.find(':');
  if (colon == std::string::npos) fail(line, "expected name:port, got '" + tok + "'");
  const std::string port = tok.substr(colon + 1);
  try {
    std::size_t pos = 0;
    const unsigned long value = std::stoul(port, &pos);
    if (pos != port.size()) throw std::invalid_argument(port);
    return {tok.substr(0, colon), static_cast<unsigned>(value)};
  } catch (const std::exception&) {
    fail(line, "bad port in '" + tok + "'");
  }
}

}  // namespace

Netlist parse_netlist(const std::string& text) {
  Netlist n;
  std::map<std::string, std::size_t> by_name;
  std::size_t threads = 1;
  bool multithreaded = false;
  mt::MebKind kind = mt::MebKind::kFull;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  auto lookup = [&by_name](const std::string& name, int line) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) fail(line, "unknown node '" + name + "'");
    return it->second;
  };
  auto declare = [&by_name](const std::string& name, std::size_t id, int line) {
    if (!by_name.emplace(name, id).second) fail(line, "duplicate node '" + name + "'");
  };

  while (std::getline(in, raw)) {
    ++line_no;
    const auto toks = tokenize(raw);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];
    auto want = [&](std::size_t count) {
      if (toks.size() != count) {
        fail(line_no, kw + ": expected " + std::to_string(count - 1) + " arguments");
      }
    };
    if (kw == "threads") {
      if (toks.size() < 2 || toks.size() > 3) fail(line_no, "threads <n> [full|reduced]");
      threads = parse_uint(toks[1], line_no, 1u << 20, "thread count");
      if (threads == 0) fail(line_no, "thread count must be positive");
      multithreaded = true;
      if (toks.size() == 3) {
        if (toks[2] == "full") kind = mt::MebKind::kFull;
        else if (toks[2] == "reduced") kind = mt::MebKind::kReduced;
        else fail(line_no, "expected full or reduced, got '" + toks[2] + "'");
      }
    } else if (kw == "source" || kw == "sink") {
      if (toks.size() < 2 || toks.size() > 3) fail(line_no, kw + " <name> [rate=r]");
      const double rate = toks.size() == 3 ? parse_rate(toks[2], line_no) : 1.0;
      declare(toks[1],
              n.add(kw == "source" ? Node::source(toks[1], rate) : Node::sink(toks[1], rate)),
              line_no);
    } else if (kw == "buffer") {
      want(2);
      declare(toks[1], n.add(Node::buffer(toks[1])), line_no);
    } else if (kw == "fork" || kw == "join" || kw == "merge") {
      want(3);
      const unsigned arity = parse_arity(toks[2], line_no);
      if (arity < 2) fail(line_no, kw + " arity must be >= 2");
      std::size_t id = 0;
      if (kw == "fork") id = n.add(Node::fork(toks[1], arity));
      else if (kw == "join") id = n.add(Node::join(toks[1], arity));
      else id = n.add(Node::merge(toks[1], arity));
      declare(toks[1], id, line_no);
    } else if (kw == "branch") {
      want(3);
      declare(toks[1], n.add(Node::branch(toks[1], toks[2])), line_no);
    } else if (kw == "function") {
      want(3);
      declare(toks[1], n.add(Node::function(toks[1], toks[2])), line_no);
    } else if (kw == "var_latency") {
      want(4);
      const auto lo = static_cast<unsigned>(parse_uint(toks[2], line_no, 1u << 20, "latency"));
      const auto hi = static_cast<unsigned>(parse_uint(toks[3], line_no, 1u << 20, "latency"));
      if (lo == 0 || hi < lo) fail(line_no, "bad latency range");
      declare(toks[1], n.add(Node::var_latency(toks[1], lo, hi)), line_no);
    } else if (kw == "custom") {
      want(5);
      const unsigned ins = parse_arity(toks[3], line_no);
      const unsigned outs = parse_arity(toks[4], line_no);
      declare(toks[1], n.add(Node::custom(toks[1], toks[2], ins, outs)), line_no);
    } else if (kw == "connect") {
      // "connect a:0 -> b:1" or "connect a:0 b:1".
      if (toks.size() != 3 && !(toks.size() == 4 && toks[2] == "->")) {
        fail(line_no, "connect <from:port> -> <to:port>");
      }
      const auto [from_name, from_port] = parse_endpoint(toks[1], line_no);
      const auto [to_name, to_port] =
          parse_endpoint(toks[toks.size() == 4 ? 3 : 2], line_no);
      n.connect(lookup(from_name, line_no), from_port, lookup(to_name, line_no),
                to_port);
    } else {
      fail(line_no, "unknown keyword '" + kw + "'");
    }
  }
  if (multithreaded) return n.to_multithreaded(threads, kind);
  return n;
}

std::string serialize_netlist(const Netlist& netlist) {
  std::ostringstream os;
  os << "# elastic netlist (.enl)\n";
  if (netlist.is_multithreaded()) {
    os << "threads " << netlist.threads() << ' '
       << (netlist.meb_kind() == mt::MebKind::kFull ? "full" : "reduced") << '\n';
  }
  for (const auto& n : netlist.nodes()) {
    switch (n.type) {
      case NodeType::kSource: os << "source " << n.name << " rate=" << n.rate; break;
      case NodeType::kSink: os << "sink " << n.name << " rate=" << n.rate; break;
      case NodeType::kBuffer: os << "buffer " << n.name; break;
      case NodeType::kFork: os << "fork " << n.name << ' ' << n.outputs; break;
      case NodeType::kJoin: os << "join " << n.name << ' ' << n.inputs; break;
      case NodeType::kMerge: os << "merge " << n.name << ' ' << n.inputs; break;
      case NodeType::kBranch: os << "branch " << n.name << ' ' << n.fn; break;
      case NodeType::kFunction: os << "function " << n.name << ' ' << n.fn; break;
      case NodeType::kVarLatency:
        os << "var_latency " << n.name << ' ' << n.latency_lo << ' ' << n.latency_hi;
        break;
      case NodeType::kCustom:
        os << "custom " << n.name << ' ' << n.fn << ' ' << n.inputs << ' '
           << n.outputs;
        break;
    }
    os << '\n';
  }
  for (const auto& e : netlist.edges()) {
    os << "connect " << netlist.node(e.from).name << ':' << e.from_port << " -> "
       << netlist.node(e.to).name << ':' << e.to_port << '\n';
  }
  return os.str();
}

}  // namespace mte::netlist
