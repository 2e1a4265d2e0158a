#include "netlist/netlist.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mte::netlist {

const char* to_string(NodeType type) {
  switch (type) {
    case NodeType::kSource: return "source";
    case NodeType::kSink: return "sink";
    case NodeType::kBuffer: return "buffer";
    case NodeType::kFork: return "fork";
    case NodeType::kJoin: return "join";
    case NodeType::kMerge: return "merge";
    case NodeType::kBranch: return "branch";
    case NodeType::kFunction: return "function";
    case NodeType::kVarLatency: return "var_latency";
    case NodeType::kCustom: return "custom";
  }
  return "?";
}

namespace {

Node make_node(NodeType type, const std::string& name, unsigned inputs,
               unsigned outputs) {
  Node n;
  n.type = type;
  n.name = name;
  n.inputs = inputs;
  n.outputs = outputs;
  return n;
}

}  // namespace

Node Node::source(const std::string& name, double rate) {
  Node n = make_node(NodeType::kSource, name, 0, 1);
  n.rate = rate;
  return n;
}

Node Node::sink(const std::string& name, double rate) {
  Node n = make_node(NodeType::kSink, name, 1, 0);
  n.rate = rate;
  return n;
}

Node Node::buffer(const std::string& name) {
  return make_node(NodeType::kBuffer, name, 1, 1);
}

Node Node::fork(const std::string& name, unsigned outputs) {
  return make_node(NodeType::kFork, name, 1, outputs);
}

Node Node::join(const std::string& name, unsigned inputs) {
  return make_node(NodeType::kJoin, name, inputs, 1);
}

Node Node::merge(const std::string& name, unsigned inputs) {
  return make_node(NodeType::kMerge, name, inputs, 1);
}

Node Node::branch(const std::string& name, const std::string& predicate) {
  Node n = make_node(NodeType::kBranch, name, 1, 2);
  n.fn = predicate;
  return n;
}

Node Node::function(const std::string& name, const std::string& fn) {
  Node n = make_node(NodeType::kFunction, name, 1, 1);
  n.fn = fn;
  return n;
}

Node Node::var_latency(const std::string& name, unsigned lo, unsigned hi) {
  Node n = make_node(NodeType::kVarLatency, name, 1, 1);
  n.latency_lo = lo;
  n.latency_hi = hi;
  return n;
}

Node Node::custom(const std::string& name, const std::string& kind, unsigned inputs,
                  unsigned outputs) {
  Node n = make_node(NodeType::kCustom, name, inputs, outputs);
  n.fn = kind;
  return n;
}

std::size_t Netlist::add(Node spec) {
  spec.id = nodes_.size();
  nodes_.push_back(std::move(spec));
  return nodes_.back().id;
}

void Netlist::connect(std::size_t from, unsigned from_port, std::size_t to,
                      unsigned to_port) {
  Edge e;
  e.id = edges_.size();
  e.from = from;
  e.from_port = from_port;
  e.to = to;
  e.to_port = to_port;
  edges_.push_back(e);
}

std::size_t Netlist::count(NodeType type) const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [type](const Node& n) { return n.type == type; }));
}

std::string Netlist::to_dot() const {
  std::ostringstream os;
  os << "digraph elastic {\n  rankdir=LR;\n";
  const bool mt = multithreaded_;
  for (const auto& n : nodes_) {
    std::string label = n.name;
    std::string shape = "box";
    switch (n.type) {
      case NodeType::kBuffer:
        label += mt ? std::string("\\n") + (meb_kind_ == mt::MebKind::kFull
                                                ? "full MEB"
                                                : "reduced MEB")
                    : "\\nEB";
        shape = "box3d";
        break;
      case NodeType::kFork: label += mt ? "\\nM-Fork" : "\\nFork"; shape = "triangle"; break;
      case NodeType::kJoin: label += mt ? "\\nM-Join" : "\\nJoin"; shape = "invtriangle"; break;
      case NodeType::kMerge: label += mt ? "\\nM-Merge" : "\\nMerge"; shape = "invtrapezium"; break;
      case NodeType::kBranch: label += mt ? "\\nM-Branch" : "\\nBranch"; shape = "trapezium"; break;
      case NodeType::kSource: shape = "circle"; break;
      case NodeType::kSink: shape = "doublecircle"; break;
      case NodeType::kFunction: label += "\\nf=" + n.fn; break;
      case NodeType::kVarLatency:
        label += "\\nL=" + std::to_string(n.latency_lo) + ".." +
                 std::to_string(n.latency_hi);
        break;
      case NodeType::kCustom:
        label += "\\n<" + n.fn + ">";
        shape = "component";
        break;
    }
    os << "  n" << n.id << " [label=\"" << label << "\", shape=" << shape << "];\n";
  }
  for (const auto& e : edges_) {
    os << "  n" << e.from << " -> n" << e.to;
    if (mt) os << " [color=blue, penwidth=1.5]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

Netlist Netlist::to_multithreaded(std::size_t threads, mt::MebKind kind) const {
  if (multithreaded_) {
    throw std::logic_error("to_multithreaded: netlist is already multithreaded");
  }
  if (threads == 0) {
    throw std::logic_error("to_multithreaded: thread count must be >= 1");
  }
  Netlist out = *this;  // the structure is unchanged; primitives are swapped
  out.threads_ = threads;
  out.multithreaded_ = true;
  out.meb_kind_ = kind;
  return out;
}

}  // namespace mte::netlist
