#include "analysis/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/perf.hpp"
#include "sim/scc.hpp"

namespace mte::analysis {
namespace {

using netlist::Edge;
using netlist::Netlist;
using netlist::Node;
using netlist::NodeType;

/// Storage elements cut both handshake directions in the node-granular
/// model: custom nodes are conservatively combinational (a factory may
/// register a pass-through unit, and a falsely accepted storage-free loop
/// livelocks the simulator), and the MT var-latency fast path (a
/// combinational bypass) is opt-in at configuration time and invisible
/// statically.
bool is_storage(NodeType t) {
  return t == NodeType::kBuffer || t == NodeType::kVarLatency;
}

std::string in_port(unsigned p) { return "in" + std::to_string(p); }
std::string out_port(unsigned p) { return "out" + std::to_string(p); }

/// Renders a sorted name list as "{a, b, c}".
std::string name_set(const std::vector<std::string>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ", ";
    out += names[i];
  }
  out += "}";
  return out;
}

/// The nontrivial SCCs of an adjacency list (two or more vertices, or one
/// vertex with a self-arc), each sorted, in the order Tarjan completes them.
std::vector<std::vector<std::size_t>> tarjan_nontrivial(
    const std::vector<std::vector<std::size_t>>& adj) {
  const std::size_t n = adj.size();
  const std::vector<std::size_t> ids = sim::scc_ids(adj, [](std::size_t w) { return w; });
  std::vector<std::size_t> size(n, 0);  // ids are below n
  for (const std::size_t id : ids) ++size[id];
  std::vector<std::vector<std::size_t>> groups(n);  // empty ones allocate nothing
  for (std::size_t v = 0; v < n; ++v) {
    if (size[ids[v]] >= 2 || std::find(adj[v].begin(), adj[v].end(), v) != adj[v].end()) {
      groups[ids[v]].push_back(v);
    }
  }
  std::vector<std::vector<std::size_t>> sccs;
  for (auto& scc : groups) {
    if (!scc.empty()) sccs.push_back(std::move(scc));
  }
  return sccs;
}

class Analyzer {
 public:
  Analyzer(const Netlist& net, const AnalysisOptions& opt) : net_(net), opt_(opt) {}

  AnalysisReport run() {
    check_names();
    const bool refs_ok = check_wiring();
    if (refs_ok) {
      // Solve the cycle-ratio bound before the reconvergence pass so
      // MTE031 can quantify the imbalance it reports.
      if (opt_.perf) {
        perf_ = analyze_perf(net_, PerfOptions{opt_.arbiter, opt_.meb_shared_slots});
      }
      check_liveness();
      check_comb_cycles();
      check_deadlock();
      check_reconvergence();
      check_signal_graph();
    }
    check_capacity();
    if (perf_) check_perf();
    return AnalysisReport(std::move(out_));
  }

  /// The elaboration_errors() subset of run().
  std::vector<Diagnostic> run_elaboration_checks() {
    check_names();
    if (check_wiring()) {
      check_comb_cycles();
      if (net_.is_multithreaded() && mt::is_ready_aware(opt_.arbiter)) {
        check_reconvergence();
      }
    }
    std::sort(out_.begin(), out_.end(), diagnostic_order);
    return std::move(out_);
  }

 private:
  void emit(const char* code, Severity severity, std::string component,
            std::string port, std::string message, std::string hint) {
    out_.push_back(Diagnostic{code, severity, std::move(component), std::move(port),
                              std::move(message), std::move(hint)});
  }

  // --- MTE006: duplicate node names ---------------------------------------
  void check_names() {
    std::map<std::string, std::size_t> seen;
    for (const auto& n : net_.nodes()) {
      const auto [it, inserted] = seen.emplace(n.name, n.id);
      if (!inserted) {
        emit("MTE006", Severity::kError, n.name, "",
             "duplicate node name (nodes " + std::to_string(it->second) + " and " +
                 std::to_string(n.id) +
                 "): elaboration keys channels, probes and boundary handles by name",
             "rename one of the nodes");
      }
    }
  }

  // --- MTE001-005: ports, drivers, edge references ------------------------
  /// Returns false when an edge references a missing node or port
  /// (MTE005): the graph checks cannot run on dangling references.
  bool check_wiring() {
    const auto& nodes = net_.nodes();
    bool refs_ok = true;
    std::map<std::pair<std::size_t, unsigned>, int> out_use;
    std::map<std::pair<std::size_t, unsigned>, int> in_use;
    for (const auto& e : net_.edges()) {
      if (e.from >= nodes.size() || e.to >= nodes.size()) {
        emit("MTE005", Severity::kError, "", "",
             "edge " + std::to_string(e.id) + " references a node id that does not exist",
             "rebuild the netlist through CircuitBuilder, which validates connects");
        refs_ok = false;
        continue;
      }
      if (e.from_port >= nodes[e.from].outputs) {
        emit("MTE005", Severity::kError, nodes[e.from].name, out_port(e.from_port),
             "edge " + std::to_string(e.id) + ": '" + nodes[e.from].name +
                 "' has no output port " + std::to_string(e.from_port),
             "output ports are 0.." + std::to_string(nodes[e.from].outputs) + "-1");
        refs_ok = false;
      }
      if (e.to_port >= nodes[e.to].inputs) {
        emit("MTE005", Severity::kError, nodes[e.to].name, in_port(e.to_port),
             "edge " + std::to_string(e.id) + ": '" + nodes[e.to].name +
                 "' has no input port " + std::to_string(e.to_port),
             "input ports are 0.." + std::to_string(nodes[e.to].inputs) + "-1");
        refs_ok = false;
      }
      ++out_use[{e.from, e.from_port}];
      ++in_use[{e.to, e.to_port}];
    }
    for (const auto& n : nodes) {
      for (unsigned p = 0; p < n.outputs; ++p) {
        const auto it = out_use.find({n.id, p});
        const int uses = it == out_use.end() ? 0 : it->second;
        if (uses == 0) {
          emit("MTE001", Severity::kError, n.name, out_port(p),
               "output port " + std::to_string(p) +
                   " is unconnected: an elastic output must feed exactly one input",
               "connect it (a rate-1 sink discards tokens intentionally)");
        } else if (uses > 1) {
          emit("MTE003", Severity::kError, n.name, out_port(p),
               "output port " + std::to_string(p) + " has fanout " +
                   std::to_string(uses) +
                   ": an elastic channel has exactly one reader",
               "insert a fork to duplicate the token stream");
        }
      }
      for (unsigned p = 0; p < n.inputs; ++p) {
        const auto it = in_use.find({n.id, p});
        const int uses = it == in_use.end() ? 0 : it->second;
        if (uses == 0) {
          emit("MTE002", Severity::kError, n.name, in_port(p),
               "input port " + std::to_string(p) +
                   " is undriven: the node can never see a valid token",
               "connect a driver (a source injects fresh tokens)");
        } else if (uses > 1) {
          emit("MTE004", Severity::kError, n.name, in_port(p),
               "input port " + std::to_string(p) + " has " + std::to_string(uses) +
                   " drivers: an elastic channel has exactly one writer",
               "insert a merge to combine mutually exclusive streams");
        }
      }
    }
    return refs_ok;
  }

  // --- MTE010/011: dead components ----------------------------------------
  void check_liveness() {
    const auto& nodes = net_.nodes();
    std::vector<std::vector<std::size_t>> fwd(nodes.size());
    std::vector<std::vector<std::size_t>> bwd(nodes.size());
    for (const auto& e : net_.edges()) {
      fwd[e.from].push_back(e.to);
      bwd[e.to].push_back(e.from);
    }
    const auto flood = [&nodes](const std::vector<std::vector<std::size_t>>& adj,
                                NodeType seed_type) {
      std::vector<bool> seen(nodes.size(), false);
      std::vector<std::size_t> stack;
      for (const auto& n : nodes) {
        if (n.type == seed_type) {
          seen[n.id] = true;
          stack.push_back(n.id);
        }
      }
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        for (const std::size_t v : adj[u]) {
          if (!seen[v]) {
            seen[v] = true;
            stack.push_back(v);
          }
        }
      }
      return seen;
    };
    const auto fed = flood(fwd, NodeType::kSource);
    const auto drains = flood(bwd, NodeType::kSink);
    for (const auto& n : nodes) {
      if (!fed[n.id]) {
        emit("MTE010", Severity::kWarning, n.name, "",
             std::string("dead ") + to_string(n.type) +
                 ": unreachable from every source, so it never sees a token",
             "feed it from a source, or delete the dead subgraph");
      }
      if (!drains[n.id]) {
        emit("MTE011", Severity::kWarning, n.name, "",
             std::string("dead ") + to_string(n.type) +
                 ": no path to any sink, so tokens entering it can never drain "
                 "and it eventually fills and stalls its upstream",
             "route it to a sink, or delete the dead subgraph");
      }
    }
  }

  // --- MTE020: storage-free combinational cycles --------------------------
  void check_comb_cycles() {
    const auto& nodes = net_.nodes();
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const auto& e : net_.edges()) {
      if (!is_storage(nodes[e.from].type) && !is_storage(nodes[e.to].type)) {
        adj[e.from].push_back(e.to);
      }
    }
    for (const auto& scc : tarjan_nontrivial(adj)) {
      std::vector<std::string> names;
      for (const std::size_t id : scc) {
        names.push_back(nodes[id].name);
        comb_cycle_nodes_.insert(id);
      }
      std::sort(names.begin(), names.end());
      emit("MTE020", Severity::kError, names.front(), "",
           "combinational cycle through " + name_set(names) +
               ": no storage element breaks the valid/ready feedback loop, so the "
               "handshake cannot settle",
           "insert a buffer (EB/MEB) on the loop");
    }
  }

  // --- MTE030: structural deadlock (feedback loop through a lazy join) ----
  void check_deadlock() {
    const auto& nodes = net_.nodes();
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const auto& e : net_.edges()) adj[e.from].push_back(e.to);
    for (const auto& scc : tarjan_nontrivial(adj)) {
      std::vector<std::string> joins;
      std::vector<std::string> names;
      for (const std::size_t id : scc) {
        names.push_back(nodes[id].name);
        if (nodes[id].type == NodeType::kJoin) joins.push_back(nodes[id].name);
      }
      if (joins.empty()) continue;  // loops through merges recirculate fine
      std::sort(joins.begin(), joins.end());
      std::sort(names.begin(), names.end());
      emit("MTE030", Severity::kError, joins.front(), "",
           "structural deadlock: feedback loop " + name_set(names) +
               " passes through lazy join '" + joins.front() +
               "', which waits for tokens on every input — the loop input can "
               "only be fed by the join's own output and no elastic cycle "
               "carries initial tokens, so it stalls from reset",
           "break the loop, or route the feedback through a merge (fires on "
           "either input)");
    }
  }

  // --- MTE021 + MTE031: fork/join reconvergence ---------------------------
  void check_reconvergence() {
    const auto& nodes = net_.nodes();
    const auto pairs = reconvergent_pairs(net_);
    const bool hazardous =
        net_.is_multithreaded() && mt::is_ready_aware(opt_.arbiter);
    for (const auto& pair : pairs) {
      const Node& f = nodes[pair.fork_id];
      const Node& j = nodes[pair.join_id];
      if (hazardous) {
        hazard_joins_.insert(pair.join_id);
        emit("MTE021", Severity::kError, f.name, "",
             "fork '" + f.name + "' reconverges at join '" + j.name +
                 "': the M-Join couples each input's ready to the peer input's "
                 "valid while speculative (ready-aware) MEB arbitration couples "
                 "valid back to downstream ready, so the reconvergent paths "
                 "close a combinational valid/ready cycle that can oscillate",
             "elaborate with the oblivious TDM arbiter "
             "(ElaborationOptions{.arbiter = mt::ArbiterKind::kOblivious}), or "
             "restructure so the arms join before the multithreaded region");
      } else {
        check_slack(pair);
      }
    }
  }

  /// MTE031: 0-1 BFS from the fork counting storage elements entered on
  /// the cheapest path to each of the join's input drivers; a large
  /// spread means the shallow arm backpressures the fork while the deep
  /// arm is still draining.
  void check_slack(const ReconvergentPair& pair) {
    const auto& nodes = net_.nodes();
    constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const auto& e : net_.edges()) adj[e.from].push_back(e.to);
    std::vector<std::size_t> dist(nodes.size(), kInf);
    std::deque<std::size_t> queue;
    dist[pair.fork_id] = 0;
    queue.push_back(pair.fork_id);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const std::size_t v : adj[u]) {
        const std::size_t w = is_storage(nodes[v].type) ? 1 : 0;
        if (dist[u] != kInf && dist[u] + w < dist[v]) {
          dist[v] = dist[u] + w;
          if (w == 0) {
            queue.push_front(v);
          } else {
            queue.push_back(v);
          }
        }
      }
    }
    std::size_t mn = kInf;
    std::size_t mx = 0;
    std::size_t arms = 0;
    for (const auto& e : net_.edges()) {
      if (e.to != pair.join_id || dist[e.from] == kInf) continue;
      ++arms;
      mn = std::min(mn, dist[e.from]);
      mx = std::max(mx, dist[e.from]);
    }
    if (arms < 2 || mx - mn < 2) return;
    const Node& f = nodes[pair.fork_id];
    const Node& j = nodes[pair.join_id];
    std::string message =
        "reconvergent paths from fork '" + f.name + "' to join '" + j.name +
        "' have unbalanced buffering (min " + std::to_string(mn) + ", max " +
        std::to_string(mx) +
        " storage elements): the shallow arm backpressures the fork while "
        "the deep arm drains, throttling throughput";
    std::string hint = "add ~" + std::to_string(mx - mn) + " buffer(s) to the shallow arm";
    // With the perf pass on, quantify the imbalance from the bottleneck
    // cycle instead of guessing from path depths alone.
    if (perf_ && perf_->bottleneck) {
      const PerfCycle& c = *perf_->bottleneck;
      message += ", costing " + fmt_ratio(c.cost) + " tokens/cycle";
      hint = "add " + std::to_string(c.fix_slots) +
             " buffer slot(s) on the bottleneck cycle (bound " + fmt_ratio(c.ratio) +
             " -> 1 tokens/cycle; see MTE052)";
    }
    emit("MTE031", Severity::kWarning, j.name, "", std::move(message),
         std::move(hint));
  }

  // --- MTE022/023: port-granular combinational valid/ready feedback ------
  //
  // Two vertices per channel: V(e) — the forward valid/data bundle — and
  // R(e), the backward ready. Arcs follow each component's real eval
  // reads (see the header comment); Tarjan-SCC then finds the feedback
  // the event kernel would discover dynamically and demote on.
  void check_signal_graph() {
    const auto& nodes = net_.nodes();
    const auto& edges = net_.edges();
    // First-seen edge per port (duplicates were already reported).
    std::vector<std::vector<std::optional<std::size_t>>> ie(nodes.size());
    std::vector<std::vector<std::optional<std::size_t>>> oe(nodes.size());
    for (const auto& n : nodes) {
      ie[n.id].resize(n.inputs);
      oe[n.id].resize(n.outputs);
    }
    for (const auto& e : edges) {
      if (!oe[e.from][e.from_port]) oe[e.from][e.from_port] = e.id;
      if (!ie[e.to][e.to_port]) ie[e.to][e.to_port] = e.id;
    }

    const bool mt = net_.is_multithreaded();
    const bool spec = mt && mt::is_ready_aware(opt_.arbiter);
    const auto v_of = [](std::size_t e) { return 2 * e; };
    const auto r_of = [](std::size_t e) { return 2 * e + 1; };
    std::vector<std::vector<std::size_t>> adj(2 * edges.size());
    const auto arc = [&adj](std::size_t from, std::size_t to) {
      adj[from].push_back(to);
    };

    for (const auto& n : nodes) {
      const auto& in = ie[n.id];
      const auto& out = oe[n.id];
      switch (n.type) {
        case NodeType::kSource:
          // MtSource under a ready-aware arbiter grants only threads
          // whose downstream ready is up: valid(out) <- ready(out).
          if (spec && out[0]) arc(r_of(*out[0]), v_of(*out[0]));
          break;
        case NodeType::kSink:
          break;  // readiness is state/rate driven
        case NodeType::kBuffer:
          // The single-thread EB is registered in both directions. MEBs
          // pass ready through combinationally (a full slot frees when
          // the granted thread's output fires), and speculative
          // arbitration adds valid(out) <- ready(out).
          if (mt && in[0] && out[0]) arc(r_of(*out[0]), r_of(*in[0]));
          if (spec && out[0]) arc(r_of(*out[0]), v_of(*out[0]));
          break;
        case NodeType::kVarLatency:
          break;  // registered; the combinational fast path is opt-in
        case NodeType::kFork:
          for (const auto& o : out) {
            if (!o || !in[0]) continue;
            arc(v_of(*in[0]), v_of(*o));
            arc(r_of(*o), r_of(*in[0]));
          }
          break;
        case NodeType::kJoin:
          // Lazy join: out fires when every input is valid, and each
          // input's ready reads the *peer* inputs' valids.
          for (std::size_t i = 0; i < in.size(); ++i) {
            if (!in[i]) continue;
            if (out[0]) {
              arc(v_of(*in[i]), v_of(*out[0]));
              arc(r_of(*out[0]), r_of(*in[i]));
            }
            for (std::size_t j = 0; j < in.size(); ++j) {
              if (j != i && in[j]) arc(v_of(*in[j]), r_of(*in[i]));
            }
          }
          break;
        case NodeType::kMerge:
          // The grant scan reads every input valid; M-Merge selection
          // additionally reads downstream ready (hardwired ready-aware
          // with speculative fallback, independent of the MEB arbiter).
          for (std::size_t i = 0; i < in.size(); ++i) {
            if (!in[i]) continue;
            if (out[0]) {
              arc(v_of(*in[i]), v_of(*out[0]));
              arc(r_of(*out[0]), r_of(*in[i]));
            }
            for (std::size_t j = 0; j < in.size(); ++j) {
              if (in[j]) arc(v_of(*in[j]), r_of(*in[i]));
            }
          }
          if (mt && out[0]) arc(r_of(*out[0]), v_of(*out[0]));
          break;
        case NodeType::kBranch:
          // The predicate reads the incoming token, so ready(in) depends
          // on the forward bundle as well as the selected output's ready.
          for (const auto& o : out) {
            if (!o || !in[0]) continue;
            arc(v_of(*in[0]), v_of(*o));
            arc(r_of(*o), r_of(*in[0]));
          }
          if (in[0]) arc(v_of(*in[0]), r_of(*in[0]));
          break;
        case NodeType::kFunction:
          if (in[0] && out[0]) {
            arc(v_of(*in[0]), v_of(*out[0]));
            arc(r_of(*out[0]), r_of(*in[0]));
          }
          break;
        case NodeType::kCustom:
          // Conservatively a full combinational crossbar, matching
          // is_storage()'s treatment of custom nodes.
          for (const auto& i : in) {
            for (const auto& o : out) {
              if (!i || !o) continue;
              arc(v_of(*i), v_of(*o));
              arc(r_of(*o), r_of(*i));
            }
          }
          break;
      }
    }

    for (const auto& scc : tarjan_nontrivial(adj)) {
      std::set<std::size_t> edge_ids;
      std::set<std::size_t> node_ids;
      for (const std::size_t v : scc) {
        const Edge& e = edges[v / 2];
        edge_ids.insert(e.id);
        node_ids.insert(e.from);
        node_ids.insert(e.to);
      }
      // Subsumption: a storage-free cycle is already an MTE020 error and
      // a reconvergent join an MTE021 error; re-describing the same loop
      // at port granularity would only add noise.
      const bool in_comb =
          std::all_of(node_ids.begin(), node_ids.end(), [this](std::size_t id) {
            return comb_cycle_nodes_.count(id) != 0;
          });
      const bool in_hazard =
          std::any_of(node_ids.begin(), node_ids.end(), [this](std::size_t id) {
            return hazard_joins_.count(id) != 0;
          });
      if (in_comb || in_hazard) continue;
      if (edge_ids.size() == 1) {
        const Edge& e = edges[*edge_ids.begin()];
        emit("MTE023", Severity::kNote, nodes[e.from].name, out_port(e.from_port),
             "local valid/ready feedback on channel '" + nodes[e.from].name +
                 "' -> '" + nodes[e.to].name +
                 "': speculative arbitration drives valid from downstream ready "
                 "while the consumer's ready depends on the incoming token; the "
                 "settle loop resolves it iteratively",
             "benign, but the oblivious arbiter removes the coupling entirely");
      } else {
        std::vector<std::string> names;
        for (const std::size_t id : node_ids) names.push_back(nodes[id].name);
        std::sort(names.begin(), names.end());
        emit("MTE022", Severity::kWarning, names.front(), "",
             "combinational valid/ready feedback among " + name_set(names) +
                 ": ready-aware arbitration meets cross-port ready coupling, so "
                 "the settled fixed point can depend on evaluation order (the "
                 "event kernel demotes to the reference order on exactly this)",
             "elaborate with the oblivious arbiter, or add storage inside the "
             "loop");
      }
    }
  }

  // --- MTE040-044: capacity and rate sanity -------------------------------
  void check_capacity() {
    if (net_.is_multithreaded()) {
      const std::size_t s = net_.threads();
      if (s == 0) {
        // Defensive: unreachable through to_multithreaded()/the parser,
        // which both reject S = 0, but cheap to keep for future paths.
        emit("MTE040", Severity::kError, "", "",
             "multithreaded netlist with 0 threads: nothing can ever execute",
             "use S >= 1");
      }
      if (s == 1) {
        emit("MTE043", Severity::kNote, "", "",
             "S = 1 multithreaded design point: full MEB control overhead with "
             "no thread-level concurrency to recover it",
             "useful as a DSE baseline; otherwise keep the single-thread "
             "netlist");
      }
      if (opt_.meb_shared_slots) {
        const std::size_t k = *opt_.meb_shared_slots;
        if (k > s) {
          emit("MTE041", Severity::kWarning, "", "",
               "hybrid MEB pool has K = " + std::to_string(k) +
                   " shared slots for S = " + std::to_string(s) +
                   " threads: at most S slots can ever be occupied, the rest "
                   "are wasted area",
               "set K <= S (K = S matches the full MEB)");
        }
        if (k == 0) {
          emit("MTE042", Severity::kNote, "", "",
               "hybrid MEB pool of K = 0 shared slots: every thread is capped "
               "at 50% throughput (a lone thread waits out the full handshake "
               "round trip between tokens)",
               "use K >= 1 (K = 1 matches the reduced MEB)");
        }
      }
    }
    for (const auto& n : net_.nodes()) {
      if (n.rate != 0.0) continue;
      if (n.type == NodeType::kSource) {
        emit("MTE044", Severity::kWarning, n.name, "",
             "injection rate 0: this source never offers a token, so everything "
             "downstream starves",
             "raise the rate, or delete the subgraph if intentional");
      } else if (n.type == NodeType::kSink) {
        emit("MTE044", Severity::kWarning, n.name, "",
             "readiness rate 0: this sink never accepts a token, so everything "
             "upstream fills and stalls",
             "raise the rate, or delete the subgraph if intentional");
      }
    }
  }

  // --- MTE050-054: static throughput bounds (analysis/perf.hpp) ----------
  static std::string fmt_ratio(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
  }

  void check_perf() {
    const PerfReport& p = *perf_;
    std::string msg = "static throughput bound: " + fmt_ratio(p.aggregate_bound) +
                      " tokens/cycle aggregate";
    for (const auto& s : p.sinks) {
      msg += "; sink '" + s.sink + "' <= " + fmt_ratio(s.theta) +
             (s.reachable
                  ? " (fill latency " + std::to_string(s.fill_latency) + ")"
                  : " (unreachable from every source)");
    }
    emit("MTE050", Severity::kNote, "", "", std::move(msg),
         "minimum cycle ratio of the marked graph (Howard policy iteration)");
    if (!p.per_thread_bounds.empty()) {
      emit("MTE051", Severity::kNote, "", "",
           "per-thread sustained rate <= " + fmt_ratio(p.per_thread_bounds.front()) +
               " tokens/cycle for each of " +
               std::to_string(p.per_thread_bounds.size()) + " thread(s)",
           "MEB service and arbitration caps; oblivious TDM grants each "
           "thread 1/S of the channel");
    }
    if (p.bottleneck) {
      const PerfCycle& c = *p.bottleneck;
      std::string cycle;
      for (const auto& name : c.loci) {
        if (!cycle.empty()) cycle += " -> ";
        cycle += name;
      }
      emit("MTE052", Severity::kWarning, c.loci.empty() ? "" : c.loci.front(), "",
           "bottleneck cycle {" + cycle + "} carries " + std::to_string(c.tokens) +
               " token(s) over " + std::to_string(c.hops) +
               " cycle(s): throughput bound " + fmt_ratio(c.ratio) +
               " tokens/cycle, losing " + fmt_ratio(c.cost) +
               " tokens/cycle vs a balanced design",
           "add " + std::to_string(c.fix_slots) +
               " buffer slot(s) on the cycle to restore bound 1");
    }
    for (const auto& note : p.rate_notes) {
      emit("MTE053", Severity::kNote, "", "", note,
           "expected-load information only; the bound ignores Bernoulli gates");
    }
    if (!p.converged) {
      emit("MTE054", Severity::kError, "", "",
           "cycle-ratio solver did not converge after " +
               std::to_string(p.iterations) + " iteration(s)",
           "report this netlist: Howard policy iteration should always converge");
    } else if (!p.karp_agrees) {
      emit("MTE054", Severity::kError, "", "",
           "Howard's minimum cycle ratio failed its optimality certificate",
           "report this netlist: the exact integer re-check of Howard's final "
           "policy could not prove it optimal");
    }
  }

  const Netlist& net_;
  const AnalysisOptions& opt_;
  std::vector<Diagnostic> out_;
  std::set<std::size_t> comb_cycle_nodes_;  // members of MTE020 cycles
  std::set<std::size_t> hazard_joins_;      // joins of MTE021 pairs
  std::optional<PerfReport> perf_;          // set when opt_.perf
};

}  // namespace

AnalysisReport analyze(const Netlist& net, const AnalysisOptions& options) {
  return Analyzer(net, options).run();
}

std::vector<Diagnostic> elaboration_errors(const Netlist& net, mt::ArbiterKind arbiter) {
  AnalysisOptions options;
  options.arbiter = arbiter;
  return Analyzer(net, options).run_elaboration_checks();
}

std::vector<ReconvergentPair> reconvergent_pairs(const Netlist& net) {
  std::vector<ReconvergentPair> pairs;
  const auto& nodes = net.nodes();
  std::vector<std::vector<std::size_t>> radj(nodes.size());
  for (const auto& e : net.edges()) {
    if (e.from < nodes.size() && e.to < nodes.size()) radj[e.to].push_back(e.from);
  }
  const auto ancestors = [&](std::size_t start) {
    std::vector<bool> seen(nodes.size(), false);
    std::vector<std::size_t> stack{start};
    seen[start] = true;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (const std::size_t p : radj[u]) {
        if (!seen[p]) {
          seen[p] = true;
          stack.push_back(p);
        }
      }
    }
    return seen;
  };

  // Memoized ancestor sets of fork nodes, for the minimality filter below.
  std::map<std::size_t, std::vector<bool>> fork_anc;
  const auto fork_ancestors = [&](std::size_t id) -> const std::vector<bool>& {
    auto it = fork_anc.find(id);
    if (it == fork_anc.end()) it = fork_anc.emplace(id, ancestors(id)).first;
    return it->second;
  };

  for (const auto& n : nodes) {
    if (n.type != NodeType::kJoin) continue;
    // Ancestor set of each input's driving node. Two inputs sharing a fork
    // ancestor means two distinct fork->join paths (the final edges differ),
    // i.e. reconvergence.
    std::vector<std::vector<bool>> anc(n.inputs);
    for (const auto& e : net.edges()) {
      if (e.to == n.id && e.to_port < n.inputs && e.from < nodes.size()) {
        anc[e.to_port] = ancestors(e.from);
      }
    }
    std::vector<std::size_t> common;
    for (const auto& f : nodes) {
      if (f.type != NodeType::kFork) continue;
      unsigned reached = 0;
      for (const auto& a : anc) {
        if (f.id < a.size() && a[f.id]) ++reached;
      }
      if (reached >= 2) common.push_back(f.id);
    }
    // Report only the divergence points: drop a fork whose paths all run
    // through a later common fork (it would re-report the same cycle).
    for (const std::size_t f : common) {
      bool minimal = true;
      for (const std::size_t g : common) {
        if (g != f && fork_ancestors(g)[f]) {
          minimal = false;
          break;
        }
      }
      if (minimal) pairs.push_back(ReconvergentPair{f, n.id});
    }
  }
  return pairs;
}

}  // namespace mte::analysis
