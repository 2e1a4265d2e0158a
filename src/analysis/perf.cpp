#include "analysis/perf.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "analysis/scc.hpp"

namespace mte::analysis {
namespace {

using netlist::Netlist;
using netlist::Node;
using netlist::NodeType;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kEps = 1e-9;

// ---------------------------------------------------------------------------
// Marked-graph construction
// ---------------------------------------------------------------------------

/// One acceptance-event vertex. Var-latency units own a head (issue)
/// vertex plus latency_lo - 1 internal delay vertices that all report
/// the unit's name in cycle loci.
struct Vertex {
  std::size_t node = kNone;
  bool dummy = false;
};

struct GraphModel {
  MarkedGraph graph;
  std::vector<Vertex> verts;
  std::vector<std::size_t> head;  ///< node id -> acceptance vertex (or kNone)
  std::vector<std::size_t> tail;  ///< node id -> last delay vertex (== head
                                  ///< except var-latency)
};

bool is_storage(NodeType t) {
  return t == NodeType::kBuffer || t == NodeType::kVarLatency;
}

/// Nodes whose token-index alignment is data-dependent: constraint arcs
/// must not cross them (dropping constraints keeps the bound sound).
bool breaks_alignment(NodeType t) {
  return t == NodeType::kBranch || t == NodeType::kMerge || t == NodeType::kCustom;
}

std::size_t clamped_lo(const Node& n) {
  return n.latency_lo == 0 ? 1 : n.latency_lo;
}

/// Token capacity of a storage node: how many acceptances may outrun the
/// downstream consumption of the oldest held token.
std::size_t capacity_of(const Node& n, const Netlist& net, const PerfOptions& opt) {
  const std::size_t s = net.is_multithreaded() ? net.threads() : 1;
  if (n.type == NodeType::kVarLatency) return net.is_multithreaded() ? s : 1;
  if (!net.is_multithreaded()) return 2;  // the 2-slot EB
  if (opt.meb_shared_slots) return s + *opt.meb_shared_slots;  // reduced, K slots
  return net.meb_kind() == mt::MebKind::kReduced ? s + 1 : 2 * s;
}

GraphModel build_model(const Netlist& net, const PerfOptions& opt) {
  GraphModel m;
  const auto& nodes = net.nodes();
  m.head.assign(nodes.size(), kNone);
  m.tail.assign(nodes.size(), kNone);

  const auto add_vertex = [&m](std::size_t node, bool dummy) {
    m.verts.push_back(Vertex{node, dummy});
    m.graph.adj.emplace_back();
    return m.verts.size() - 1;
  };
  const auto arc = [&m](std::size_t from, std::size_t to, std::size_t tokens) {
    m.graph.adj[from].push_back(PerfArc{to, tokens});
  };

  for (const auto& n : nodes) {
    const bool event_vertex = n.type == NodeType::kSource ||
                              n.type == NodeType::kSink || is_storage(n.type);
    if (!event_vertex) continue;
    const std::size_t h = add_vertex(n.id, false);
    m.head[n.id] = h;
    std::size_t t = h;
    if (n.type == NodeType::kVarLatency) {
      for (std::size_t i = 1; i < clamped_lo(n); ++i) {
        const std::size_t d = add_vertex(n.id, true);
        arc(t, d, 0);
        t = d;
      }
    }
    m.tail[n.id] = t;
  }

  // Out-edges per node for the combinational closure walk.
  std::vector<std::vector<std::size_t>> out(nodes.size());
  for (const auto& e : net.edges()) {
    if (e.from < nodes.size() && e.to < nodes.size()) out[e.from].push_back(e.to);
  }

  const std::size_t s = net.is_multithreaded() ? net.threads() : 1;
  for (const auto& u : nodes) {
    const bool producer = u.type == NodeType::kSource || is_storage(u.type);
    if (!producer) continue;

    // Combinational closure: every storage/sink acceptance fed from u's
    // output without crossing an alignment-breaking node.
    std::set<std::size_t> consumers;
    std::set<std::size_t> visited;
    std::vector<std::size_t> stack(out[u.id].begin(), out[u.id].end());
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      if (!visited.insert(v).second) continue;
      const Node& nv = nodes[v];
      if (is_storage(nv.type) || nv.type == NodeType::kSink) {
        consumers.insert(v);
        continue;
      }
      if (breaks_alignment(nv.type) || nv.type == NodeType::kSource) continue;
      for (const std::size_t w : out[v]) stack.push_back(w);
    }

    const std::size_t cap = capacity_of(u, net, opt);
    for (const std::size_t c : consumers) {
      // Forward: c's n-th acceptance trails u's n-th offer by >= 1 cycle.
      // A path looping back to u itself re-enters as acceptance n+1.
      arc(m.tail[u.id], m.head[c], c == u.id ? 1 : 0);
      // Backward slot release (sources hold no tokens).
      if (is_storage(u.type)) arc(m.head[c], m.head[u.id], cap);
    }
    // Cross-consumer coupling: >= 2 consumers of one output only arise
    // through forks, whose eager control holds the head token until all
    // arms consumed it. Aggregate index shift is 1 per thread stream.
    if (consumers.size() >= 2) {
      for (const std::size_t ci : consumers) {
        for (const std::size_t cj : consumers) {
          if (ci != cj) arc(m.head[cj], m.head[ci], s);
        }
      }
    }
  }

  // A channel moves at most one token per cycle.
  for (std::size_t v = 0; v < m.verts.size(); ++v) arc(v, v, 1);
  return m;
}

// ---------------------------------------------------------------------------
// Weak components (constraint coupling groups)
// ---------------------------------------------------------------------------

std::vector<std::size_t> weak_components(const MarkedGraph& g) {
  std::vector<std::size_t> parent(g.adj.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::vector<std::size_t> path;
  const auto find = [&parent, &path](std::size_t x) {
    path.clear();
    while (parent[x] != x) {
      path.push_back(x);
      x = parent[x];
    }
    for (const std::size_t p : path) parent[p] = x;
    return x;
  };
  for (std::size_t u = 0; u < g.adj.size(); ++u) {
    for (const auto& a : g.adj[u]) {
      const std::size_t ru = find(u);
      const std::size_t rv = find(a.to);
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  std::vector<std::size_t> comp(g.adj.size());
  for (std::size_t u = 0; u < g.adj.size(); ++u) comp[u] = find(u);
  return comp;
}

// ---------------------------------------------------------------------------
// Fill latency: earliest first-arrival cycle per node
// ---------------------------------------------------------------------------

/// dist[v] = minimum cycle at which a token can first be offered on v's
/// output: sources offer at 0, each storage element adds a cycle, a
/// var-latency unit adds latency_lo, combinational nodes add nothing.
/// Joins take the min over inputs (a lower bound — sound for an upper
/// throughput bound) so plain Dijkstra applies.
std::vector<std::size_t> fill_latency(const Netlist& net) {
  const auto& nodes = net.nodes();
  const auto weight = [&nodes](std::size_t v) -> std::size_t {
    if (nodes[v].type == NodeType::kBuffer) return 1;
    if (nodes[v].type == NodeType::kVarLatency) return clamped_lo(nodes[v]);
    return 0;
  };
  std::vector<std::size_t> dist(nodes.size(), kNone);
  using Item = std::pair<std::size_t, std::size_t>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (const auto& n : nodes) {
    if (n.type == NodeType::kSource) {
      dist[n.id] = 0;
      pq.push({0, n.id});
    }
  }
  std::vector<std::vector<std::size_t>> outadj(nodes.size());
  for (const auto& e : net.edges()) {
    if (e.from < nodes.size() && e.to < nodes.size())
      outadj[e.from].push_back(e.to);
  }
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const std::size_t v : outadj[u]) {
      const std::size_t nd = d + weight(v);
      if (dist[v] == kNone || nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

// ---------------------------------------------------------------------------
// Policy walks and strongly connected components
// ---------------------------------------------------------------------------

/// Walks the functional graph of `policy` (chosen arc index per vertex,
/// kNone for a vertex without out-arcs) the way Howard's evaluation step
/// does: from each unvisited vertex in index order, follow the policy
/// until it reaches a visited vertex. A walk that closes on itself found
/// a new cycle, passed as on_cycle(path, pos) with the cycle in
/// path[pos..] and its anchor (bias 0) at path[pos]. Then on_tree(x) runs
/// for each earlier vertex of the walk, last first, so every vertex's
/// successor is done before it. `state` and `path` are scratch buffers.
template <class OnCycle, class OnTree>
void walk_policy(const MarkedGraph& g, const std::vector<std::size_t>& policy,
                 std::vector<char>& state, std::vector<std::size_t>& path,
                 OnCycle&& on_cycle, OnTree&& on_tree) {
  const std::size_t n = g.adj.size();
  state.assign(n, 0);  // 0 new, 1 on the current walk, 2 done
  for (std::size_t s = 0; s < n; ++s) {
    if (state[s] != 0) continue;
    path.clear();
    std::size_t u = s;
    while (u != kNone && state[u] == 0) {
      state[u] = 1;
      path.push_back(u);
      u = policy[u] == kNone ? kNone : g.adj[u][policy[u]].to;
    }
    std::size_t tree_end = path.size();
    if (u != kNone && state[u] == 1) {
      tree_end = static_cast<std::size_t>(std::find(path.begin(), path.end(), u) -
                                          path.begin());
      on_cycle(path, tree_end);
    }
    for (std::size_t i = tree_end; i-- > 0;) on_tree(path[i]);
    for (const std::size_t x : path) state[x] = 2;
  }
}

/// A policy cycle's vertices in walk order, plus its (tokens, hops) weight.
struct WalkedCycle {
  std::vector<std::size_t> verts;
  std::size_t tokens = 0;
  std::size_t hops = 0;
};

/// Follows `policy` from `start` until it closes a cycle (empty when the
/// walk dead-ends). Marks each vertex it passes in `seen`, so one array
/// serves several walks as long as none can reach another's vertices.
WalkedCycle walk_cycle(const MarkedGraph& g, const std::vector<std::size_t>& policy,
                       std::size_t start, std::vector<char>& seen) {
  WalkedCycle out;
  std::size_t u = start;
  while (u != kNone && seen[u] == 0) {
    seen[u] = 1;
    u = policy[u] == kNone ? kNone : g.adj[u][policy[u]].to;
  }
  if (u == kNone) return out;
  std::size_t x = u;
  do {
    out.verts.push_back(x);
    out.tokens += g.adj[x][policy[x]].tokens;
    ++out.hops;
    x = g.adj[x][policy[x]].to;
  } while (x != u);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Howard's policy iteration (minimum cycle mean, unit delays)
// ---------------------------------------------------------------------------

CycleMeanResult howard_min_cycle_mean(const MarkedGraph& g) {
  const std::size_t n = g.adj.size();
  CycleMeanResult r;
  r.ratio = kInf;
  r.vertex_ratio.assign(n, kInf);
  if (n == 0) {
    r.converged = true;
    return r;
  }

  std::vector<std::size_t> policy(n, kNone);
  for (std::size_t v = 0; v < n; ++v) {
    if (!g.adj[v].empty()) policy[v] = 0;
  }
  std::vector<double> eta(n, kInf);
  std::vector<double> val(n, 0.0);
  const auto succ = [&](std::size_t v) {
    return policy[v] == kNone ? kNone : g.adj[v][policy[v]].to;
  };
  const auto wgt = [&](std::size_t v) {
    return static_cast<double>(g.adj[v][policy[v]].tokens);
  };

  const std::size_t max_iter = 100 + 10 * n;
  std::vector<char> state;
  std::vector<std::size_t> path;
  bool changed = true;
  while (changed && r.iterations < max_iter) {
    ++r.iterations;

    // --- evaluate the current policy (a functional graph) ----------------
    std::fill(eta.begin(), eta.end(), kInf);
    std::fill(val.begin(), val.end(), 0.0);
    walk_policy(
        g, policy, state, path,
        [&](const std::vector<std::size_t>& cyc, std::size_t pos) {
          double tokens = 0.0;
          for (std::size_t i = pos; i < cyc.size(); ++i) tokens += wgt(cyc[i]);
          const double mean = tokens / static_cast<double>(cyc.size() - pos);
          eta[cyc[pos]] = mean;
          val[cyc[pos]] = 0.0;
          for (std::size_t i = cyc.size(); i-- > pos + 1;) {
            const std::size_t x = cyc[i];
            eta[x] = mean;
            val[x] = wgt(x) - mean + val[succ(x)];
          }
        },
        [&](std::size_t x) {
          // Settle a vertex off the cycle against its settled successor.
          const std::size_t nx = succ(x);
          if (nx != kNone && eta[nx] != kInf) {
            eta[x] = eta[nx];
            val[x] = wgt(x) - eta[nx] + val[nx];
          }
        });

    // --- improve: per vertex, the index-first argmin of (eta, bias) ------
    changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (policy[u] == kNone) continue;
      std::size_t best = policy[u];
      std::size_t bx = g.adj[u][best].to;
      double be = eta[bx];
      double bv = be == kInf ? kInf
                             : static_cast<double>(g.adj[u][best].tokens) + val[bx];
      for (std::size_t a = 0; a < g.adj[u].size(); ++a) {
        const std::size_t x = g.adj[u][a].to;
        if (eta[x] == kInf) continue;
        const double cv = static_cast<double>(g.adj[u][a].tokens) + val[x];
        if (eta[x] < be - kEps || (eta[x] < be + kEps && cv < bv - kEps)) {
          best = a;
          bx = x;
          be = eta[x];
          bv = cv;
        }
      }
      if (best != policy[u]) {
        policy[u] = best;
        changed = true;
      }
    }
  }
  r.converged = !changed;
  r.vertex_ratio = eta;
  r.policy = policy;

  // Global minimum + one critical cycle, walked off the final policy.
  std::size_t argmin = kNone;
  for (std::size_t v = 0; v < n; ++v) {
    if (eta[v] < r.ratio - kEps) {
      r.ratio = eta[v];
      argmin = v;
    }
  }
  if (argmin != kNone) {
    std::vector<char> seen(n, 0);
    WalkedCycle wc = walk_cycle(g, policy, argmin, seen);
    r.cycle = std::move(wc.verts);
    r.cycle_tokens = wc.tokens;
    r.cycle_hops = wc.hops;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Optimality certificate for Howard's result
// ---------------------------------------------------------------------------

bool certify_min_cycle_mean(const MarkedGraph& g, const CycleMeanResult& r) {
  const std::size_t n = g.adj.size();
  // Hop counts stay below 2^31, so every reduced-cost term fits __int128.
  if (n >= (std::size_t{1} << 31) || r.policy.size() != n ||
      r.vertex_ratio.size() != n) {
    return false;
  }
  for (std::size_t v = 0; v < n; ++v) {
    const bool none = r.policy[v] == kNone;
    if (none != g.adj[v].empty() || (!none && r.policy[v] >= g.adj[v].size())) {
      return false;
    }
  }
  const auto arc_of = [&](std::size_t v) -> const PerfArc& {
    return g.adj[v][r.policy[v]];
  };

  // Re-walk the policy in exact integers. Each vertex gets the (tokens,
  // hops) of the policy cycle it ends in (hops 0 when it ends in none:
  // ratio +inf) and Howard's bias scaled by those hops as its potential,
  // pot(x) = hops * w(x) - tokens + pot(succ(x)), 0 at the cycle anchor.
  using i64 = std::int64_t;
  std::vector<i64> tok(n, 0);
  std::vector<i64> hop(n, 0);
  std::vector<i64> pot(n, 0);
  bool exact = true;  // cleared by any int64 overflow
  const auto set_potential = [&](std::size_t x) {
    const PerfArc& a = arc_of(x);
    i64 p = 0;
    exact = !__builtin_mul_overflow(hop[x], a.tokens, &p) &&
            !__builtin_sub_overflow(p, tok[x], &p) &&
            !__builtin_add_overflow(p, pot[a.to], &p) && exact;
    pot[x] = p;
  };
  std::vector<char> state;
  std::vector<std::size_t> path;
  walk_policy(
      g, r.policy, state, path,
      [&](const std::vector<std::size_t>& cyc, std::size_t pos) {
        i64 tokens = 0;
        for (std::size_t i = pos; i < cyc.size(); ++i) {
          exact = !__builtin_add_overflow(tokens, arc_of(cyc[i]).tokens, &tokens) &&
                  exact;
        }
        for (std::size_t i = pos; i < cyc.size(); ++i) {
          tok[cyc[i]] = tokens;
          hop[cyc[i]] = static_cast<i64>(cyc.size() - pos);
        }
        for (std::size_t i = cyc.size(); i-- > pos + 1;) set_potential(cyc[i]);
      },
      [&](std::size_t x) {
        if (r.policy[x] == kNone) return;
        const std::size_t nx = arc_of(x).to;
        if (hop[nx] == 0) return;
        tok[x] = tok[nx];
        hop[x] = hop[nx];
        set_potential(x);
      });
  if (!exact) return false;

  const auto ratio = [&](std::size_t v) {
    return hop[v] == 0 ? kInf
                       : static_cast<double>(tok[v]) / static_cast<double>(hop[v]);
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (r.vertex_ratio[v] != ratio(v)) return false;
  }

  // Every arc u -> x needs ratio(u) <= ratio(x), so no vertex reaches a
  // cycle below its own ratio. An arc inside one SCC lies on a cycle: both
  // ends need one finite ratio and a non-negative reduced cost
  // w - ratio + pot(x)/hop(x) - pot(u)/hop(u), here scaled by hop(u)*hop(x).
  // The potentials cancel around any cycle, so no cycle's mean is below
  // the ratio of its vertices.
  using i128 = __int128;
  const std::vector<std::size_t> scc =
      detail::scc_ids(g.adj, [](const PerfArc& a) { return a.to; });
  for (std::size_t u = 0; u < n; ++u) {
    for (const PerfArc& a : g.adj[u]) {
      const std::size_t x = a.to;
      const i128 lhs = i128{tok[u]} * hop[x];  // ratio(u) against ratio(x),
      const i128 rhs = i128{tok[x]} * hop[u];  // cross-multiplied
      if (hop[x] != 0 && (hop[u] == 0 || lhs > rhs)) return false;
      if (scc[u] != scc[x]) continue;
      if (hop[u] == 0 || hop[x] == 0 || lhs != rhs) return false;
      const i128 reduced = i128{a.tokens} * hop[u] * hop[x] - lhs +
                           i128{pot[x]} * hop[u] - i128{pot[u]} * hop[x];
      if (reduced < 0) return false;
    }
  }

  // The reported critical cycle: policy arcs that close after exactly its
  // walked hop count, with its walked tokens, and no vertex ratio below it.
  if (r.cycle.empty()) {
    return r.ratio == kInf && r.cycle_tokens == 0 && r.cycle_hops == 0 &&
           std::all_of(hop.begin(), hop.end(), [](i64 h) { return h == 0; });
  }
  const std::size_t c0 = r.cycle.front();
  if (c0 >= n || hop[c0] == 0 || r.cycle.size() != static_cast<std::size_t>(hop[c0]) ||
      r.cycle_hops != r.cycle.size() ||
      r.cycle_tokens != static_cast<std::size_t>(tok[c0]) || r.ratio != ratio(c0)) {
    return false;
  }
  for (std::size_t i = 0; i < r.cycle.size(); ++i) {
    const std::size_t x = r.cycle[i];
    if (x >= n || r.policy[x] == kNone ||
        arc_of(x).to != r.cycle[(i + 1) % r.cycle.size()]) {
      return false;
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (hop[v] != 0 && i128{tok[c0]} * hop[v] > i128{tok[v]} * hop[c0]) return false;
  }
  return true;
}

namespace {

/// Token-weighted shortest distances to one target vertex at a time
/// (Dijkstra over the reversed arcs, weight = initial tokens): the
/// transient slack a downstream measurement at the target can collect
/// from a constraint at each vertex; kNone where no directed path exists.
/// The reversed graph and the distance array are built once for every
/// target, and a search resets only the vertices the previous one reached.
class SlackSearch {
 public:
  explicit SlackSearch(const MarkedGraph& g)
      : rev_(g.adj.size()), dist_(g.adj.size(), kNone) {
    for (std::size_t u = 0; u < g.adj.size(); ++u) {
      for (const auto& a : g.adj[u]) rev_[a.to].push_back({u, a.tokens});
    }
  }

  void run(std::size_t target) {
    for (const std::size_t v : reached_) dist_[v] = kNone;
    reached_.clear();
    using Item = std::pair<std::size_t, std::size_t>;  // (dist, vertex)
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    dist_[target] = 0;
    reached_.push_back(target);
    heap.push({0, target});
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > dist_[v]) continue;
      for (const auto& a : rev_[v]) {
        const std::size_t nd = d + a.tokens;
        if (nd < dist_[a.to]) {
          if (dist_[a.to] == kNone) reached_.push_back(a.to);
          dist_[a.to] = nd;
          heap.push({nd, a.to});
        }
      }
    }
  }

  /// Distance from `v` to the last target searched.
  [[nodiscard]] std::size_t from(std::size_t v) const { return dist_[v]; }

 private:
  std::vector<std::vector<PerfArc>> rev_;
  std::vector<std::size_t> dist_;
  std::vector<std::size_t> reached_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Finite-horizon bound
// ---------------------------------------------------------------------------

double windowed_bound(const PerfSinkBound& sink, std::size_t cycles) {
  if (!sink.reachable || cycles == 0 || sink.fill_latency >= cycles) return 0.0;
  const std::size_t w = cycles - sink.fill_latency;
  double count = static_cast<double>(w);
  for (const auto& cand : sink.candidates) {
    if (cand.hops == 0) continue;
    // A through-sink cycle (slack 0) constrains the fill-adjusted window;
    // a remote cycle constrains the whole run plus its in-flight slack.
    const std::size_t win = cand.slack == 0 ? w : cycles;
    const double c = static_cast<double>(((win - 1) / cand.hops + 1) * cand.tokens +
                                         cand.slack);
    count = std::min(count, c);
  }
  return count / static_cast<double>(cycles);
}

// ---------------------------------------------------------------------------
// The full pass
// ---------------------------------------------------------------------------

PerfReport analyze_perf(const Netlist& net, const PerfOptions& options) {
  PerfReport rep;
  const auto& nodes = net.nodes();

  // Defensive: dangling edge references make the graph walk unsafe; the
  // MTE005 wiring check owns that report, we just bail to bound 1.
  for (const auto& e : net.edges()) {
    if (e.from >= nodes.size() || e.to >= nodes.size() ||
        e.from_port >= nodes[e.from].outputs || e.to_port >= nodes[e.to].inputs) {
      return rep;
    }
  }

  const GraphModel model = build_model(net, options);
  const CycleMeanResult howard = howard_min_cycle_mean(model.graph);
  rep.converged = howard.converged;
  rep.iterations = howard.iterations;
  rep.karp_agrees = certify_min_cycle_mean(model.graph, howard);

  const std::vector<std::size_t> comp = weak_components(model.graph);
  const std::vector<std::size_t> fill = fill_latency(net);

  // Aggregate MEB service cap: a reduced MEB with a pool of K slots caps
  // each thread's sustained rate at (1+K)/2, so S threads together move
  // at most S*(1+K)/2 tokens per cycle through any MEB station.
  const std::size_t s = net.is_multithreaded() ? net.threads() : 1;
  std::optional<std::pair<std::size_t, std::size_t>> service_cap;  // (T, H)
  if (net.is_multithreaded() && options.meb_shared_slots) {
    const std::size_t k = *options.meb_shared_slots;
    if (s * (1 + k) < 2) service_cap = {s * (1 + k), 2};
  }

  // MEB station vertices per component (the service cap's scope).
  std::map<std::size_t, std::vector<std::size_t>> meb_heads;
  for (const auto& n : nodes) {
    if (n.type == NodeType::kBuffer && model.head[n.id] != kNone) {
      meb_heads[comp[model.head[n.id]]].push_back(model.head[n.id]);
    }
  }

  // Per-component structural minimum and its representative vertex.
  std::map<std::size_t, std::pair<double, std::size_t>> comp_min;
  for (std::size_t v = 0; v < model.verts.size(); ++v) {
    const double e = howard.vertex_ratio[v];
    auto [it, inserted] = comp_min.emplace(comp[v], std::make_pair(e, v));
    if (!inserted && e < it->second.first - kEps) it->second = {e, v};
  }

  // Channel feeding each sink, as elaboration names it ("driver:port").
  std::map<std::size_t, std::string> sink_channel;
  for (const auto& e : net.edges()) {
    if (nodes[e.to].type == NodeType::kSink) {
      sink_channel[e.to] = nodes[e.from].name + ":" + std::to_string(e.from_port);
    }
  }

  // Turns a walked critical cycle into the user-facing locus list.
  const auto describe_cycle = [&](const WalkedCycle& wc, double ratio) {
    PerfCycle c;
    c.ratio = ratio;
    c.tokens = wc.tokens;
    c.hops = wc.hops;
    for (const std::size_t v : wc.verts) {
      const std::string& name = nodes[model.verts[v].node].name;
      if (c.loci.empty() || c.loci.back() != name) c.loci.push_back(name);
    }
    if (c.loci.size() > 1 && c.loci.front() == c.loci.back()) c.loci.pop_back();
    c.fix_slots = c.hops > c.tokens ? c.hops - c.tokens : 0;
    c.cost = 1.0 - ratio;
    return c;
  };

  // Each component's critical cycle, walked once from its argmin vertex
  // on first use. Policy arcs never leave a component, so the walks share
  // one visited array.
  std::map<std::size_t, WalkedCycle> comp_cycle;
  std::vector<char> walked(model.verts.size(), 0);
  SlackSearch slack_to_sink(model.graph);

  double worst_structural = 1.0;
  const WalkedCycle* worst_cycle = nullptr;
  for (const auto& n : nodes) {
    if (n.type != NodeType::kSink) continue;
    PerfSinkBound sb;
    sb.sink = n.name;
    const auto ch = sink_channel.find(n.id);
    if (ch != sink_channel.end()) sb.channel = ch->second;
    sb.reachable = fill[n.id] != kNone;
    sb.fill_latency = sb.reachable ? fill[n.id] : 0;
    sb.candidates.push_back({1, 1, 0});

    const std::size_t sink_vertex = model.head[n.id];
    const std::size_t c = comp[sink_vertex];
    const auto cm = comp_min.find(c);
    double structural = 1.0;
    if (cm != comp_min.end() && cm->second.first != kInf) {
      structural = std::min(1.0, cm->second.first);
    }
    sb.structural_ratio = structural;
    double theta = structural;
    // Token slack from every vertex to this sink — the additive transient
    // a remote constraint leaves the sink free to collect. Only a
    // candidate below 1 token/cycle reads it.
    const auto mh = meb_heads.find(c);
    const bool capped = service_cap && mh != meb_heads.end();
    if (structural < 1.0 - kEps || capped) slack_to_sink.run(sink_vertex);
    const auto min_slack = [&](const std::vector<std::size_t>& verts) {
      std::size_t best = kNone;
      for (const std::size_t v : verts) best = std::min(best, slack_to_sink.from(v));
      return best;
    };
    if (structural < 1.0 - kEps) {
      // The component's own critical cycle (walked from its argmin
      // vertex), not the global one — they differ in multi-sink nets.
      auto cc = comp_cycle.find(c);
      if (cc == comp_cycle.end()) {
        cc = comp_cycle
                 .emplace(c, walk_cycle(model.graph, howard.policy, cm->second.second,
                                        walked))
                 .first;
      }
      const WalkedCycle& wc = cc->second;
      if (wc.hops > 0) {
        // A cycle with no directed path to the sink imposes no count
        // recurrence on it (theta still records the steady-state cap).
        const std::size_t slack = min_slack(wc.verts);
        if (slack != kNone) sb.candidates.push_back({wc.tokens, wc.hops, slack});
      }
      if (structural < worst_structural - kEps) {
        worst_structural = structural;
        worst_cycle = &wc;
      }
    }
    if (capped) {
      // The cap binds at each MEB station; the sink additionally collects
      // the slack buffered past the nearest constraining MEB.
      const std::size_t slack = min_slack(mh->second);
      if (slack != kNone) {
        sb.candidates.push_back({service_cap->first, service_cap->second, slack});
      }
      theta = std::min(theta, static_cast<double>(service_cap->first) /
                                  static_cast<double>(service_cap->second));
    }
    sb.theta = theta;
    rep.sinks.push_back(std::move(sb));
  }
  std::sort(rep.sinks.begin(), rep.sinks.end(),
            [](const PerfSinkBound& a, const PerfSinkBound& b) {
              return a.sink < b.sink;
            });
  rep.aggregate_bound = 1.0;
  for (const auto& sb : rep.sinks) {
    rep.aggregate_bound = std::min(rep.aggregate_bound, sb.theta);
  }
  if (worst_cycle && !worst_cycle->verts.empty()) {
    rep.bottleneck = describe_cycle(*worst_cycle, worst_structural);
  }

  if (net.is_multithreaded() && s > 0) {
    double per_thread = 1.0;
    if (options.meb_shared_slots) {
      per_thread = std::min(
          per_thread, (1.0 + static_cast<double>(*options.meb_shared_slots)) / 2.0);
    }
    if (options.arbiter == mt::ArbiterKind::kOblivious) {
      per_thread = std::min(per_thread, 1.0 / static_cast<double>(s));
    }
    per_thread = std::min(per_thread, rep.aggregate_bound);
    rep.per_thread_bounds.assign(s, per_thread);
  }

  for (const auto& n : nodes) {
    if (n.rate >= 1.0 || n.rate <= 0.0) continue;
    if (n.type == NodeType::kSource || n.type == NodeType::kSink) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", n.rate);
      rep.rate_notes.push_back(
          std::string(n.type == NodeType::kSource ? "source '" : "sink '") + n.name +
          "' rate " + buf +
          " caps expected load (Bernoulli gate; not a hard bound)");
    }
  }
  return rep;
}

}  // namespace mte::analysis
