// Static throughput analysis over the elastic netlist (the MTE05x pass).
//
// An elastic (SELF) network with deterministic handshakes is a marked
// graph: every feedback cycle carries a fixed number of tokens, and
// steady-state throughput is bounded by the minimum cycle ratio
// (tokens / latency) over all cycles. This pass builds that marked
// graph from the *real* component semantics — each vertex is a token
// acceptance event at a storage element (EB/MEB slot write, var-latency
// issue), a source grant or a sink consumption — and computes the
// minimum cycle ratio with Howard's policy iteration. Every result then
// passes an exact integer optimality certificate in O(V + E); a rejected
// result is an MTE054 error, not a tolerance knob.
//
// Arc rules, derived from the component sources and validated against
// hand traces of the simulator (see test_perf_vs_sim.cpp):
//   - forward u -> c (delay 1, tokens 0): a token accepted by storage u
//     at cycle t is offered downstream at t+1, so consumer c's n-th
//     acceptance trails u's n-th by at least one cycle. Var-latency
//     units insert latency_lo - 1 internal delay vertices.
//   - backward c -> u (delay 1, tokens = capacity(u)): u can accept its
//     n-th token only after its (n - cap)-th left, i.e. after every
//     downstream consumer accepted it. EB capacity 2; MEB capacity 2S
//     (full) or S+K (reduced with a pool of K shared slots, K = 1 unless
//     meb_shared_slots is set); var-latency 1 (S shared).
//   - cross-consumer c_j -> c_i (delay 1, tokens = S): the eager fork
//     keeps only the head token on its outputs, so arm i sees token k+1
//     no earlier than one cycle after every peer arm consumed token k.
//   - self-loop on every vertex (delay 1, tokens 1): a channel moves at
//     most one token per cycle.
// Paths crossing a branch, merge or custom node contribute *no*
// constraint arcs (token index alignment is data-dependent there);
// dropping constraints only raises the bound, keeping it sound.
//
// The per-sink bound is min(1, component cycle ratio, aggregate MEB
// service cap), and windowed_bound() folds in the pipeline fill latency
// so a finite-horizon measurement can be compared against it exactly.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mt/arbiter.hpp"
#include "netlist/netlist.hpp"

namespace mte::analysis {

struct PerfOptions {
  /// Arbitration policy the netlist will elaborate under: the oblivious
  /// TDM arbiter caps every thread at 1/S of the channel rate.
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;

  /// Reduced-MEB shared-pool size K (ElaborationOptions::meb_shared_slots).
  /// When set, MEB capacity is S+K and each thread's sustained rate is
  /// capped at (1+K)/2 (a lone thread waits out the handshake round trip
  /// between its private slot and the pool). The pass uses min(K, S):
  /// slots past S never hold a word.
  std::optional<std::size_t> meb_shared_slots;
};

/// A unit-delay arc of the marked graph carrying `tokens` initial tokens.
struct PerfArc {
  std::size_t to = 0;
  std::size_t tokens = 0;
};

/// The marked graph: adjacency lists of unit-delay arcs. Exposed so the
/// solver and its certificate can be property-tested on synthetic graphs.
struct MarkedGraph {
  std::vector<std::vector<PerfArc>> adj;
};

/// Result of a minimum cycle mean computation (tokens per unit delay).
struct CycleMeanResult {
  bool converged = false;
  /// Global minimum cycle mean; +inf when the graph is acyclic.
  double ratio = 0.0;
  /// Per-vertex minimum cycle mean reachable from that vertex (+inf for
  /// vertices that reach no cycle).
  std::vector<double> vertex_ratio;
  /// One critical cycle, in traversal order; empty when acyclic.
  std::vector<std::size_t> cycle;
  std::size_t cycle_tokens = 0;
  std::size_t cycle_hops = 0;
  std::size_t iterations = 0;
  /// Final policy (chosen arc index per vertex); following it from any
  /// vertex reaches a cycle of that vertex's minimum reachable mean.
  std::vector<std::size_t> policy;
};

/// Howard's policy iteration for the minimum cycle mean. Deterministic:
/// policies improve in vertex/arc index order with an absolute 1e-9
/// tolerance, so reruns produce byte-identical reports.
[[nodiscard]] CycleMeanResult howard_min_cycle_mean(const MarkedGraph& g);

/// Checks in O(V + E) exact integer arithmetic that `r` is optimal for
/// `g`: re-walks r.policy, then requires ratio(u) <= ratio(x) on every arc
/// u -> x, equal finite ratios and a non-negative reduced cost on every
/// arc inside one SCC, and vertex_ratio, ratio, cycle, cycle_tokens and
/// cycle_hops to match the walk. A wrong result cannot pass; int64
/// overflow also rejects.
[[nodiscard]] bool certify_min_cycle_mean(const MarkedGraph& g,
                                          const CycleMeanResult& r);

/// The bottleneck cycle of a netlist whose bound is below 1 token/cycle.
struct PerfCycle {
  double ratio = 1.0;          ///< tokens / hops
  std::size_t tokens = 0;
  std::size_t hops = 0;
  /// Component names along the cycle (consecutive duplicates collapsed;
  /// var-latency internal delay stages report the unit's name).
  std::vector<std::string> loci;
  /// Buffer slots that restore ratio 1 when added on the cycle.
  std::size_t fix_slots = 0;
  /// Throughput lost to the cycle today (1 - ratio tokens/cycle).
  double cost = 0.0;
};

/// Static throughput bound for one sink.
struct PerfSinkBound {
  std::string sink;     ///< sink node name
  std::string channel;  ///< channel feeding the sink, as "driver:port"
  /// Steady-state aggregate bound: min(1, cycle ratio, MEB service cap).
  double theta = 1.0;
  /// The raw minimum cycle ratio of the sink's constraint component.
  double structural_ratio = 1.0;
  /// Minimum storage hops from any source (earliest first-arrival cycle).
  std::size_t fill_latency = 0;
  bool reachable = true;  ///< false when no source feeds the sink
  /// One finite-horizon count candidate: a (tokens, hops) recurrence some
  /// cycle imposes, plus the token `slack` between that cycle and the
  /// sink — the initial tokens on the lightest directed path from a cycle
  /// vertex to the sink's acceptance vertex. A remote bottleneck lets the
  /// sink transiently collect the in-flight slack before its backpressure
  /// arrives, so the admissible count is ceil(window/hops)*tokens + slack
  /// (slack is 0 when the cycle passes through the sink itself, and the
  /// bound is then exact on the fill-adjusted window).
  struct Candidate {
    std::size_t tokens = 1;
    std::size_t hops = 1;
    std::size_t slack = 0;
  };
  /// Binding candidates — always (1,1,0) (the sink's own recurrence),
  /// plus the structural critical cycle(s) and the MEB service cap when
  /// below 1. windowed_bound() takes the minimum over all of them.
  std::vector<Candidate> candidates;
};

struct PerfReport {
  bool converged = true;      ///< Howard hit its fixed point
  /// The optimality certificate accepted Howard's result. The name is
  /// kept for its readers: DSE static_bound, the tests and the benchmark.
  bool karp_agrees = true;
  std::size_t iterations = 0;
  /// Min over sinks of theta (1.0 for a netlist without sinks).
  double aggregate_bound = 1.0;
  std::vector<PerfSinkBound> sinks;  ///< sorted by sink name
  /// Set when some sink's structural ratio is below 1.
  std::optional<PerfCycle> bottleneck;
  /// Per-thread sustained-rate caps (empty for single-thread netlists).
  std::vector<double> per_thread_bounds;
  /// Informational: Bernoulli rate gates below 1.0 cap the *expected*
  /// load but are not hard bounds, so they never enter theta.
  std::vector<std::string> rate_notes;
};

/// Upper bound on measured throughput (transfers / cycles) of the
/// sink's input channel over a `cycles`-long run from reset: each
/// binding cycle (T, H, slack) admits at most
/// (floor((win-1)/H) + 1) * T + slack transfers, where win is the
/// fill-adjusted window W = cycles - fill_latency for through-sink
/// candidates (slack 0) and the full run for remote ones (the slack
/// tokens can land before the sink's steady stream starts).
[[nodiscard]] double windowed_bound(const PerfSinkBound& sink, std::size_t cycles);

/// Runs the full static performance analysis.
[[nodiscard]] PerfReport analyze_perf(const netlist::Netlist& net,
                                      const PerfOptions& options = {});

}  // namespace mte::analysis
