// Static netlist analyzer: the ahead-of-time mirror of what elaboration
// and the event-driven settle kernel discover dynamically. Where the
// kernel finds order-sensitive combinational cycles by Tarjan-SCC over
// live processes and demotes to the reference order mid-run, analyze()
// predicts them from the netlist alone — in milliseconds, before a DSE
// campaign burns a slot on a broken design point.
//
// The check suite (stable codes; full table in README.md):
//   MTE001-006  wiring: unconnected/undriven ports, fanout without a
//               fork, multiple drivers, bad edge refs, duplicate names
//   MTE010/011  dead components: unreachable from every source /
//               unable to reach any sink
//   MTE020      storage-free combinational cycle (node granularity;
//               custom nodes conservatively count as combinational)
//   MTE021      multithreaded fork/join reconvergence under ready-aware
//               arbitration
//   MTE022      cross-component valid/ready feedback at port
//               granularity: legal but evaluation-order dependent (the
//               event kernel would demote on it)
//   MTE023      single-channel valid/ready feedback (speculative valid
//               meets a data-dependent ready); resolved iteratively
//   MTE030      structural deadlock: a feedback loop through a lazy
//               join can never fire (no initial tokens exist)
//   MTE031      reconvergent fork/join path-slack imbalance
//   MTE040-044  capacity/rate sanity: zero threads, reduced-MEB pool K vs S,
//               K = 0 throughput cap, S = 1 design point, rate-0 ends
//   MTE050-054  static performance (opt-in via AnalysisOptions::perf):
//               aggregate/per-sink throughput bounds from the minimum
//               cycle ratio of the marked graph (analysis/perf.hpp),
//               per-thread caps, the bottleneck cycle with a buffer
//               fix-it, informational Bernoulli rate caps, and solver
//               self-check failures (non-convergence, rejected
//               optimality certificate)
//
// MTE001-006, MTE020 and MTE021 are the elastic rules the synthesis step
// is defined on; elaboration_errors() runs exactly those, and it is the
// check Elaboration (and so every CircuitBuilder::elaborate()) applies.
//
// The port-granular signal model encodes each component's real
// combinational dependencies (who reads which wire during eval), taken
// from the component sources: lazy joins couple each input's ready to
// the peer input's valid; speculative (ready-aware) MEB/source
// arbitration couples valid back to downstream ready; MEBs pass ready
// through combinationally; branches derive ready from the predicate on
// the incoming token. Single-thread EBs and var-latency units cut both
// directions.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "mt/arbiter.hpp"
#include "netlist/netlist.hpp"

namespace mte::analysis {

struct AnalysisOptions {
  /// Arbitration policy the netlist will elaborate under. Ready-aware
  /// policies make MEB/source valid depend on downstream ready
  /// (speculative grant), which is what closes the MTE021/022 cycles;
  /// the oblivious TDM arbiter has none of that coupling.
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;

  /// Reduced-MEB shared-pool size K (ElaborationOptions::meb_shared_slots).
  /// Enables the MTE041/042 pool-capacity checks when set.
  std::optional<std::size_t> meb_shared_slots{};

  /// Runs the static performance pass (analysis/perf.hpp) and emits the
  /// MTE050-054 diagnostics. Off by default: the cycle-ratio solve costs
  /// more than every structural check combined, and the bounds are only
  /// meaningful on netlists that already pass the wiring checks.
  bool perf = false;
};

/// Runs every check and returns the deterministic report.
[[nodiscard]] AnalysisReport analyze(const netlist::Netlist& net,
                                     const AnalysisOptions& options = {});

/// Whether `net` can be elaborated under `arbiter`: the MTE001-006
/// wiring and name checks, MTE020 storage-free cycles and, for a
/// multithreaded netlist under a ready-aware arbiter, MTE021 fork/join
/// reconvergence — the same checks analyze() runs, with the same
/// diagnostics, in report order. Empty means Elaboration accepts the
/// netlist. The other findings stay with analyze(): a dead or
/// deadlocking netlist still elaborates and simulates.
[[nodiscard]] std::vector<Diagnostic> elaboration_errors(
    const netlist::Netlist& net, mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin);

/// A fork whose arms reconverge at a join: two or more of the join's
/// inputs are fed through distinct paths from the same fork. Computed
/// for any netlist (the multithreaded gate and the hazard severity live
/// in the callers); only divergence points are reported — a fork whose
/// paths all run through a later common fork is dropped.
struct ReconvergentPair {
  std::size_t fork_id = 0;
  std::size_t join_id = 0;
};

/// Shared implementation behind the MTE021 hazard check and the MTE031
/// slack check.
[[nodiscard]] std::vector<ReconvergentPair> reconvergent_pairs(
    const netlist::Netlist& net);

}  // namespace mte::analysis
