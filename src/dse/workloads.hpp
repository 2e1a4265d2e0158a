// DSE workload registry: the circuits a campaign can sweep.
//
// A Workload bundles (1) capability traits — which sweep axes its
// hardware can actually vary — and (2) an evaluate function that builds
// the design point, runs it, and returns simulation metrics joined with
// the analytical area estimate. The built-in set covers the paper's four
// experiment shapes:
//
//   fig1        one-MEB channel under fractional per-thread injection
//               (Fig. 1 utilization argument)
//   fig5        two-stage MEB pipeline with the all-but-one-thread
//               blocked window (Fig. 5 corner case: full keeps the
//               survivor at ~100 %, reduced caps it at ~50 %)
//   md5         the complete multithreaded elastic MD5 engine (Sec. V-A),
//               run to digest completion
//   processor   the multithreaded pipelined elastic processor (Sec. V-B)
//               on barrel programs, run to halt
//
// The netlist workloads (fig1, fig5) elaborate through CircuitBuilder /
// Elaboration, so every axis — variant, capacity, arbiter, kernel —
// applies; the hand-built engines pin what their construction fixes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "area/cost_model.hpp"
#include "dse/sweep_spec.hpp"
#include "netlist/netlist.hpp"
#include "sim/types.hpp"

namespace mte::sim {
class Simulator;
}

namespace mte::netlist {
class Elaboration;
}

namespace mte::dse {

/// Kernel-side diagnostics of one evaluated point, read off the point's
/// Simulator after the run (obs category "kernel": deterministic per
/// (kernel, seed), byte-identical across worker counts and shardings).
/// These ride alongside the Report but render through the separate
/// metrics CSV (Report::metrics_csv / mte_dse --metrics-out), so the
/// schema-gated main report is untouched.
struct KernelMetrics {
  double settle_work = 0;          ///< component-equivalent settle evals
  std::uint64_t sched_evals = 0;   ///< dispatched settle units
  std::uint64_t ticks = 0;         ///< tick() dispatches
  std::uint64_t elided_ticks = 0;  ///< commits skipped by tick elision
  bool demoted_to_naive = false;

  /// Reads every field from the simulator's counters.
  [[nodiscard]] static KernelMetrics capture(const sim::Simulator& sim);
};

/// Simulation metrics of one evaluated point, joined with the structural
/// area estimate of the elaborated design.
struct WorkloadResult {
  double throughput = 0;   ///< tokens (blocks, instructions) per cycle
  double mean_wait = 0;    ///< mean backpressure wait at the measured channel
  std::uint64_t tokens = 0;
  sim::Cycle cycles = 0;   ///< cycles actually simulated
  area::DesignEstimate area;
  KernelMetrics kernel;
};

/// Which sweep axes a workload's hardware can vary. enumerate() pins the
/// unsupported axes to their canonical value instead of multiplying
/// meaningless duplicates into the campaign.
struct WorkloadTraits {
  bool supports_hybrid = true;   ///< capacity axis (hybrid shared pool)
  bool supports_arbiter = true;  ///< arbiter-policy axis
  bool supports_kernel = true;   ///< settle-kernel axis
};

/// A built, configured, reset design point whose simulator the runner can
/// drive (and checkpoint/restore) itself. finish() reads the metrics after
/// the runner has stepped the simulator for the point's cycle budget.
class WorkloadSession {
 public:
  virtual ~WorkloadSession() = default;
  virtual sim::Simulator& simulator() = 0;
  virtual WorkloadResult finish(const SweepPoint& point, sim::Cycle cycles) = 0;
  /// The underlying netlist elaboration when the workload has one —
  /// the hook the campaign's robustness policy uses to attach protocol
  /// monitors. Null for hand-built engines without an Elaboration.
  virtual netlist::Elaboration* elaboration() { return nullptr; }
};

/// The statically analyzable shape of a netlist workload's design point:
/// the multithreaded netlist a point elaborates plus the sink whose input
/// channel finish() measures. Powers the static screening bound — the
/// netlist must match what make_session builds (stall windows and
/// Bernoulli gates are session-side and intentionally absent: both only
/// lower measured throughput, keeping the static bound an upper bound).
struct StaticModel {
  netlist::Netlist net;
  std::string sink;
};

struct Workload {
  std::string name;
  std::string description;
  WorkloadTraits traits;
  /// Deterministic: equal (point, cycles, seed) must produce bit-equal
  /// results regardless of the host thread it runs on.
  std::function<WorkloadResult(const SweepPoint&, sim::Cycle cycles,
                               std::uint64_t seed)>
      evaluate;
  /// Optional: exposes the point's simulator for checkpoint/restore
  /// warm-starts. evaluate must equal "make_session; run(cycles); finish".
  /// Null for the run-to-completion engines (md5, processor), which the
  /// checkpoint policy therefore skips.
  std::function<std::unique_ptr<WorkloadSession>(const SweepPoint&,
                                                 sim::Cycle cycles,
                                                 std::uint64_t seed)>
      make_session;
  /// Optional: the point's netlist for ahead-of-time analysis (static
  /// throughput bounds, screening). Null for the hand-built engines
  /// (md5, processor), whose points always simulate.
  std::function<StaticModel(const SweepPoint&)> make_netlist;
};

/// Structural area estimate of an elaborated multithreaded netlist at a
/// design point: MEBs (of the point's variant) per buffer node, M-
/// operator handshake logic, and generic combinational blocks for
/// function/VL nodes. Shared by NetlistSession::finish() and the
/// screening pre-pass, which must price a point without simulating it.
[[nodiscard]] area::DesignEstimate netlist_area(const netlist::Netlist& net,
                                               const SweepPoint& p,
                                               const area::CostModel& model);

class WorkloadSet {
 public:
  WorkloadSet& add(Workload w);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Throws std::invalid_argument for unknown names.
  [[nodiscard]] const Workload& at(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// fig1, fig5, md5, processor.
  [[nodiscard]] static const WorkloadSet& builtin();

 private:
  std::map<std::string, Workload> by_name_;
};

}  // namespace mte::dse
