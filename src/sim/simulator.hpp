// Simulator: the clocked, delta-cycle simulation kernel.
//
// Each step() performs:
//   1. settle: run eval() until no wire changes (fixed point).
//      Non-convergence within the settle limit (2 x components + 8
//      sweeps) raises CombinationalLoopError.
//   2. observe: invoke registered per-cycle observers on the settled state.
//   3. commit: run tick() (the clock edge).
//
// This reproduces synchronous RTL semantics at cycle granularity, which is
// the level at which the paper's protocol properties are defined.
//
// Two interchangeable settle kernels implement those semantics:
//
//   KernelKind::kNaive        The reference kernel: every settle iteration
//                             re-runs eval() on every component until the
//                             tracker reports a quiet sweep; tick() runs on
//                             every component. O(components x iterations)
//                             per cycle, trivially correct.
//
//   KernelKind::kEventDriven  The worklist kernel (default): its
//                             scheduling unit is the PROCESS (sim::Process)
//                             — a component's whole eval() by default, or
//                             one phase of a component split into a
//                             forward (valid/data) and a backward (ready)
//                             process. Wires record their fanout as
//                             processes read them, so a settle pass
//                             evaluates only processes whose inputs
//                             actually changed. A Tarjan-SCC levelization
//                             pass over the discovered process graph
//                             orders the worklist topologically (it reruns
//                             only when a discovered edge is not ordered
//                             by the current levels), so
//                             acyclic regions settle in one ordered sweep
//                             — and because split components decouple the
//                             two handshake directions, MEB -> operator
//                             ready-passthrough chains that are cyclic at
//                             component granularity become genuinely
//                             acyclic here. Wire-acyclic feedback that
//                             remains (e.g. M-Join cross-input coupling)
//                             iterates to its unique fixed point. A
//                             circuit whose worklist fails to converge (an
//                             order-sensitive combinational cycle)
//                             permanently demotes the simulator: every
//                             subsequent settle runs the exact naive
//                             algorithm (including CombinationalLoopError
//                             on divergence). Note the fixed points of
//                             order-sensitive cycles are order-dependent
//                             by nature — the settle in which demotion
//                             triggers resumes from partially updated
//                             wires, and such a cycle that happens to
//                             converge under worklist order keeps its own
//                             fixed point — so select kNaive up front when
//                             a cyclic circuit must match the reference
//                             trace exactly.
//                             Each cycle commits and reseeds only the
//                             sequential components (Component::
//                             is_sequential), with three refinements:
//                             a component reporting tick_quiescent() is
//                             neither ticked nor reseeded that cycle
//                             (tick elision — a fully stalled elastic
//                             buffer costs nothing); a ticked component
//                             reseeds only the processes its tick named
//                             via set_tick_touched (a buffer whose
//                             can_accept didn't change does not reseed
//                             its ready process); and touched processes
//                             that read no wires at all are evaluated
//                             inline at settle start instead of being
//                             scheduled — their writes wake readers at
//                             the proper levels with no mid-sweep
//                             re-evaluation.
//
// Both kernels settle to identical fixed points on protocol-respecting
// circuits (enforced by the kernel-equivalence test suite); the naive
// kernel stays available as the oracle and for debugging.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"
#include "sim/wire.hpp"

namespace mte::obs {
class PhaseProfiler;
class TraceSession;
}  // namespace mte::obs

namespace mte::sim {

class FaultInjector;
class ProtocolMonitor;

/// Selects the settle/commit implementation of a Simulator.
enum class KernelKind { kNaive, kEventDriven };

[[nodiscard]] constexpr const char* to_string(KernelKind kind) noexcept {
  return kind == KernelKind::kNaive ? "naive" : "event-driven";
}

class Simulator {
 public:
  explicit Simulator(KernelKind kernel = KernelKind::kEventDriven);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The change tracker shared by all wires of this simulator.
  [[nodiscard]] ChangeTracker& tracker() noexcept { return tracker_; }

  /// The active settle kernel.
  [[nodiscard]] KernelKind kernel() const noexcept { return kernel_; }

  /// Switches the settle kernel. Safe at any point between steps; the
  /// event-driven kernel re-discovers sensitivities from scratch.
  void set_kernel(KernelKind kind);

  /// Registers a component. Called automatically by the Component ctor.
  void register_component(Component& c);

  /// Unregisters a component and drops every kernel record that mentions
  /// it. Called automatically by the Component dtor.
  void unregister_component(Component& c) noexcept;

  /// The registered components, in registration order.
  [[nodiscard]] const std::vector<Component*>& components() const noexcept {
    return components_;
  }

  /// Constructs a component (or any object) owned by the simulator.
  /// Components still self-register through their constructor — with the
  /// simulator passed in `args`, not implicitly with `this`. Constructing
  /// a component that registered itself with a *different* simulator is an
  /// ownership error (its wires would feed a foreign tracker and its
  /// eval/tick would run on a foreign clock) and throws SimulationError
  /// instead of silently mixing trackers.
  template <typename C, typename... Args>
  C& make(Args&&... args) {
    auto obj = std::make_shared<C>(std::forward<Args>(args)...);
    C& ref = *obj;
    if constexpr (std::is_base_of_v<Component, C>) {
      if (&ref.sim() != this) {
        // obj's destructor unregisters it from the foreign simulator.
        throw SimulationError(
            "Simulator::make: component '" + ref.name() +
            "' registered itself with a different simulator; construct it "
            "through that simulator's make() instead");
      }
    }
    owned_.push_back(std::move(obj));  // shared_ptr<void> keeps the deleter
    return ref;
  }

  /// Adds an observer invoked once per cycle on the settled state,
  /// before the clock edge.
  void on_cycle(std::function<void(Cycle)> fn) { observers_.push_back(std::move(fn)); }

  /// Resets all components and the cycle counter.
  void reset();

  // --- checkpointing --------------------------------------------------------
  /// Serializes the complete deterministic simulation state — settled wire
  /// values, per-component registered state (Component::save_state, each in
  /// a CRC'd length-checked frame), tick-elision idle hints, the demotion
  /// flag, and the cycle count — in the versioned little-endian snapshot
  /// format (sim/snapshot.hpp). Diagnostics counters (eval/tick counts,
  /// settle work) and profiler samples are not part of the snapshot.
  /// Call between steps on settled state (save right after step()/run()).
  void save(std::ostream& os) const;

  /// Restores a snapshot written by save() into this simulator, which must
  /// hold the structurally identical circuit (same wires, same components
  /// in the same registration order — enforced by name and count checks).
  /// Scheduler state is NOT read from the snapshot: process slots,
  /// levelization and worklists are rematerialized by scheduling a full
  /// evaluation, exactly as reset() does — so a snapshot saved under one
  /// KernelKind restores under the other. Throws SnapshotError on any
  /// version/structure/CRC/length mismatch; the simulator state is then
  /// unspecified and needs reset(). Subsequent step()s replay the saved
  /// run's future bit for bit.
  void restore(std::istream& is);

  /// Advances one clock cycle.
  void step();

  /// Advances n clock cycles.
  void run(Cycle n);

  /// Runs eval to fixed point without ticking; useful for inspecting the
  /// combinational response to the current state in tests.
  void settle();

  /// Cycles completed since reset.
  [[nodiscard]] Cycle now() const noexcept { return cycle_; }

  [[nodiscard]] std::size_t component_count() const noexcept { return components_.size(); }

  /// Total evaluations across all settle passes since construction — the
  /// number of units the settle scheduler dispatched. The naive kernel
  /// counts whole-component eval() calls; the event-driven kernel counts
  /// scheduled units: merged/full evals and individual process
  /// evaluations alike (a split component's forward and backward phases
  /// count separately, each being a fraction of the full eval's work).
  [[nodiscard]] std::uint64_t eval_count() const noexcept { return eval_count_; }

  /// Settle work in component-equivalent evals: a full (or merged) eval
  /// counts 1, an individual process eval counts 1/process_count. This is
  /// the metric comparable across kernel granularities — raw eval_count()
  /// inflates under the process-granular kernel because its units are
  /// fractions of a component eval.
  [[nodiscard]] double settle_work() const noexcept { return settle_work_; }

  /// Clock-edge commits skipped by tick elision (quiescent components)
  /// since construction; 0 under the naive kernel.
  [[nodiscard]] std::uint64_t elided_tick_count() const noexcept {
    return elided_tick_count_;
  }

  /// True once the event kernel has found an order-sensitive
  /// combinational cycle at runtime and fallen back to the reference
  /// evaluation order for good. The static analyzer predicts exactly
  /// this from the netlist (MTE022), so the lint-vs-simulation
  /// cross-check asserts: no combinational-feedback diagnostics =>
  /// never demoted. Always false under the naive kernel.
  [[nodiscard]] bool demoted_to_naive() const noexcept { return demoted_to_naive_; }

  /// Commit-phase work counter: tick() calls dispatched since
  /// construction (both kernels). The commit-side sibling of eval_count —
  /// tick/cycle is the machine-independent measure of commit-phase cost
  /// the sim-speed gate budgets alongside settle work.
  [[nodiscard]] std::uint64_t tick_count() const noexcept { return tick_count_; }

  /// Levelization work since construction: the processes plus the
  /// writer->reader edges each full relevelization pass visited. The pass
  /// reruns only when a discovered edge is not ordered by the current
  /// levels, so on an acyclic pipeline it stays flat once the first
  /// settles have discovered its graph; 0 under the naive kernel.
  [[nodiscard]] std::uint64_t relevel_work() const noexcept { return relevel_work_; }

  // --- observability --------------------------------------------------------
  /// The simulator's metrics registry. The simulator itself registers one
  /// source publishing sim.* and component.* (and, when attached, the
  /// profiler's profile.* and the trace session's trace.*) under the
  /// stable label scheme documented in obs/metrics.hpp. Attachments
  /// (Elaboration channel probes, user code) add their own sources. The
  /// registry is pull-based: nothing here costs the simulation loop
  /// anything until snapshot() is called.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Attaches a profiler: every stride-th eval/tick dispatch is timed and
  /// added to the component's profile slot (Component::profile_slot); all
  /// five dispatch sites of both kernels go through one helper, so an
  /// unsampled dispatch pays one decrement and compare. Slots are
  /// per-simulator, so a profiler serves one simulator at a time. The
  /// profiler must outlive the attachment; detach with nullptr. Profiler
  /// state is scratch: restore() resets it (diagnostics restart,
  /// mirroring the counters' not-in-snapshot rule).
  void set_profiler(obs::PhaseProfiler* profiler) noexcept { profiler_ = profiler; }
  [[nodiscard]] obs::PhaseProfiler* profiler() const noexcept { return profiler_; }

  /// Attaches a trace session: each step() records its phase spans and
  /// activity (dispatched evals/ticks, elisions, demotion). Must outlive
  /// the attachment; detach with nullptr.
  void set_trace(obs::TraceSession* trace) noexcept { trace_ = trace; }
  [[nodiscard]] obs::TraceSession* trace() const noexcept { return trace_; }

  // --- robustness -----------------------------------------------------------
  /// Attaches a protocol monitor: each step() runs its handshake checks on
  /// the settled state after the observers and before the clock edge. The
  /// monitor is pull-based like the profiler — detached it costs nothing,
  /// attached it adds zero settle evals and zero ticks. Must outlive the
  /// attachment; detach with nullptr. Monitor state is scratch: reset()
  /// and restore() clear it.
  void set_monitor(ProtocolMonitor* monitor) noexcept;
  [[nodiscard]] ProtocolMonitor* monitor() const noexcept { return monitor_; }

  /// Attaches a fault injector: each step() applies the active faults to
  /// the settled wires after the observers and before the monitor checks
  /// (so every injected fault is visible to the monitor and the commit
  /// phase), then forces a full re-settle so producers re-drive the truth
  /// next cycle identically under both kernels. Detach with nullptr.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  /// Arms the no-progress watchdog: if no watched channel fires a
  /// transfer for `cycles` consecutive cycles, step() throws
  /// WatchdogError carrying a wait-for-graph diagnosis, after writing a
  /// post-mortem bundle (snapshot + trailing Chrome-trace window +
  /// diagnosis report) to `postmortem_dir`, or to $MTE_POSTMORTEM_DIR
  /// when the argument is empty (no bundle if neither is set). The
  /// progress signal and the diagnosis come from the attached
  /// ProtocolMonitor — attach one (e.g. Elaboration::attach_monitor)
  /// before stepping; an armed watchdog without a monitor throws
  /// SimulationError at the first step. Disarm with cycles = 0.
  void set_watchdog(Cycle cycles, std::string postmortem_dir = {});
  [[nodiscard]] Cycle watchdog() const noexcept { return watchdog_cycles_; }

 private:
  void emit_sim_metrics(obs::MetricsSink& sink) const;
  [[nodiscard]] std::size_t settle_limit() const noexcept;
  void ensure_processes(Component& c);
  void settle_naive();
  void settle_event();
  void eval_scheduled(Process& p);
  void relevelize();
  void rebuild_sequential_cache();
  void seed_process(Process& p, std::size_t& pending, std::size_t& min_level);
  void flush_worklist_to_buckets(std::size_t& pending, std::size_t& min_level);
  void clear_pending() noexcept;
  void check_watchdog();
  /// Writes the post-mortem bundle; returns the files written as
  /// "<dir>/postmortem_c<cycle>.{ext,...}", or "" when none was.
  [[nodiscard]] std::string write_postmortem(const std::string& diagnosis) const;

  ChangeTracker tracker_;
  std::vector<Component*> components_;
  std::vector<std::shared_ptr<void>> owned_;
  std::vector<std::function<void(Cycle)>> observers_;
  Cycle cycle_ = 0;
  std::uint32_t next_profile_slot_ = 0;  // never reused (Component::profile_slot)
  KernelKind kernel_ = KernelKind::kEventDriven;

  // --- event-kernel state ---------------------------------------------------
  bool tearing_down_ = false;        // ~Simulator: skip unregister callbacks
  bool full_eval_pending_ = true;    // evaluate everything on the next settle
  bool seed_seq_pending_ = false;    // seed sequential comps on the next settle
  bool levels_valid_ = false;        // levelization matches the known topology
  bool demoted_to_naive_ = false;    // order-sensitive cycle found: use
                                     // the reference order from now on
  bool seq_cache_valid_ = false;     // seq_components_ matches components_
  std::uint64_t eval_count_ = 0;
  double settle_work_ = 0.0;
  std::uint64_t elided_tick_count_ = 0;
  std::uint64_t tick_count_ = 0;
  obs::MetricsRegistry metrics_;
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::TraceSession* trace_ = nullptr;
  ProtocolMonitor* monitor_ = nullptr;
  FaultInjector* injector_ = nullptr;
  Cycle watchdog_cycles_ = 0;        // 0 = disarmed
  std::string watchdog_dir_;         // post-mortem dir ("" => env)
  std::uint64_t watchdog_seen_ = 0;  // monitor transfer count at last progress
  Cycle watchdog_idle_ = 0;          // cycles since last progress
  std::size_t level_count_ = 0;      // acyclic levels; cyclic bucket follows
  std::vector<Component*> seq_components_;
  std::vector<std::vector<Process*>> buckets_;  // worklist, by level
  std::uint64_t relevel_work_ = 0;  // processes + edges over all full passes
};

}  // namespace mte::sim
