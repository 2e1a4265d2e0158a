// Lockstep kernel-equivalence harness: elaborates the same netlist under
// the naive reference kernel and the event-driven worklist kernel, drives
// both with an identical (deterministic) workload, and asserts after every
// cycle that all channel wires carry identical values — then, at the end
// of the run, that cycle counters and per-channel probe statistics match.
//
// Shared by test_kernel_equivalence.cpp (curated circuits) and
// test_kernel_fuzz.cpp (random netlists).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/builder.hpp"
#include "sim/protocol_monitor.hpp"

namespace mte::kerneltest {

using netlist::Elaboration;
using netlist::Netlist;
using Word = netlist::Word;

/// Filled in by run_lockstep when snapshot-bisection is enabled and a wire
/// divergence fires: the divergence is pinned to the window since the last
/// in-sync snapshot pair, and replayed from that pair (never from cycle 0)
/// to confirm the snapshots alone reproduce it.
struct BisectReport {
  bool triggered = false;
  /// Cycle of the last snapshot at which both kernels agreed.
  sim::Cycle window_begin = 0;
  /// Cycle at which the wire mismatch was observed; the offending window
  /// is (window_begin, window_end].
  sim::Cycle window_end = 0;
  /// True when restoring the snapshot pair into fresh elaborations and
  /// re-stepping reproduced the divergence inside the window.
  bool replayed = false;
  /// Snapshot bytes of both simulators at window_begin.
  std::string ref_snapshot;
  std::string dut_snapshot;
  /// Wire mismatch description from the original run.
  std::string message;
};

struct LockstepOptions {
  sim::Cycle cycles = 2000;
  bool channel_probes = true;
  /// Skip (instead of fail) circuits whose settle diverges under either
  /// kernel — used by the fuzzer, whose random structures cannot rule out
  /// oscillating combinational cycles entirely.
  bool allow_divergent = false;
  /// Arbitration policy for both elaborations. Netlists with M-Joins need
  /// ArbiterKind::kOblivious to stay inside the equivalence contract:
  /// ready-aware arbitration against the M-Join's cross-input ready
  /// coupling yields multiple combinational fixed points, so the two
  /// kernels can legally settle to different ones.
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;
  /// When nonzero, both simulators are snapshotted every snapshot_interval
  /// cycles; a wire divergence is then bisected to the cycles since the
  /// last snapshot and replayed from it, so a failure deep into a long run
  /// never needs a cycle-0 replay. Failure messages carry the window.
  sim::Cycle snapshot_interval = 0;
  /// Receives the bisection result (window, snapshots, replay verdict).
  /// Artifacts are additionally written to $MTE_BISECT_DIR when set.
  BisectReport* bisect = nullptr;
  /// Attach a ProtocolMonitor to both elaborations and fail the run on any
  /// recorded violation — a lint-clean circuit must honour the SELF
  /// contract under both kernels. The fuzz suite turns this on via
  /// MTE_FUZZ_MONITORS=1.
  bool monitors = false;
};

/// Per-cycle wire comparison across every row of the two elaborations'
/// channel tables.
inline ::testing::AssertionResult channels_equal(Elaboration& ref, Elaboration& dut) {
  const auto& ref_rows = ref.channel_rows();
  const auto& dut_rows = dut.channel_rows();
  for (std::size_t i = 0; i < ref_rows.size(); ++i) {
    const sim::ChannelRow& a = ref_rows[i];
    const sim::ChannelRow& b = dut_rows[i];
    if (a.data->get() != b.data->get()) {
      return ::testing::AssertionFailure()
             << "channel '" << a.name << "' data: naive=" << a.data->get()
             << " event=" << b.data->get();
    }
    for (std::size_t t = 0; t < a.threads(); ++t) {
      if (a.valid[t].get() != b.valid[t].get()) {
        return ::testing::AssertionFailure()
               << "channel '" << a.name << "' valid(" << t
               << "): naive=" << a.valid[t].get() << " event=" << b.valid[t].get();
      }
      if (a.ready[t].get() != b.ready[t].get()) {
        return ::testing::AssertionFailure()
               << "channel '" << a.name << "' ready(" << t
               << "): naive=" << a.ready[t].get() << " event=" << b.ready[t].get();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// End-of-run probe statistics comparison (transfer counts per thread,
/// observed cycles, backpressure wait statistics).
inline ::testing::AssertionResult probes_equal(
    Elaboration& ref, Elaboration& dut, const std::vector<std::string>& names) {
  for (const auto& name : names) {
    auto& a = ref.probe(name);
    auto& b = dut.probe(name);
    if (a.cycles() != b.cycles()) {
      return ::testing::AssertionFailure()
             << "probe '" << name << "' cycles: naive=" << a.cycles()
             << " event=" << b.cycles();
    }
    for (std::size_t t = 0; t < a.threads(); ++t) {
      if (a.count(t) != b.count(t)) {
        return ::testing::AssertionFailure()
               << "probe '" << name << "' count(" << t << "): naive=" << a.count(t)
               << " event=" << b.count(t);
      }
    }
    if (a.mean_wait() != b.mean_wait()) {
      return ::testing::AssertionFailure()
             << "probe '" << name << "' mean_wait: naive=" << a.mean_wait()
             << " event=" << b.mean_wait();
    }
    if (a.throughput() != b.throughput()) {
      return ::testing::AssertionFailure()
             << "probe '" << name << "' throughput: naive=" << a.throughput()
             << " event=" << b.throughput();
    }
  }
  return ::testing::AssertionSuccess();
}

namespace detail {

inline std::unique_ptr<Elaboration> bisect_elab(
    const Netlist& net, const netlist::FunctionRegistry& registry,
    const netlist::ComponentFactory& factory, const LockstepOptions& opt,
    sim::KernelKind kernel, const std::function<void(Elaboration&)>& configure,
    const std::string& snapshot) {
  netlist::ElaborationOptions eopt;
  eopt.channel_probes = opt.channel_probes;
  eopt.kernel = kernel;
  eopt.arbiter = opt.arbiter;
  auto e = std::make_unique<Elaboration>(net, registry, factory, eopt);
  configure(*e);
  e->simulator().reset();
  std::istringstream is(snapshot);
  e->simulator().restore(is);
  return e;
}

/// Replays only the offending window (rep.window_begin, rep.window_end]
/// from the saved snapshot pair in fresh elaborations. Returns true when
/// the wire divergence reproduces inside the window.
inline bool replay_bisect_window(const Netlist& net,
                                 const netlist::FunctionRegistry& registry,
                                 const netlist::ComponentFactory& factory,
                                 const LockstepOptions& opt,
                                 const std::function<void(Elaboration&)>& configure,
                                 const BisectReport& rep) {
  auto ref = bisect_elab(net, registry, factory, opt, sim::KernelKind::kNaive,
                         configure, rep.ref_snapshot);
  auto dut = bisect_elab(net, registry, factory, opt, sim::KernelKind::kEventDriven,
                         configure, rep.dut_snapshot);
  for (sim::Cycle c = rep.window_begin; c < rep.window_end; ++c) {
    ref->simulator().step();
    dut->simulator().step();
    if (!channels_equal(*ref, *dut)) return true;
  }
  return false;
}

/// Writes the snapshot pair and a plain-text report to $MTE_BISECT_DIR so
/// CI can upload the artifacts of a tripped fuzz case.
inline void dump_bisect_artifacts(const BisectReport& rep) {
  const char* dir = std::getenv("MTE_BISECT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string base = std::string(dir) + "/bisect_" +
                           std::to_string(rep.window_begin) + "_" +
                           std::to_string(rep.window_end);
  std::ofstream(base + "_ref.snap", std::ios::binary) << rep.ref_snapshot;
  std::ofstream(base + "_dut.snap", std::ios::binary) << rep.dut_snapshot;
  std::ofstream report(base + ".txt");
  report << "kernel divergence window: (" << rep.window_begin << ", "
         << rep.window_end << "]\n"
         << "replayed from snapshot: " << (rep.replayed ? "yes" : "NO") << '\n'
         << rep.message << '\n';
}

}  // namespace detail

/// Elaborates `net` under both kernels, applies `configure` to each (it
/// must be deterministic — both elaborations need the identical workload),
/// then runs the lockstep comparison for opt.cycles cycles.
///
/// Returns false when either kernel raised CombinationalLoopError and
/// opt.allow_divergent is set: such a circuit has an oscillating
/// combinational cycle (it is outside the equivalence contract — its fixed
/// point depends on evaluation order), so the case is skipped rather than
/// failed. With allow_divergent unset the error fails the test.
inline bool run_lockstep(const Netlist& net,
                         const std::function<void(Elaboration&)>& configure,
                         const LockstepOptions& opt = {}) {
  const auto registry = netlist::FunctionRegistry::with_defaults();
  const auto factory = netlist::ComponentFactory::defaults();
  // Declared before the elaborations so the simulators' attachment
  // pointers never outlive the monitors.
  sim::ProtocolMonitor ref_monitor;
  sim::ProtocolMonitor dut_monitor;
  netlist::ElaborationOptions ref_opt;
  ref_opt.channel_probes = opt.channel_probes;
  ref_opt.kernel = sim::KernelKind::kNaive;
  ref_opt.arbiter = opt.arbiter;
  netlist::ElaborationOptions dut_opt = ref_opt;
  dut_opt.kernel = sim::KernelKind::kEventDriven;
  auto ref = std::make_unique<Elaboration>(net, registry, factory, ref_opt);
  auto dut = std::make_unique<Elaboration>(net, registry, factory, dut_opt);
  EXPECT_EQ(ref->simulator().kernel(), sim::KernelKind::kNaive);
  EXPECT_EQ(dut->simulator().kernel(), sim::KernelKind::kEventDriven);

  configure(*ref);
  configure(*dut);
  if (opt.monitors) {
    ref->attach_monitor(ref_monitor);
    dut->attach_monitor(dut_monitor);
  }
  ref->simulator().reset();
  dut->simulator().reset();

  const auto names = ref->channel_names();
  EXPECT_EQ(names, dut->channel_names());
  EXPECT_FALSE(names.empty());
  if (::testing::Test::HasFailure()) return false;

  // Latest in-sync snapshot pair for bisection (cycle 0 = post-reset).
  BisectReport local_bisect;
  BisectReport* bisect = opt.bisect != nullptr ? opt.bisect : &local_bisect;
  sim::Cycle snap_cycle = 0;

  for (sim::Cycle c = 0; c < opt.cycles; ++c) {
    if (opt.snapshot_interval != 0 && c % opt.snapshot_interval == 0) {
      std::ostringstream ros, dos;
      ref->simulator().save(ros);
      dut->simulator().save(dos);
      bisect->ref_snapshot = ros.str();
      bisect->dut_snapshot = dos.str();
      snap_cycle = c;
    }
    const char* diverged = nullptr;
    try {
      ref->simulator().step();
    } catch (const sim::CombinationalLoopError&) {
      diverged = "naive";
    }
    if (diverged == nullptr) {
      try {
        dut->simulator().step();
      } catch (const sim::CombinationalLoopError&) {
        diverged = "event-driven";
      }
    }
    if (diverged != nullptr) {
      if (opt.allow_divergent) return false;  // skip: outside the contract
      ADD_FAILURE() << diverged << " kernel raised CombinationalLoopError at cycle "
                    << c;
      return false;
    }
    const auto wires = channels_equal(*ref, *dut);
    if (!wires) {
      if (opt.snapshot_interval != 0) {
        bisect->triggered = true;
        bisect->window_begin = snap_cycle;
        bisect->window_end = c + 1;
        bisect->message = wires.message();
        bisect->replayed = detail::replay_bisect_window(net, registry, factory, opt,
                                                        configure, *bisect);
        detail::dump_bisect_artifacts(*bisect);
        ADD_FAILURE() << wires.message() << " at cycle " << c
                      << "; bisected to window (" << bisect->window_begin << ", "
                      << bisect->window_end << "] of "
                      << (bisect->window_end - bisect->window_begin)
                      << " cycles, replay from snapshot "
                      << (bisect->replayed ? "reproduces" : "DOES NOT reproduce")
                      << " the divergence";
      } else {
        ADD_FAILURE() << wires.message() << " at cycle " << c;
      }
      return false;
    }
  }
  EXPECT_EQ(ref->simulator().now(), dut->simulator().now());
  if (opt.monitors) {
    if (!ref_monitor.violations().empty()) {
      ADD_FAILURE() << "naive kernel protocol violations:\n" << ref_monitor.report();
      return false;
    }
    if (!dut_monitor.violations().empty()) {
      ADD_FAILURE() << "event kernel protocol violations:\n" << dut_monitor.report();
      return false;
    }
  }
  if (opt.channel_probes) {
    const auto stats = probes_equal(*ref, *dut, names);
    if (!stats) {
      ADD_FAILURE() << stats.message() << " after " << opt.cycles << " cycles";
      return false;
    }
  }
  return !::testing::Test::HasFailure();
}

}  // namespace mte::kerneltest
