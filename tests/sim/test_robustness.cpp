// Runtime robustness: the ProtocolMonitor / FaultInjector / watchdog
// triangle.
//
//   * fault matrix — every FaultKind, injected on single-threaded and
//     multithreaded elaborations under BOTH settle kernels, must be caught
//     by the monitor with the expected MTE1xx code;
//   * healthy traffic — monitors stay silent on contract-honouring
//     circuits, and attaching them adds zero settle evaluations and zero
//     ticks (they read settled wires outside the eval phase only);
//   * watchdog — a stall that resumes before the deadline must NOT fire;
//     a genuine deadlock fires with a wait-for-graph diagnosis naming the
//     cyclic dependency, and the post-mortem bundle round-trips through
//     Simulator::restore to reproduce the stall; the diagnosis of a stall
//     along a long chain must not recurse once per waiting edge.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "netlist/elaborate.hpp"
#include "netlist/netlist.hpp"
#include "sim/fault_injector.hpp"
#include "sim/protocol_monitor.hpp"

namespace {

using namespace mte;
using netlist::Elaboration;
using netlist::ElaborationOptions;
using netlist::Netlist;
using netlist::Node;

/// src -> b (elastic buffer) -> snk. Channels "src:0" and "b:0"; "src:0"
/// feeds a buffer, so it is persistent-ready (MTE103 applies), and "b:0"
/// is driven by one, so it is persistent-valid (MTE101 applies).
Netlist chain_netlist() {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto b = n.add(Node::buffer("b"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, b, 0);
  n.connect(b, 0, snk, 0);
  return n;
}

/// The MTE030 fixture: fork feedback into a join with no initial token.
Netlist join_cycle_netlist() {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto j = n.add(Node::join("j", 2));
  const auto b0 = n.add(Node::buffer("b0"));
  const auto f = n.add(Node::fork("f", 2));
  const auto snk = n.add(Node::sink("snk"));
  const auto b1 = n.add(Node::buffer("b1"));
  n.connect(src, 0, j, 0);
  n.connect(j, 0, b0, 0);
  n.connect(b0, 0, f, 0);
  n.connect(f, 0, snk, 0);
  n.connect(f, 1, b1, 0);
  n.connect(b1, 0, j, 1);
  return n;
}

/// Monitor + injector + elaboration with the destruction order the
/// attachment pointers need (the simulator dies first).
struct Rig {
  netlist::FunctionRegistry registry = netlist::FunctionRegistry::with_defaults();
  netlist::ComponentFactory factory = netlist::ComponentFactory::defaults();
  sim::ProtocolMonitor monitor;
  sim::FaultInjector injector{1};
  std::unique_ptr<Elaboration> elab;

  Rig(const Netlist& net, sim::KernelKind kernel, bool attach = true) {
    ElaborationOptions opt;
    opt.kernel = kernel;
    elab = std::make_unique<Elaboration>(net, registry, factory, opt);
    if (attach) {
      elab->attach_monitor(monitor);
      elab->bind_faults(injector);
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] sim::Simulator& sim() { return elab->simulator(); }
};

/// Pins the ST/MT rates each fault case needs to set up its precondition
/// (a stalled pending transfer, an empty persistent-ready buffer, ...).
struct FaultCase {
  const char* name;
  bool mt;
  sim::FaultInjector::Fault fault;
  double src0;  ///< source rate (ST) / thread-0 source rate (MT)
  double src1;  ///< thread-1 source rate (MT only)
  double snk;   ///< sink rate, every thread
  const char* expected;  ///< monitor code the fault must trip
};

// The adversarial contract: every fault class is caught, with the code
// that names what actually went wrong on the wires. Valid-persistence
// faults target "b:0" — the buffer output is the persistent-valid
// channel; rate-gated source valids may legally retract, so MTE101 does
// not apply at "src:0".
const FaultCase kFaultMatrix[] = {
    // Forced valid on the empty buffer output holds a pending transfer
    // (the sink never readies), then vanishes when the window ends.
    {"st_stuck_valid", false,
     {sim::FaultKind::kStuckValid, "b:0", 0, 5, 15}, 0.0, 0.0, 0.0, "MTE101"},
    // The full buffer's stalled output valid is yanked mid-handshake.
    {"st_drop_valid", false,
     {sim::FaultKind::kDropValid, "b:0", 0, 50, 60}, 1.0, 0.0, 0.0, "MTE101"},
    // The empty buffer's persistent in-ready is forced low with no accept.
    {"st_drop_ready", false,
     {sim::FaultKind::kDropReady, "src:0", 0, 10, 20}, 0.0, 0.0, 0.0, "MTE103"},
    // The stalled data word is XORed with a seeded mask (the rate-1 source
    // holds the same pending token, so the word must not move).
    {"st_corrupt", false,
     {sim::FaultKind::kCorruptData, "src:0", 0, 50, 51}, 1.0, 0.0, 0.0, "MTE102"},
    // A phantom token out of the EMPTY buffer: the sink is ready, the
    // replayed output valid fires a transfer the occupancy never backed
    // (MTE105 token conservation, one hook later).
    {"st_duplicate", false,
     {sim::FaultKind::kDuplicate, "b:0", 0, 5, 15}, 0.0, 0.0, 1.0, "MTE105"},
    // Same phantom-token shape on the multithreaded buffer.
    {"mt_stuck_valid", true,
     {sim::FaultKind::kStuckValid, "b:0", 1, 10, 12}, 0.0, 0.0, 1.0, "MTE105"},
    // The inverse: the MEB pops on its internal grant while the blinded
    // sink never accepts — the token vanishes in flight (occupancy drops
    // with no observed output transfer).
    {"mt_drop_valid", true,
     {sim::FaultKind::kDropValid, "b:0", 0, 50, 60}, 1.0, 0.0, 1.0, "MTE105"},
    // Per-thread in-ready of the full MEB (private slots) forced low.
    {"mt_drop_ready", true,
     {sim::FaultKind::kDropReady, "src:0", 0, 10, 20}, 0.0, 0.0, 0.0, "MTE103"},
    {"mt_corrupt", true,
     {sim::FaultKind::kCorruptData, "src:0", 0, 50, 51}, 1.0, 0.0, 0.0, "MTE102"},
    // A second thread's valid forced while thread 0 holds a stalled
    // transfer: the single-active-thread invariant (the MEB's own
    // active_thread() check then throws ProtocolError at the edge — the
    // monitor must have recorded MTE104 before that).
    {"mt_duplicate", true,
     {sim::FaultKind::kDuplicate, "src:0", 1, 50, 51}, 1.0, 0.0, 0.0, "MTE104"},
};

void configure_rates(Rig& rig, const FaultCase& fc) {
  if (fc.mt) {
    auto& src = rig.elab->mt_source("src");
    src.set_generator(0, [](std::uint64_t i) { return i + 1; });
    src.set_generator(1, [](std::uint64_t i) { return 0x1000 + i; });
    src.set_rate(0, fc.src0, 11);
    src.set_rate(1, fc.src1, 12);
    auto& snk = rig.elab->mt_sink("snk");
    snk.set_rate(0, fc.snk, 21);
    snk.set_rate(1, fc.snk, 22);
  } else {
    auto& src = rig.elab->source("src");
    src.set_generator([](std::uint64_t i) { return i + 1; });
    src.set_rate(fc.src0, 11);
    rig.elab->sink("snk").set_rate(fc.snk, 21);
  }
}

void run_fault_case(const FaultCase& fc, sim::KernelKind kernel) {
  const Netlist base = chain_netlist();
  const Netlist net =
      fc.mt ? base.to_multithreaded(2, mt::MebKind::kFull) : base;
  Rig rig(net, kernel);
  configure_rates(rig, fc);
  rig.injector.add(fc.fault);
  sim::Simulator& s = rig.sim();
  s.reset();
  for (sim::Cycle c = 0; c < fc.fault.to + 30; ++c) {
    try {
      s.step();
    } catch (const sim::ProtocolError&) {
      // The commit phase's own invariant check (multi-valid) — legal to
      // surface after the monitor has recorded the violation.
      break;
    }
  }
  ASSERT_FALSE(rig.monitor.violations().empty())
      << fc.name << ": injected fault escaped the monitor ("
      << rig.injector.injected_count() << " wire writes)";
  const sim::ProtocolViolation& v = rig.monitor.violations().front();
  EXPECT_EQ(v.code, fc.expected) << v.format();
  EXPECT_EQ(v.channel, fc.fault.channel) << v.format();
  EXPECT_GT(rig.injector.injected_count(), 0u);
}

TEST(FaultMatrix, EveryFaultClassIsDetectedOnBothKernels) {
  for (const FaultCase& fc : kFaultMatrix) {
    for (const auto kernel :
         {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
      SCOPED_TRACE(std::string(fc.name) + " / " +
                   std::string(sim::to_string(kernel)));
      run_fault_case(fc, kernel);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FaultMatrix, FaultOnMissingThreadThrows) {
  // S = 2: thread 5 does not exist. Redirecting the write to thread 0
  // would fault a thread the plan never named.
  const Netlist net = chain_netlist().to_multithreaded(2, mt::MebKind::kFull);
  Rig rig(net, sim::KernelKind::kEventDriven);
  rig.injector.add({sim::FaultKind::kDropReady, "b:0", 5, 0, 10});
  rig.sim().reset();
  try {
    rig.sim().step();
    FAIL() << "a fault on a missing thread was applied";
  } catch (const sim::SimulationError& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("'b:0'"), std::string::npos) << what;
    EXPECT_NE(what.find("thread 5"), std::string::npos) << what;
    EXPECT_NE(what.find("2 thread(s)"), std::string::npos) << what;
  }
  EXPECT_EQ(rig.injector.injected_count(), 0u);

  // A single-thread channel has one handshake pair and ignores the index.
  Rig st(chain_netlist(), sim::KernelKind::kEventDriven);
  st.injector.add({sim::FaultKind::kDropReady, "b:0", 5, 0, 10});
  st.sim().reset();
  EXPECT_NO_THROW(st.sim().step());
  EXPECT_EQ(st.injector.injected_count(), 1u);
}

TEST(ProtocolMonitor, SilentOnHealthyTraffic) {
  for (const bool mt : {false, true}) {
    for (const auto kernel :
         {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
      SCOPED_TRACE(std::string(mt ? "mt" : "st") + " / " +
                   std::string(sim::to_string(kernel)));
      const Netlist base = chain_netlist();
      const Netlist net =
          mt ? base.to_multithreaded(2, mt::MebKind::kFull) : base;
      Rig rig(net, kernel);
      if (mt) {
        auto& src = rig.elab->mt_source("src");
        auto& snk = rig.elab->mt_sink("snk");
        for (std::size_t t = 0; t < 2; ++t) {
          src.set_generator(t, [t](std::uint64_t i) { return (t << 24) + i; });
          src.set_rate(t, 0.7, 31 + t);
          snk.set_rate(t, 0.9, 41 + t);
        }
      } else {
        auto& src = rig.elab->source("src");
        src.set_generator([](std::uint64_t i) { return i; });
        src.set_rate(0.7, 31);
        rig.elab->sink("snk").set_rate(0.9, 41);
      }
      rig.sim().reset();
      rig.sim().run(300);
      EXPECT_TRUE(rig.monitor.violations().empty()) << rig.monitor.report();
      EXPECT_GT(rig.monitor.transfer_count(), 0u);
      EXPECT_EQ(rig.monitor.watched_channels(), 2u);
    }
  }
}

struct RunCounters {
  std::uint64_t evals = 0;
  std::uint64_t ticks = 0;
  std::uint64_t elided = 0;
  std::uint64_t transfers = 0;
};

RunCounters counted_run(sim::KernelKind kernel, bool monitored) {
  const Netlist net = chain_netlist();
  Rig rig(net, kernel, /*attach=*/monitored);
  auto& src = rig.elab->source("src");
  src.set_generator([](std::uint64_t i) { return i; });
  src.set_rate(0.7, 31);
  rig.elab->sink("snk").set_rate(0.9, 41);
  rig.sim().reset();
  rig.sim().run(300);
  RunCounters rc;
  rc.evals = rig.sim().eval_count();
  rc.ticks = rig.sim().tick_count();
  rc.elided = rig.sim().elided_tick_count();
  rc.transfers = rig.elab->probe("src:0").count();
  return rc;
}

TEST(ProtocolMonitor, AttachedMonitorAddsZeroEvalsAndTicks) {
  // The monitor only reads settled wires outside the eval phase, so the
  // kernels' work counters — and the simulated behaviour — must be
  // bit-identical with and without it.
  for (const auto kernel :
       {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    SCOPED_TRACE(sim::to_string(kernel));
    const RunCounters bare = counted_run(kernel, false);
    const RunCounters monitored = counted_run(kernel, true);
    EXPECT_EQ(bare.evals, monitored.evals);
    EXPECT_EQ(bare.ticks, monitored.ticks);
    EXPECT_EQ(bare.elided, monitored.elided);
    EXPECT_EQ(bare.transfers, monitored.transfers);
  }
}

TEST(Watchdog, StallThatResumesDoesNotFire) {
  // The sink sleeps for its first 100 cycles: the buffer fills in ~2
  // transfers, then the pipeline is idle for ~98 cycles — under a
  // 150-cycle deadline the watchdog must stay quiet and see the wake.
  const Netlist net = chain_netlist();
  Rig rig(net, sim::KernelKind::kEventDriven);
  auto& src = rig.elab->source("src");
  src.set_generator([](std::uint64_t i) { return i; });
  src.set_rate(1.0, 11);
  auto& snk = rig.elab->sink("snk");
  snk.set_rate(1.0, 21);
  snk.add_stall_window(0, 100);
  rig.sim().set_watchdog(150);
  rig.sim().reset();
  ASSERT_NO_THROW(rig.sim().run(400));
  EXPECT_GT(rig.monitor.transfer_count(), 100u) << "pipeline never woke up";
}

TEST(Watchdog, FiresOnSustainedStall) {
  // Same circuit, deadline shorter than the sleep: the watchdog must trip
  // during the stall with a diagnosis naming the waiting edge.
  const Netlist net = chain_netlist();
  Rig rig(net, sim::KernelKind::kEventDriven);
  auto& src = rig.elab->source("src");
  src.set_generator([](std::uint64_t i) { return i; });
  src.set_rate(1.0, 11);
  auto& snk = rig.elab->sink("snk");
  snk.set_rate(1.0, 21);
  snk.add_stall_window(0, 100);
  rig.sim().set_watchdog(50);
  rig.sim().reset();
  try {
    rig.sim().run(400);
    FAIL() << "watchdog never fired";
  } catch (const sim::WatchdogError& ex) {
    EXPECT_NE(std::string(ex.what()).find("MTE110"), std::string::npos)
        << ex.what();
    EXPECT_NE(ex.diagnosis().find("waits for"), std::string::npos)
        << ex.diagnosis();
  }
  EXPECT_LT(rig.sim().now(), 100u) << "fired after the stall ended";
}

TEST(Watchdog, ArmedWithoutMonitorRefusesToRun) {
  const Netlist net = chain_netlist();
  Rig rig(net, sim::KernelKind::kEventDriven, /*attach=*/false);
  rig.sim().set_watchdog(10);
  rig.sim().reset();
  EXPECT_THROW(rig.sim().step(), sim::SimulationError);
}

TEST(Watchdog, DeadlockBundleNamesCycleAndRoundTrips) {
  const Netlist net = join_cycle_netlist();
  const std::string dir = ::testing::TempDir() + "mte_postmortem_roundtrip";
  std::filesystem::remove_all(dir);

  Rig rig(net, sim::KernelKind::kEventDriven);
  rig.elab->source("src").set_generator([](std::uint64_t i) { return i; });
  rig.sim().set_watchdog(40, dir);
  rig.sim().reset();
  std::string diagnosis;
  try {
    rig.sim().run(200);
    FAIL() << "structural deadlock did not trip the watchdog";
  } catch (const sim::WatchdogError& ex) {
    diagnosis = ex.diagnosis();
  }
  // The wait-for graph must name the cyclic dependency through the join.
  EXPECT_NE(diagnosis.find("wait-for cycle"), std::string::npos) << diagnosis;
  EXPECT_NE(diagnosis.find("'j'"), std::string::npos) << diagnosis;

  const std::string prefix =
      dir + "/postmortem_c" + std::to_string(rig.sim().now());
  ASSERT_TRUE(std::filesystem::exists(prefix + ".snap")) << prefix;
  EXPECT_TRUE(std::filesystem::exists(prefix + ".trace.json"));
  EXPECT_TRUE(std::filesystem::exists(prefix + ".diagnosis.txt"));

  // Round trip: restoring the bundle's snapshot into a FRESH elaboration
  // (on the other kernel — snapshots are kernel-portable) reproduces the
  // stall, and the watchdog fires again with the same cyclic diagnosis.
  Rig fresh(net, sim::KernelKind::kNaive);
  fresh.elab->source("src").set_generator([](std::uint64_t i) { return i; });
  std::ifstream snap(prefix + ".snap", std::ios::binary);
  ASSERT_TRUE(snap.is_open());
  fresh.sim().restore(snap);
  fresh.sim().set_watchdog(40);
  try {
    fresh.sim().run(100);
    FAIL() << "restored stall did not reproduce";
  } catch (const sim::WatchdogError& ex) {
    EXPECT_NE(ex.diagnosis().find("'j'"), std::string::npos) << ex.diagnosis();
  }
}

TEST(Watchdog, ErrorNamesOnlyTheBundleFilesWritten) {
  // A bundle file that cannot be written (here the trace path is a
  // directory) must not be named in the error: the message lists what is
  // actually on disk. The first run finds the cycle the watchdog fires at.
  const Netlist net = join_cycle_netlist();
  const std::string dir = ::testing::TempDir() + "mte_postmortem_partial";
  std::filesystem::remove_all(dir);
  std::string prefix;
  std::string message;
  for (int run = 0; run < 2; ++run) {
    Rig rig(net, sim::KernelKind::kEventDriven);
    rig.elab->source("src").set_generator([](std::uint64_t i) { return i; });
    rig.sim().set_watchdog(40, dir);
    rig.sim().reset();
    try {
      rig.sim().run(200);
      FAIL() << "structural deadlock did not trip the watchdog";
    } catch (const sim::WatchdogError& ex) {
      message = ex.what();
    }
    prefix = dir + "/postmortem_c" + std::to_string(rig.sim().now());
    if (run == 0) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(prefix + ".trace.json");
    }
  }
  EXPECT_NE(message.find("post-mortem bundle: " + prefix + ".{snap,diagnosis.txt}\n"),
            std::string::npos)
      << message;
  EXPECT_TRUE(std::filesystem::exists(prefix + ".snap"));
  EXPECT_TRUE(std::filesystem::exists(prefix + ".diagnosis.txt"));
}

TEST(Watchdog, DiagnosisSurvivesLongStalledChain) {
  // source -> 5x10^4-node function chain -> sink that never readies: every
  // channel is backpressured, so the wait-for search walks one path the
  // length of the chain. A recursive walk overflows the default stack
  // here.
  constexpr std::size_t kNodes = 50000;
  Netlist net;
  std::size_t prev = net.add(Node::source("src"));
  for (std::size_t i = 0; i + 2 < kNodes; ++i) {
    const std::string id = std::to_string(i);
    const std::size_t f = net.add(Node::function("f" + id, "id"));
    net.connect(prev, 0, f, 0);
    prev = f;
  }
  net.connect(prev, 0, net.add(Node::sink("snk", 0.0)), 0);

  Rig rig(net, sim::KernelKind::kNaive);
  rig.elab->source("src").set_generator([](std::uint64_t i) { return i; });
  rig.sim().set_watchdog(5);
  rig.sim().reset();
  try {
    rig.sim().run(20);
    FAIL() << "a chain stalled at the sink did not trip the watchdog";
  } catch (const sim::WatchdogError& ex) {
    const std::string& diagnosis = ex.diagnosis();
    EXPECT_NE(diagnosis.find("no wait-for cycle"), std::string::npos)
        << diagnosis.substr(0, 2000);
    // 49,999 backpressured channels: 16 listed, the rest counted.
    EXPECT_NE(diagnosis.find("  (+49983 more)\n"), std::string::npos)
        << diagnosis.substr(0, 2000);
  }
}

}  // namespace
