// Observability contracts against a live simulator: snapshot determinism
// across kernels and runs, zero observer effect, probe metrics under
// save/restore, profiler attachment and reset, trace attachment.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "netlist/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_session.hpp"

namespace mte::obs {
namespace {

netlist::Netlist fig1_pipeline() {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >>
      b.buffer("b1") >> b.sink("out");
  return b.build();
}

std::unique_ptr<netlist::Elaboration> elaborate(const netlist::Netlist& net,
                                                sim::KernelKind kernel) {
  netlist::ElaborationOptions opt;
  opt.channel_probes = true;
  opt.kernel = kernel;
  auto e = std::make_unique<netlist::Elaboration>(
      net, netlist::FunctionRegistry::with_defaults(),
      netlist::ComponentFactory::defaults(), opt);
  e->source("src").set_generator([](std::uint64_t i) { return i; });
  e->source("src").set_rate(0.8, 7);
  e->sink("out").set_rate(0.6, 11);
  e->simulator().reset();
  return e;
}

TEST(ObsIntegration, SemanticSnapshotIsByteIdenticalAcrossKernels) {
  // The kSemantic category is the cross-kernel contract: lockstep
  // circuits agree on cycles and probe statistics no matter which settle
  // kernel ran. Kernel-category rows (evals, ticks) legitimately differ.
  const netlist::Netlist net = fig1_pipeline();
  auto naive = elaborate(net, sim::KernelKind::kNaive);
  auto event = elaborate(net, sim::KernelKind::kEventDriven);
  naive->simulator().run(500);
  event->simulator().run(500);
  EXPECT_EQ(naive->simulator().metrics().snapshot(kSemanticOnly).to_csv(),
            event->simulator().metrics().snapshot(kSemanticOnly).to_csv());
}

TEST(ObsIntegration, StableSnapshotIsByteIdenticalAcrossRuns) {
  // The default mask (semantic + kernel) must render byte-identically for
  // two runs of the same circuit at the same seed — wall-clock rows are
  // excluded by construction.
  const netlist::Netlist net = fig1_pipeline();
  auto a = elaborate(net, sim::KernelKind::kEventDriven);
  auto b = elaborate(net, sim::KernelKind::kEventDriven);
  a->simulator().run(500);
  b->simulator().run(500);
  const std::string csv = a->simulator().metrics().snapshot().to_csv();
  EXPECT_EQ(csv, b->simulator().metrics().snapshot().to_csv());
  EXPECT_NE(csv.find("sim.settle_work"), std::string::npos);
  EXPECT_EQ(csv.find(",timing,"), std::string::npos);  // no wall-clock rows
}

TEST(ObsIntegration, RegistryHasNoObserverEffect) {
  // Pull model: a run that takes snapshots and a run with the registry
  // disabled must do bit-identical simulation work.
  const netlist::Netlist net = fig1_pipeline();
  auto observed = elaborate(net, sim::KernelKind::kEventDriven);
  auto dark = elaborate(net, sim::KernelKind::kEventDriven);
  dark->simulator().metrics().set_enabled(false);
  for (int burst = 0; burst < 5; ++burst) {
    observed->simulator().run(100);
    dark->simulator().run(100);
    (void)observed->simulator().metrics().snapshot();  // mid-run pulls
  }
  EXPECT_EQ(observed->simulator().settle_work(), dark->simulator().settle_work());
  EXPECT_EQ(observed->simulator().eval_count(), dark->simulator().eval_count());
  EXPECT_EQ(observed->simulator().tick_count(), dark->simulator().tick_count());
  EXPECT_TRUE(dark->simulator().metrics().snapshot().rows().empty());
}

TEST(ObsIntegration, ChannelMetricsMatchProbeAccessors) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  e->simulator().run(300);
  const MetricsSnapshot snap = e->simulator().metrics().snapshot();
  const auto names = e->channel_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    const auto& probe = e->probe(name);
    EXPECT_EQ(snap.count("channel." + name + ".transfers"), probe.count());
    EXPECT_EQ(snap.value("channel." + name + ".throughput"), probe.throughput());
    EXPECT_EQ(snap.value("channel." + name + ".mean_wait"), probe.mean_wait());
  }
}

TEST(ObsIntegration, SemanticMetricsSurviveSaveRestore) {
  // Probe statistics are registered component state: a restored run's
  // semantic snapshot must equal the original's at the same cycle.
  // Kernel-category counters deliberately do NOT survive (diagnostics
  // restart at zero, covering only the replayed region).
  const netlist::Netlist net = fig1_pipeline();
  auto cold = elaborate(net, sim::KernelKind::kEventDriven);
  cold->simulator().run(100);
  std::ostringstream saved;
  cold->simulator().save(saved);
  cold->simulator().run(200);
  const std::string cold_csv =
      cold->simulator().metrics().snapshot(kSemanticOnly).to_csv();

  auto warm = elaborate(net, sim::KernelKind::kEventDriven);
  std::istringstream is(saved.str());
  warm->simulator().restore(is);
  warm->simulator().run(200);
  EXPECT_EQ(warm->simulator().now(), cold->simulator().now());
  EXPECT_EQ(warm->simulator().metrics().snapshot(kSemanticOnly).to_csv(),
            cold_csv);
}

TEST(ObsIntegration, RestoreResetsAttachedProfiler) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  PhaseProfiler prof;
  e->simulator().set_profiler(&prof);
  e->simulator().run(50);
  std::ostringstream saved;
  e->simulator().save(saved);
  e->simulator().run(50);
  EXPECT_GT(prof.sample_count(), 0u);

  // Profiler state is scratch: restore() resets it so post-restore
  // reports cover only the replayed region.
  std::istringstream is(saved.str());
  e->simulator().restore(is);
  EXPECT_EQ(prof.sample_count(), 0u);
  e->simulator().set_profiler(nullptr);
}

TEST(ObsIntegration, ProfilerCountsAreExactAndRanked) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  PhaseProfiler prof;
  e->simulator().set_profiler(&prof);
  e->simulator().run(200);
  const ProfileReport report = prof.report(e->simulator().components());
  e->simulator().set_profiler(nullptr);

  ASSERT_FALSE(report.rows().empty());
  std::uint64_t instances = 0;
  std::uint64_t evals = 0;
  for (const auto& row : report.rows()) {
    instances += row.instances;
    evals += row.evals;
  }
  EXPECT_EQ(instances, e->simulator().component_count());
  // Call counts are exact (read off the components), not sampled.
  std::uint64_t expected_evals = 0;
  for (const auto* c : e->simulator().components()) {
    expected_evals += c->kernel_eval_calls();
  }
  EXPECT_EQ(evals, expected_evals);
  // Ranked most-expensive-first: sampled seconds desc, then exact evals,
  // then name — the deterministic order the report contract promises.
  for (std::size_t i = 1; i < report.rows().size(); ++i) {
    const auto& a = report.rows()[i - 1];
    const auto& b = report.rows()[i];
    const bool ordered =
        a.settle_seconds + a.commit_seconds > b.settle_seconds + b.commit_seconds ||
        (a.settle_seconds + a.commit_seconds == b.settle_seconds + b.commit_seconds &&
         (a.evals > b.evals || (a.evals == b.evals && a.type <= b.type)));
    EXPECT_TRUE(ordered) << a.type << " before " << b.type;
  }
  // The attached profiler also publishes through the simulator's registry.
  const MetricsSnapshot snap = e->simulator().metrics().snapshot();
  e->simulator().set_profiler(&prof);
  const MetricsSnapshot with_prof = e->simulator().metrics().snapshot();
  e->simulator().set_profiler(nullptr);
  const auto has_profile_rows = [](const MetricsSnapshot& s) {
    for (const auto& row : s.rows()) {
      if (row.name.rfind("profile.", 0) == 0) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_profile_rows(snap));
  EXPECT_TRUE(has_profile_rows(with_prof));
}

TEST(ObsIntegration, TraceSessionRecordsEveryCycleWhenAttached) {
  const netlist::Netlist net = fig1_pipeline();
  auto e = elaborate(net, sim::KernelKind::kEventDriven);
  TraceSession trace;
  e->simulator().set_trace(&trace);
  e->simulator().run(50);
  const MetricsSnapshot snap = e->simulator().metrics().snapshot();
  e->simulator().set_trace(nullptr);
  EXPECT_GE(trace.event_count(), 3u * 50u);  // >= 3 events per cycle
  EXPECT_EQ(trace.dropped_events(), 0u);
  EXPECT_EQ(snap.count("trace.events"), trace.event_count());
}

}  // namespace
}  // namespace mte::obs
