// Observability contracts against a live simulator: snapshot determinism
// across kernels and runs, zero observer effect, probe metrics under
// save/restore, profiler attachment, sampling and reset, trace attachment.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

/// Fig. 5 shape: a 4-thread full-MEB pipeline around a shared function.
netlist::Netlist fig5_pipeline() {
  netlist::CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >>
      b.buffer("b1") >> b.sink("out");
  b.then_multithreaded(4, mt::MebKind::kFull);
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
  if (e->is_multithreaded()) {
    for (std::size_t t = 0; t < e->threads(); ++t) {
      e->mt_source("src").set_generator(t, [t](std::uint64_t i) { return (t << 32) + i; });
      e->mt_source("src").set_rate(t, 0.8, 7 + t);
      e->mt_sink("out").set_rate(t, 0.6, 11 + t);
    }
  } else {
    e->source("src").set_generator([](std::uint64_t i) { return i; });
    e->source("src").set_rate(0.8, 7);
    e->sink("out").set_rate(0.6, 11);
  }
  e->simulator().reset();
  return e;
}

/// Every (circuit, kernel) pair the profiler tests run on.
struct ProfiledCase {
  const char* circuit;
  netlist::Netlist net;
  sim::KernelKind kernel;
};

std::vector<ProfiledCase> profiled_cases() {
  std::vector<ProfiledCase> cases;
  for (const sim::KernelKind kernel : {sim::KernelKind::kNaive, sim::KernelKind::kEventDriven}) {
    cases.push_back({"fig1", fig1_pipeline(), kernel});
    cases.push_back({"fig5", fig5_pipeline(), kernel});
  }
  return cases;
}

std::string case_name(const ProfiledCase& c) {
  return std::string(c.circuit) + " on the " + sim::to_string(c.kernel) + " kernel";
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
  // Pull model: a run that takes snapshots and a twin that never takes
  // one must do bit-identical simulation work.
  const netlist::Netlist net = fig1_pipeline();
  auto observed = elaborate(net, sim::KernelKind::kEventDriven);
  auto dark = elaborate(net, sim::KernelKind::kEventDriven);
  for (int burst = 0; burst < 5; ++burst) {
    observed->simulator().run(100);
    dark->simulator().run(100);
    (void)observed->simulator().metrics().snapshot();  // mid-run pulls
  }
  EXPECT_EQ(observed->simulator().settle_work(), dark->simulator().settle_work());
  EXPECT_EQ(observed->simulator().eval_count(), dark->simulator().eval_count());
  EXPECT_EQ(observed->simulator().tick_count(), dark->simulator().tick_count());
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

TEST(ObsIntegration, ProfilerHasNoObserverEffect) {
  // Timing a dispatch must not change what is dispatched: an unprofiled
  // run and runs profiled at stride 1 and 7 do identical kernel work and
  // reach identical circuit state.
  for (const ProfiledCase& c : profiled_cases()) {
    SCOPED_TRACE(case_name(c));
    auto plain = elaborate(c.net, c.kernel);
    auto every = elaborate(c.net, c.kernel);
    auto strided = elaborate(c.net, c.kernel);
    PhaseProfiler s1(1);
    PhaseProfiler s7(7);
    every->simulator().set_profiler(&s1);
    strided->simulator().set_profiler(&s7);
    for (auto* e : {plain.get(), every.get(), strided.get()}) e->simulator().run(400);
    every->simulator().set_profiler(nullptr);
    strided->simulator().set_profiler(nullptr);
    EXPECT_GT(s1.sample_count(), s7.sample_count());

    const sim::Simulator& ref = plain->simulator();
    for (auto* e : {every.get(), strided.get()}) {
      const sim::Simulator& sim = e->simulator();
      EXPECT_EQ(sim.settle_work(), ref.settle_work());
      EXPECT_EQ(sim.eval_count(), ref.eval_count());
      EXPECT_EQ(sim.tick_count(), ref.tick_count());
      EXPECT_EQ(sim.elided_tick_count(), ref.elided_tick_count());
      ASSERT_EQ(sim.component_count(), ref.component_count());
      for (std::size_t i = 0; i < ref.component_count(); ++i) {
        EXPECT_EQ(sim.components()[i]->kernel_eval_calls(),
                  ref.components()[i]->kernel_eval_calls());
        EXPECT_EQ(sim.components()[i]->kernel_tick_calls(),
                  ref.components()[i]->kernel_tick_calls());
      }
      EXPECT_EQ(sim.metrics().snapshot(kSemanticOnly).to_csv(),
                ref.metrics().snapshot(kSemanticOnly).to_csv());
    }
  }
}

TEST(ObsIntegration, ProfilerSamplesEveryStrideThDispatch) {
  // Every eval and tick dispatch counts towards the stride, and the first
  // one is sampled: D dispatches at stride k give ceil(D / k) samples.
  for (const ProfiledCase& c : profiled_cases()) {
    for (const std::uint32_t stride : {1u, 7u, 64u}) {
      SCOPED_TRACE(case_name(c) + ", stride " + std::to_string(stride));
      auto e = elaborate(c.net, c.kernel);
      sim::Simulator& sim = e->simulator();
      sim.run(50);  // attach mid-run: only dispatches after attaching count
      const std::uint64_t evals0 = sim.eval_count();
      const std::uint64_t ticks0 = sim.tick_count();
      PhaseProfiler prof(stride);
      sim.set_profiler(&prof);
      sim.run(300);
      sim.set_profiler(nullptr);
      const std::uint64_t dispatched =
          (sim.eval_count() - evals0) + (sim.tick_count() - ticks0);
      EXPECT_EQ(prof.sample_count(), (dispatched + stride - 1) / stride);
    }
  }
}

TEST(ObsIntegration, ProfileTypesSumTheirInstances) {
  // A type row's sampled seconds are the sum of its instances' seconds,
  // and instances come back most expensive first.
  for (const ProfiledCase& c : profiled_cases()) {
    SCOPED_TRACE(case_name(c));
    auto e = elaborate(c.net, c.kernel);
    PhaseProfiler prof;
    e->simulator().set_profiler(&prof);
    e->simulator().run(300);
    e->simulator().set_profiler(nullptr);
    const auto& components = e->simulator().components();
    const ProfileReport report = prof.report(components, components.size());
    ASSERT_EQ(report.top_instances().size(), components.size());

    std::map<std::string, const InstanceRow*> by_name;
    for (const InstanceRow& row : report.top_instances()) by_name[row.name] = &row;
    std::map<std::string, std::pair<double, double>> summed;
    for (const sim::Component* comp : components) {
      const InstanceRow& row = *by_name.at(comp->name());
      summed[row.type].first += row.settle_seconds;
      summed[row.type].second += row.commit_seconds;
    }
    ASSERT_EQ(summed.size(), report.rows().size());
    for (const ProfileRow& row : report.rows()) {
      EXPECT_DOUBLE_EQ(row.settle_seconds, summed[row.type].first) << row.type;
      EXPECT_DOUBLE_EQ(row.commit_seconds, summed[row.type].second) << row.type;
    }
    for (std::size_t i = 1; i < report.top_instances().size(); ++i) {
      const InstanceRow& a = report.top_instances()[i - 1];
      const InstanceRow& b = report.top_instances()[i];
      const double at = a.settle_seconds + a.commit_seconds;
      const double bt = b.settle_seconds + b.commit_seconds;
      const bool ordered =
          at > bt || (at == bt && (a.evals > b.evals || (a.evals == b.evals && a.name < b.name)));
      EXPECT_TRUE(ordered) << a.name << " before " << b.name;
    }
  }
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
