// The perf-vs-simulation cross-check: analyze_perf()'s windowed
// throughput bound must be an UPPER bound on what the kernels actually
// measure at every sink — on curated circuits and across the pinned-seed
// fuzz corpus, on both settle kernels — and must be TIGHT (within 1%)
// where the paper predicts full throughput: bubble-free linear pipelines
// and the fig5 full-MEB rows.
//
// This is the contract the DSE screening mode (mte_dse --screen) leans
// on: a point skipped because its bound is dominated could never have
// beaten the dominating measurement, so the Pareto frontier is invariant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "analysis/perf.hpp"
#include "dse/sweep_spec.hpp"
#include "dse/workloads.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/fuzz.hpp"
#include "netlist/netlist.hpp"
#include "netlist/text_format.hpp"

namespace {

using namespace mte;
using netlist::Elaboration;
using netlist::ElaborationOptions;
using netlist::Netlist;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("MTE_FUZZ_SEED"); env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0FFEEu;
}

void arm_sources(const Netlist& net, Elaboration& e) {
  for (const auto& node : net.nodes()) {
    if (node.type != netlist::NodeType::kSource) continue;
    if (e.is_multithreaded()) {
      auto& src = e.mt_source(node.name);
      for (std::size_t t = 0; t < e.threads(); ++t) {
        src.set_generator(t, [t](std::uint64_t i) { return (t << 24) + i; });
      }
    } else {
      e.source(node.name).set_generator([](std::uint64_t i) { return i; });
    }
  }
}

/// Elaborates, runs `cycles`, and checks every sink of `perf` against its
/// windowed bound: probe(channel).count() / cycles <= windowed_bound.
/// Returns the measured throughput of the LAST sink (for tightness
/// assertions on single-sink circuits).
double check_bound(const Netlist& net, const analysis::PerfReport& perf,
                   sim::KernelKind kernel, mt::ArbiterKind arbiter,
                   sim::Cycle cycles) {
  const auto registry = netlist::FunctionRegistry::with_defaults();
  const auto factory = netlist::ComponentFactory::defaults();
  ElaborationOptions opt;
  opt.kernel = kernel;
  opt.arbiter = arbiter;
  auto e = std::make_unique<Elaboration>(net, registry, factory, opt);
  arm_sources(net, *e);
  e->simulator().reset();
  e->simulator().run(cycles);
  double measured = 0.0;
  for (const auto& sink : perf.sinks) {
    if (!sink.reachable) continue;
    measured = static_cast<double>(e->probe(sink.channel).count()) /
               static_cast<double>(cycles);
    const double bound = analysis::windowed_bound(sink, cycles);
    EXPECT_LE(measured, bound + 1e-9)
        << "sink '" << sink.sink << "' (channel " << sink.channel
        << ") measured " << measured << " > static bound " << bound;
  }
  return measured;
}

constexpr sim::KernelKind kKernels[] = {sim::KernelKind::kNaive,
                                        sim::KernelKind::kEventDriven};

TEST(PerfVsSim, BoundHoldsOnFuzzCorpusBothKernels) {
  // The fuzz generator's sources are rate-1 deterministic, so the static
  // bound must cover every sink of every generated netlist exactly.
  const std::uint64_t base = base_seed();
  const int cases = 64;
  const sim::Cycle cycles = 400;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(k);
    SCOPED_TRACE("MTE_FUZZ_SEED=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    bool has_mt_join = false;
    const Netlist net = netlist::random_fuzz_netlist(rng, has_mt_join);
    const mt::ArbiterKind arbiter =
        has_mt_join ? mt::ArbiterKind::kOblivious : mt::ArbiterKind::kRoundRobin;

    analysis::PerfOptions options;
    options.arbiter = arbiter;
    const auto perf = analysis::analyze_perf(net, options);
    ASSERT_TRUE(perf.converged) << "Howard did not converge";
    ASSERT_TRUE(perf.karp_agrees) << "certificate rejected Howard's result";

    for (const auto kernel : kKernels) {
      check_bound(net, perf, kernel, arbiter, cycles);
    }
  }
}

TEST(PerfVsSim, BoundHoldsOnCommittedExamples) {
  // The curated .enl examples shipped with the repo (skipping any that
  // declare sub-unit Bernoulli rates — those are stochastic and the
  // static bound deliberately ignores them, see MTE053).
  const char* files[] = {
      "examples/fig5_pipeline.enl",
      "examples/st_diamond.enl",
      "examples/mt_hybrid_pool.enl",
      "examples/buffered_loop.enl",
  };
  for (const char* file : files) {
    SCOPED_TRACE(file);
    std::ifstream in(std::string(MTE_SOURCE_DIR) + "/" + file);
    ASSERT_TRUE(in.good()) << "cannot open " << file;
    std::ostringstream text;
    text << in.rdbuf();
    const Netlist net = netlist::parse_netlist(text.str());
    bool stochastic = false;
    for (const auto& node : net.nodes()) {
      if (node.rate < 1.0) stochastic = true;
    }
    if (stochastic) continue;
    const auto perf = analysis::analyze_perf(net);
    ASSERT_TRUE(perf.converged && perf.karp_agrees);
    for (const auto kernel : kKernels) {
      check_bound(net, perf, kernel, mt::ArbiterKind::kRoundRobin, 400);
    }
  }
}

TEST(PerfVsSim, TightOnBubbleFreeLinearPipeline) {
  // A single-thread chain of full-capacity buffers never bubbles: after
  // the fill, one token retires per cycle. The windowed bound must sit
  // within 1% of the measurement on both kernels.
  Netlist n;
  const auto src = n.add_source("src");
  const auto b1 = n.add_buffer("b1");
  const auto b2 = n.add_buffer("b2");
  const auto b3 = n.add_buffer("b3");
  const auto snk = n.add_sink("snk");
  n.connect(src, 0, b1, 0);
  n.connect(b1, 0, b2, 0);
  n.connect(b2, 0, b3, 0);
  n.connect(b3, 0, snk, 0);

  const auto perf = analysis::analyze_perf(n);
  ASSERT_TRUE(perf.converged && perf.karp_agrees);
  ASSERT_EQ(perf.sinks.size(), 1u);
  EXPECT_DOUBLE_EQ(perf.sinks[0].theta, 1.0);
  EXPECT_FALSE(perf.bottleneck.has_value());

  const sim::Cycle cycles = 400;
  const double bound = analysis::windowed_bound(perf.sinks[0], cycles);
  for (const auto kernel : kKernels) {
    const double measured =
        check_bound(n, perf, kernel, mt::ArbiterKind::kRoundRobin, cycles);
    EXPECT_GE(measured, bound * 0.99)
        << "bound is not tight on a bubble-free pipeline";
  }
}

TEST(PerfVsSim, TightOnFig5FullRows) {
  // The fig5 workload's full-MEB single-thread rows sustain ~100%
  // throughput; the windowed bound lands exactly on the measured
  // 1998/2000 (fill latency 2). Backpressure rows (the mid-run stall
  // window) may only measure LOWER — the stall is session-side.
  const auto& w = dse::WorkloadSet::builtin().at("fig5");
  ASSERT_TRUE(w.make_netlist != nullptr);
  const sim::Cycle cycles = 2000;

  for (const auto arbiter :
       {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious}) {
    dse::SweepPoint p;
    p.workload = "fig5";
    p.variant = dse::MebVariant::kFull;
    p.threads = 1;
    p.arbiter = arbiter;
    SCOPED_TRACE(mt::to_string(arbiter));

    const dse::StaticModel model = w.make_netlist(p);
    analysis::PerfOptions options;
    options.arbiter = arbiter;
    const auto perf = analysis::analyze_perf(model.net, options);
    ASSERT_TRUE(perf.converged && perf.karp_agrees);
    const analysis::PerfSinkBound* sink = nullptr;
    for (const auto& s : perf.sinks) {
      if (s.sink == model.sink) sink = &s;
    }
    ASSERT_NE(sink, nullptr);
    const double bound = analysis::windowed_bound(*sink, cycles);

    const dse::WorkloadResult r = w.evaluate(p, cycles, 1);
    EXPECT_LE(r.throughput, bound + 1e-9);
    EXPECT_NEAR(r.throughput, bound, 0.01 * bound)
        << "bound is not tight on the fig5 full single-thread row";
  }
}

TEST(PerfVsSim, BoundHoldsAcrossTheDefaultCampaignAxes) {
  // Every netlist point of the default DSE campaign (both workloads, all
  // variants/threads/arbiters) at a reduced cycle budget: measured <=
  // bound everywhere, including the multithreaded and hybrid rows whose
  // caps come from the service-rate model rather than the cycle ratio.
  dse::SweepSpec spec;
  spec.workloads = {"fig1", "fig5"};
  spec.variants = {dse::MebVariant::kFull, dse::MebVariant::kHybrid,
                   dse::MebVariant::kReduced};
  spec.threads = {1, 2, 4};
  spec.shared_slots = {0, 1};
  spec.arbiters = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious};
  spec.cycles = 500;
  const auto points = spec.enumerate();
  ASSERT_FALSE(points.empty());

  for (const auto& p : points) {
    SCOPED_TRACE(p.label());
    const auto& w = dse::WorkloadSet::builtin().at(p.workload);
    ASSERT_TRUE(w.make_netlist != nullptr);
    const dse::StaticModel model = w.make_netlist(p);
    analysis::PerfOptions options;
    options.arbiter = p.arbiter;
    if (p.variant == dse::MebVariant::kHybrid) {
      options.meb_shared_slots = p.shared_slots;
    }
    const auto perf = analysis::analyze_perf(model.net, options);
    ASSERT_TRUE(perf.converged && perf.karp_agrees);
    const analysis::PerfSinkBound* sink = nullptr;
    for (const auto& s : perf.sinks) {
      if (s.sink == model.sink) sink = &s;
    }
    ASSERT_NE(sink, nullptr);
    const double bound = analysis::windowed_bound(*sink, spec.cycles);
    const dse::WorkloadResult r =
        w.evaluate(p, spec.cycles, dse::point_seed(spec.seed, p.index));
    EXPECT_LE(r.throughput, bound + 1e-9)
        << "measured " << r.throughput << " > static bound " << bound;
  }
}

}  // namespace
