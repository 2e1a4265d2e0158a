// Per-code tests of the static netlist analyzer: each check is driven
// through a minimal programmatic netlist, plus the arbiter/option
// sensitivity that distinguishes the MT protocol checks (MTE021-023)
// from the structural ones. Fixture goldens (test_fixtures.cpp) pin the
// rendered output for the same shapes.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/perf.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"

namespace {

using namespace mte;
using analysis::AnalysisOptions;
using analysis::AnalysisReport;
using analysis::analyze;
using netlist::Netlist;
using netlist::Node;

std::size_t count_code(const AnalysisReport& report, const std::string& code) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

bool has_code(const AnalysisReport& report, const std::string& code) {
  return count_code(report, code) > 0;
}

/// src -> b0 -> snk, the smallest clean pipeline.
Netlist clean_pipeline() {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto b0 = n.add(Node::buffer("b0"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, b0, 0);
  n.connect(b0, 0, snk, 0);
  return n;
}

/// fork -> {arm a with `buffers_a` EBs, arm b with `buffers_b` EBs} -> join.
Netlist diamond(unsigned buffers_a, unsigned buffers_b) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto f = n.add(Node::fork("f", 2));
  const auto j = n.add(Node::join("j", 2));
  const auto bo = n.add(Node::buffer("bo"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, f, 0);
  std::size_t tail = f;
  unsigned tail_port = 0;
  for (unsigned i = 0; i < buffers_a; ++i) {
    const std::string id = std::to_string(i);
    const auto b = n.add(Node::buffer("a" + id));
    n.connect(tail, tail_port, b, 0);
    tail = b;
    tail_port = 0;
  }
  n.connect(tail, tail_port, j, 0);
  tail = f;
  tail_port = 1;
  for (unsigned i = 0; i < buffers_b; ++i) {
    const std::string id = std::to_string(i);
    const auto b = n.add(Node::buffer("b" + id));
    n.connect(tail, tail_port, b, 0);
    tail = b;
    tail_port = 0;
  }
  n.connect(tail, tail_port, j, 1);
  n.connect(j, 0, bo, 0);
  n.connect(bo, 0, snk, 0);
  return n;
}

TEST(Analyze, CleanPipelineHasNoDiagnostics) {
  EXPECT_EQ(analyze(clean_pipeline()).count(), 0u);
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  EXPECT_EQ(analyze(mt).count(), 0u);
}

TEST(Analyze, Mte001UnconnectedOutput) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto b0 = n.add(Node::buffer("b0"));
  n.connect(src, 0, b0, 0);  // b0's output dangles
  const auto report = analyze(n);
  EXPECT_EQ(count_code(report, "MTE001"), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(Analyze, Mte002UndrivenInput) {
  Netlist n;
  const auto b0 = n.add(Node::buffer("b0"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(b0, 0, snk, 0);  // b0's input is undriven
  EXPECT_EQ(count_code(analyze(n), "MTE002"), 1u);
}

TEST(Analyze, Mte003IllegalFanout) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto s0 = n.add(Node::sink("s0"));
  const auto s1 = n.add(Node::sink("s1"));
  n.connect(src, 0, s0, 0);
  n.connect(src, 0, s1, 0);
  const auto report = analyze(n);
  EXPECT_EQ(count_code(report, "MTE003"), 1u);
  EXPECT_EQ(report.diagnostics()[0].component, "src");
}

TEST(Analyze, Mte004MultipleDrivers) {
  Netlist n;
  const auto s0 = n.add(Node::source("s0"));
  const auto s1 = n.add(Node::source("s1"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(s0, 0, snk, 0);
  n.connect(s1, 0, snk, 0);
  EXPECT_EQ(count_code(analyze(n), "MTE004"), 1u);
}

TEST(Analyze, Mte005BadEdgeReference) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 3, snk, 0);  // src has one output port
  EXPECT_GE(count_code(analyze(n), "MTE005"), 1u);

  Netlist m;
  m.add(Node::source("src"));
  m.connect(0, 0, 99, 0);  // node 99 does not exist
  EXPECT_GE(count_code(analyze(m), "MTE005"), 1u);
}

TEST(Analyze, Mte006DuplicateName) {
  Netlist n;
  const auto a = n.add(Node::buffer("dup"));
  const auto b = n.add(Node::buffer("dup"));
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, a, 0);
  n.connect(a, 0, b, 0);
  n.connect(b, 0, snk, 0);
  EXPECT_EQ(count_code(analyze(n), "MTE006"), 1u);
}

TEST(Analyze, Mte010Mte011DeadRing) {
  Netlist n = clean_pipeline();
  const auto d0 = n.add(Node::buffer("d0"));
  const auto d1 = n.add(Node::buffer("d1"));
  n.connect(d0, 0, d1, 0);
  n.connect(d1, 0, d0, 0);
  const auto report = analyze(n);
  EXPECT_EQ(count_code(report, "MTE010"), 2u);  // d0, d1 unreachable
  EXPECT_EQ(count_code(report, "MTE011"), 2u);  // d0, d1 cannot drain
  EXPECT_FALSE(report.has_errors());            // liveness is warning-only
}

TEST(Analyze, Mte020BufferlessLoop) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto m = n.add(Node::merge("m", 2));
  const auto inc = n.add(Node::function("inc", "inc"));
  const auto br = n.add(Node::branch("br", "even"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, m, 0);
  n.connect(m, 0, inc, 0);
  n.connect(inc, 0, br, 0);
  n.connect(br, 0, m, 1);
  n.connect(br, 1, snk, 0);
  EXPECT_EQ(count_code(analyze(n), "MTE020"), 1u);
}

TEST(Analyze, BufferedMergeLoopIsLegal) {
  // The same loop with one EB on the path: storage breaks MTE020, and a
  // merge re-entry (fires on either input) is not a lazy-join deadlock.
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto m = n.add(Node::merge("m", 2));
  const auto b = n.add(Node::buffer("b"));
  const auto br = n.add(Node::branch("br", "even"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, m, 0);
  n.connect(m, 0, b, 0);
  n.connect(b, 0, br, 0);
  n.connect(br, 0, m, 1);
  n.connect(br, 1, snk, 0);
  const auto report = analyze(n);
  EXPECT_FALSE(has_code(report, "MTE020"));
  EXPECT_FALSE(has_code(report, "MTE030"));
  EXPECT_FALSE(report.has_errors());
}

TEST(Analyze, Mte021MtReconvergenceUnderReadyAwareArbiter) {
  const Netlist mt = diamond(1, 1).to_multithreaded(4, mt::MebKind::kFull);
  const auto report = analyze(mt);
  ASSERT_EQ(count_code(report, "MTE021"), 1u);
  const auto errors = report.by_severity(analysis::Severity::kError);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].component, "f");
  EXPECT_NE(errors[0].message.find("join 'j'"), std::string::npos);

  // The oblivious TDM arbiter never reads downstream ready: no cycle.
  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_EQ(analyze(mt, oblivious).count(), 0u);

  // The single-thread diamond has no speculative arbitration at all.
  EXPECT_EQ(analyze(diamond(1, 1)).count(), 0u);
}

TEST(Analyze, Mte022SpeculativeFeedbackWithoutFork) {
  // Two independent MEB arms reconverging on a lazy join: no (fork,
  // join) pair, so MTE021 cannot fire — the signal-graph SCC check
  // catches the same valid/ready coupling as a warning.
  Netlist n;
  const auto s0 = n.add(Node::source("s0"));
  const auto s1 = n.add(Node::source("s1"));
  const auto a = n.add(Node::buffer("a"));
  const auto b = n.add(Node::buffer("b"));
  const auto j = n.add(Node::join("j", 2));
  const auto bo = n.add(Node::buffer("bo"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(s0, 0, a, 0);
  n.connect(s1, 0, b, 0);
  n.connect(a, 0, j, 0);
  n.connect(b, 0, j, 1);
  n.connect(j, 0, bo, 0);
  n.connect(bo, 0, snk, 0);
  const Netlist mt = n.to_multithreaded(2, mt::MebKind::kFull);

  const auto report = analyze(mt);
  EXPECT_FALSE(has_code(report, "MTE021"));
  EXPECT_EQ(count_code(report, "MTE022"), 1u);
  EXPECT_FALSE(report.has_errors());

  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_EQ(analyze(mt, oblivious).count(), 0u);
}

TEST(Analyze, Mte023SingleChannelValidReadyLoop) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto m = n.add(Node::buffer("m"));
  const auto br = n.add(Node::branch("br", "even"));
  const auto s0 = n.add(Node::sink("s0"));
  const auto s1 = n.add(Node::sink("s1"));
  n.connect(src, 0, m, 0);
  n.connect(m, 0, br, 0);
  n.connect(br, 0, s0, 0);
  n.connect(br, 1, s1, 0);
  const Netlist mt = n.to_multithreaded(2, mt::MebKind::kFull);

  const auto report = analyze(mt);
  EXPECT_EQ(count_code(report, "MTE023"), 1u);
  EXPECT_EQ(report.note_count(), 1u);

  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_EQ(analyze(mt, oblivious).count(), 0u);
}

TEST(Analyze, Mte030JoinFeedbackDeadlock) {
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
  const auto report = analyze(n);
  EXPECT_EQ(count_code(report, "MTE030"), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(has_code(report, "MTE020"));  // buffers give the loop storage
}

TEST(Analyze, Mte031SlackImbalance) {
  const auto report = analyze(diamond(3, 0));
  ASSERT_EQ(count_code(report, "MTE031"), 1u);
  EXPECT_FALSE(report.has_errors());

  EXPECT_FALSE(has_code(analyze(diamond(1, 1)), "MTE031"));
  // Difference of one buffer is normal pipelining, not a hazard.
  EXPECT_FALSE(has_code(analyze(diamond(1, 0)), "MTE031"));
}

TEST(Analyze, Mte031AppliesToMtDiamondOnlyWhenNotAlreadyHazardous) {
  const Netlist mt = diamond(3, 0).to_multithreaded(2, mt::MebKind::kFull);
  // Ready-aware: the reconvergence error subsumes the slack warning.
  const auto ready_aware = analyze(mt);
  EXPECT_TRUE(has_code(ready_aware, "MTE021"));
  EXPECT_FALSE(has_code(ready_aware, "MTE031"));
  // Oblivious: the diamond is protocol-safe, so the slack advice shows.
  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  const auto safe = analyze(mt, oblivious);
  EXPECT_FALSE(has_code(safe, "MTE021"));
  EXPECT_TRUE(has_code(safe, "MTE031"));
}

TEST(Analyze, Mte041HybridPoolLargerThanThreadCount) {
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  AnalysisOptions opt;
  opt.meb_shared_slots = 6;
  EXPECT_EQ(count_code(analyze(mt, opt), "MTE041"), 1u);
  opt.meb_shared_slots = 4;
  EXPECT_EQ(analyze(mt, opt).count(), 0u);
}

TEST(Analyze, PerfBoundTreatsPoolLargerThanThreadsAsThreads) {
  // At most S threads hold a pool slot, so any K >= S bounds like K = S,
  // even where S + K and S * (1 + K) would wrap.
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  analysis::PerfOptions at_s;
  at_s.meb_shared_slots = 4;
  analysis::PerfOptions huge;
  huge.meb_shared_slots = std::numeric_limits<std::size_t>::max();
  const analysis::PerfReport want = analysis::analyze_perf(mt, at_s);
  const analysis::PerfReport got = analysis::analyze_perf(mt, huge);
  EXPECT_DOUBLE_EQ(want.aggregate_bound, 1.0);
  EXPECT_DOUBLE_EQ(got.aggregate_bound, want.aggregate_bound);
  EXPECT_EQ(got.per_thread_bounds, want.per_thread_bounds);
}

TEST(Analyze, Mte042HybridPoolOfZeroSlots) {
  const Netlist mt = clean_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  AnalysisOptions opt;
  opt.meb_shared_slots = 0;
  const auto report = analyze(mt, opt);
  EXPECT_EQ(count_code(report, "MTE042"), 1u);
  EXPECT_EQ(report.note_count(), 1u);
}

TEST(Analyze, Mte043SingleThreadMtDesign) {
  const Netlist mt = clean_pipeline().to_multithreaded(1, mt::MebKind::kFull);
  EXPECT_EQ(count_code(analyze(mt), "MTE043"), 1u);
}

TEST(Analyze, Mte044ZeroRateEndpoints) {
  Netlist n;
  const auto src = n.add(Node::source("src", 0.0));
  const auto snk = n.add(Node::sink("snk", 0.0));
  n.connect(src, 0, snk, 0);
  EXPECT_EQ(count_code(analyze(n), "MTE044"), 2u);
}

TEST(Analyze, WiringErrorsGateDeeperChecks) {
  // With a dangling edge reference the graph shape is unreliable: only
  // naming/wiring/capacity codes may appear, never the graph checks.
  Netlist n;
  n.add(Node::source("src"));
  n.connect(0, 0, 99, 0);
  const auto report = analyze(n);
  EXPECT_TRUE(has_code(report, "MTE005"));
  for (const auto& d : report.diagnostics()) {
    EXPECT_TRUE(d.code < "MTE010" || d.code >= "MTE040") << d.code;
  }
}

TEST(Analyze, ElaborationErrorsAreTheAnalyzerSubset) {
  // elaboration_errors() runs the analyzer's own wiring, name, cycle and
  // reconvergence checks: it reports exactly analyze()'s MTE001-006,
  // MTE020 and MTE021 diagnostics, with the arbiter gating MTE021.
  Netlist broken;  // storage-free merge loop plus a dangling source
  const auto src = broken.add(Node::source("src"));
  const auto m = broken.add(Node::merge("m", 2));
  const auto f = broken.add(Node::function("inc", "inc"));
  const auto br = broken.add(Node::branch("br", "even"));
  const auto snk = broken.add(Node::sink("snk"));
  broken.add(Node::source("lone"));
  broken.connect(src, 0, m, 0);
  broken.connect(m, 0, f, 0);
  broken.connect(f, 0, br, 0);
  broken.connect(br, 0, m, 1);
  broken.connect(br, 1, snk, 0);
  const auto render = [](const std::vector<analysis::Diagnostic>& ds) {
    std::vector<std::string> out;
    for (const auto& d : ds) out.push_back(d.code + " " + d.component + " " + d.message);
    return out;
  };
  const std::vector<Netlist> nets = {
      broken, diamond(0, 3), diamond(1, 1).to_multithreaded(4, mt::MebKind::kFull)};
  for (const auto& n : nets) {
    for (const auto arbiter : {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious}) {
      AnalysisOptions options;
      options.arbiter = arbiter;
      const AnalysisReport report = analyze(n, options);
      std::vector<analysis::Diagnostic> expected;
      for (const auto& d : report.diagnostics()) {
        if (d.code <= "MTE006" || d.code == "MTE020" || d.code == "MTE021") {
          expected.push_back(d);
        }
      }
      EXPECT_EQ(render(analysis::elaboration_errors(n, arbiter)), render(expected));
    }
  }
  EXPECT_EQ(analysis::elaboration_errors(broken).size(), 2u);  // MTE001 + MTE020
  EXPECT_EQ(analysis::elaboration_errors(nets[2]).size(), 1u);  // MTE021
  EXPECT_TRUE(analysis::elaboration_errors(nets[2], mt::ArbiterKind::kOblivious).empty());
}

TEST(Analyze, ReconvergentPairsMinimality) {
  // Nested diamonds: only the innermost (fork, join) pair per join is
  // reported, so each MTE021 finding names one divergence point.
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto f0 = n.add(Node::fork("f0", 2));
  const auto f1 = n.add(Node::fork("f1", 2));
  const auto j1 = n.add(Node::join("j1", 2));
  const auto j0 = n.add(Node::join("j0", 2));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, f0, 0);
  n.connect(f0, 0, f1, 0);
  n.connect(f1, 0, j1, 0);
  n.connect(f1, 1, j1, 1);
  n.connect(j1, 0, j0, 0);
  n.connect(f0, 1, j0, 1);
  n.connect(j0, 0, snk, 0);
  const auto pairs = analysis::reconvergent_pairs(n);
  ASSERT_EQ(pairs.size(), 2u);
  // j1 pairs with f1 (not f0, which also reaches both of j1's inputs).
  EXPECT_EQ(n.nodes()[pairs[0].fork_id].name, "f1");
  EXPECT_EQ(n.nodes()[pairs[0].join_id].name, "j1");
  EXPECT_EQ(n.nodes()[pairs[1].fork_id].name, "f0");
  EXPECT_EQ(n.nodes()[pairs[1].join_id].name, "j0");
}

TEST(Analyze, BuilderAnalyzeIsQueryableWithoutThrowing) {
  netlist::CircuitBuilder b;
  auto src = b.source("src");
  auto f = b.fork("f", 2);
  auto ba = b.buffer("ba");
  auto bb = b.buffer("bb");
  auto j = b.join("j", 2);
  auto bo = b.buffer("bo");
  auto snk = b.sink("snk");
  src >> f;
  f >> ba >> j;
  f >> bb >> j;
  j >> bo >> snk;
  b.then_multithreaded(4, mt::MebKind::kFull);

  const auto report = b.analyze();  // never throws on findings
  EXPECT_TRUE(has_code(report, "MTE021"));
  EXPECT_TRUE(report.has_errors());
  EXPECT_THROW((void)b.build(), netlist::BuildError);

  AnalysisOptions oblivious;
  oblivious.arbiter = mt::ArbiterKind::kOblivious;
  EXPECT_FALSE(b.analyze(oblivious).has_errors());
}

TEST(Analyze, BuilderBuildRejectsJoinDeadlockWithCode) {
  netlist::CircuitBuilder b;
  auto src = b.source("src");
  auto j = b.join("j", 2);
  auto b0 = b.buffer("b0");
  auto f = b.fork("f", 2);
  auto snk = b.sink("snk");
  auto b1 = b.buffer("b1");
  src >> j;
  j >> b0 >> f;
  f >> snk;
  f >> b1 >> j;
  try {
    (void)b.build();
    FAIL() << "expected BuildError";
  } catch (const netlist::BuildError& e) {
    EXPECT_NE(std::string(e.what()).find("MTE030"), std::string::npos);
  }
}

}  // namespace
