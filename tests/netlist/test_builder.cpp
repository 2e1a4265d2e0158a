#include <gtest/gtest.h>

#include "analysis/analyze.hpp"
#include "mt/barrier.hpp"
#include "netlist/builder.hpp"
#include "netlist/text_format.hpp"

namespace mte::netlist {
namespace {

// The same diamond built both ways — id-based Netlist::add/connect and
// the fluent builder — must produce identical structure.
TEST(Builder, MatchesLegacyNetlistStructure) {
  Netlist by_id;
  const auto src = by_id.add(Node::source("src"));
  const auto fork = by_id.add(Node::fork("fork", 2));
  const auto fu = by_id.add(Node::function("dbl", "double"));
  const auto b0 = by_id.add(Node::buffer("b0"));
  const auto b1 = by_id.add(Node::buffer("b1"));
  const auto join = by_id.add(Node::join("join", 2));
  const auto snk = by_id.add(Node::sink("snk"));
  by_id.connect(src, 0, fork, 0);
  by_id.connect(fork, 0, b0, 0);
  by_id.connect(fork, 1, fu, 0);
  by_id.connect(fu, 0, b1, 0);
  by_id.connect(b0, 0, join, 0);
  by_id.connect(b1, 0, join, 1);
  by_id.connect(join, 0, snk, 0);

  CircuitBuilder b;
  auto bsrc = b.source("src");
  auto bfork = b.fork("fork", 2);
  auto bfu = b.function("dbl", "double");
  auto bb0 = b.buffer("b0");
  auto bb1 = b.buffer("b1");
  auto bjoin = b.join("join", 2);
  auto bsnk = b.sink("snk");
  bsrc >> bfork;
  bfork >> bb0;  // takes output 0
  bfork >> bfu;  // takes output 1
  bfu >> bb1;
  bb0 >> bjoin;  // takes input 0
  bb1 >> bjoin;  // takes input 1
  bjoin >> bsnk;
  const Netlist built = b.build();

  ASSERT_EQ(built.nodes().size(), by_id.nodes().size());
  ASSERT_EQ(built.edges().size(), by_id.edges().size());
  // Same serialized form => same nodes, attributes and connectivity.
  EXPECT_EQ(serialize_netlist(built), serialize_netlist(by_id));
}

TEST(Builder, FluentPipelineSimulates) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >> b.buffer("b1")
      >> b.sink("snk");
  Elaboration e = b.elaborate();
  e.source("src").set_tokens({2, 3, 4, 5});
  e.simulator().reset();
  e.simulator().run(30);
  EXPECT_EQ(e.sink("snk").received(), (std::vector<Word>{4, 9, 16, 25}));
}

TEST(Builder, RateAndLatencyChain) {
  CircuitBuilder b;
  b.source("src").rate(0.5) >> b.var_latency("vl", 1, 1).latency(2, 5)
      >> b.sink("snk").rate(0.9);
  const Netlist n = b.build();
  EXPECT_DOUBLE_EQ(n.node(0).rate, 0.5);
  EXPECT_EQ(n.node(1).latency_lo, 2u);
  EXPECT_EQ(n.node(1).latency_hi, 5u);
  EXPECT_DOUBLE_EQ(n.node(2).rate, 0.9);
}

TEST(Builder, ImmediateValidationErrors) {
  CircuitBuilder b;
  auto src = b.source("src");
  auto snk = b.sink("snk");
  src >> snk;

  EXPECT_THROW(b.source("src"), BuildError);           // duplicate name
  EXPECT_THROW(src >> snk, BuildError);                // double drive
  EXPECT_THROW((void)src.out(1), BuildError);                // no such port
  EXPECT_THROW((void)src.in(0), BuildError);                 // sources have no input
  EXPECT_THROW(b.buffer("b").rate(0.5), BuildError);   // rate on a buffer
  EXPECT_THROW(src.latency(1, 2), BuildError);         // latency on a source
  EXPECT_THROW((void)b.node("missing"), BuildError);         // unknown lookup
  EXPECT_THROW(b.fork("f1", 1), BuildError);           // fork arity < 2

  CircuitBuilder other;
  auto foreign = other.sink("snk2");
  EXPECT_THROW(b.node("b") >> foreign, BuildError);    // cross-builder connect
}

TEST(Builder, BuildValidatesStructure) {
  CircuitBuilder b;
  b.source("src");  // output dangling
  EXPECT_THROW((void)b.build(), BuildError);
}

// A rejected duplicate must leave no phantom node behind: construction
// continues consistently after the caught error.
TEST(Builder, UsableAfterDuplicateNameError) {
  CircuitBuilder b;
  b.source("src");
  EXPECT_THROW(b.buffer("src"), BuildError);
  b.node("src") >> b.buffer("b0") >> b.sink("snk");
  const Netlist n = b.build();
  EXPECT_EQ(n.nodes().size(), 3u);

  Elaboration e = b.elaborate();
  e.source("src").set_tokens({1, 2});
  e.simulator().reset();
  e.simulator().run(20);
  EXPECT_EQ(e.sink("snk").received(), (std::vector<Word>{1, 2}));
}

// Custom nodes are conservatively combinational: a feedback loop whose
// only non-operator element is a custom node is rejected at build().
TEST(Builder, CustomOnlyLoopRejected) {
  CircuitBuilder b;
  auto m = b.merge("m", 2);
  b.source("src") >> m;
  auto br = m >> b.custom("c", "whatever", 1, 1) >> b.branch("br", "even");
  br.when_false() >> m.in(1);
  br.when_true() >> b.sink("snk");
  EXPECT_THROW((void)b.build(), BuildError);
}

// Names are load-bearing for elaboration handles, so duplicate names
// built through the id-based Netlist::add must be rejected before
// elaboration.
TEST(Builder, DuplicateNamesRejectedByElaborationCheck) {
  Netlist n;
  const auto b0 = n.add(Node::buffer("b"));
  const auto b1 = n.add(Node::buffer("b"));
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, b0, 0);
  n.connect(b0, 0, b1, 0);
  n.connect(b1, 0, snk, 0);
  const auto errors = analysis::elaboration_errors(n);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().code, "MTE006");
  EXPECT_EQ(errors.front().component, "b");
  EXPECT_THROW(Elaboration(n, FunctionRegistry::with_defaults()), ElaborationError);
}

// Malformed arities must fail at parse time, not hang validation.
TEST(Builder, ParserRejectsBadPortCounts) {
  EXPECT_THROW((void)parse_netlist("custom x k -1 1\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("custom x k 1 9999999\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("fork f -2\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("join j 4294967295\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("threads x full\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("var_latency v one 3\n"), ParseError);
  CircuitBuilder b;
  EXPECT_THROW(b.custom("c", "k", 1u << 20, 1), BuildError);
}

TEST(Builder, ProbesCanBeDisabled) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.sink("snk");
  ElaborationOptions no_probes;
  no_probes.channel_probes = false;
  Elaboration e = b.elaborate(FunctionRegistry::with_defaults(),
                              ComponentFactory::defaults(), no_probes);
  e.source("src").set_tokens({1, 2});
  e.simulator().reset();
  e.simulator().run(20);
  EXPECT_EQ(e.sink("snk").count(), 2u);
  EXPECT_NO_THROW((void)e.channel("b0"));  // channel lookup still works
  EXPECT_THROW((void)e.probe("b0"), ElaborationError);
  EXPECT_NE(e.stats_report().find("disabled"), std::string::npos);
}

TEST(Builder, BranchMergeLoopWithNamedPorts) {
  CircuitBuilder b;
  auto m = b.merge("entry", 2);
  b.source("src") >> m;
  auto br = m >> b.function("inc", "inc") >> b.buffer("loop") >> b.branch("exit", "even");
  br.when_false() >> m.in(1);
  br.when_true() >> b.sink("snk");

  Elaboration e = b.elaborate();
  e.source("src").set_tokens({1, 2, 5, 8});
  e.simulator().reset();
  e.simulator().run(100);
  EXPECT_EQ(e.sink("snk").received(), (std::vector<Word>{2, 4, 6, 10}));
}

TEST(Builder, EnlRoundTripOfBuilderGraph) {
  CircuitBuilder b;
  auto f = b.source("in").rate(0.75) >> b.fork("f", 2);
  f >> b.buffer("ba") >> b.join("j", 2);
  f >> b.var_latency("vl", 1, 3) >> b.buffer("bb") >> b.node("j");
  b.node("j") >> b.sink("out");
  const Netlist original = b.build();

  const std::string text = serialize_netlist(original);
  const Netlist reparsed = parse_netlist(text);
  EXPECT_EQ(serialize_netlist(reparsed), text);
  EXPECT_EQ(reparsed.nodes().size(), original.nodes().size());
  EXPECT_EQ(reparsed.edges().size(), original.edges().size());
}

TEST(Builder, EnlRoundTripAfterMultithreadedTransform) {
  CircuitBuilder b;
  b.source("in") >> b.buffer("b0") >> b.sink("out");
  const Netlist multi = b.then_multithreaded(4, mt::MebKind::kReduced).build();
  EXPECT_EQ(multi.threads(), 4u);
  EXPECT_EQ(multi.meb_kind(), mt::MebKind::kReduced);

  const std::string text = serialize_netlist(multi);
  const Netlist reparsed = parse_netlist(text);
  EXPECT_EQ(reparsed.threads(), 4u);
  EXPECT_EQ(reparsed.meb_kind(), mt::MebKind::kReduced);
  EXPECT_EQ(serialize_netlist(reparsed), text);
}

TEST(Builder, ThenMultithreadedSimulates) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.function("sq", "square") >> b.buffer("b1")
      >> b.sink("snk");
  Elaboration e = b.then_multithreaded(4, mt::MebKind::kReduced).elaborate();
  ASSERT_EQ(e.threads(), 4u);
  for (std::size_t t = 0; t < 4; ++t) e.mt_source("src").set_tokens(t, {t + 2});
  e.simulator().reset();
  e.simulator().run(60);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(e.mt_sink("snk").count(t), 1u) << "thread " << t;
    EXPECT_EQ(e.mt_sink("snk").received(t)[0], (t + 2) * (t + 2));
  }
}

// The paper's Sec. V shared-server pattern: a var-latency unit inside a
// multithreaded netlist elaborates to one MtVarLatencyUnit serving all
// threads, and every thread's stream comes out intact and in order.
TEST(Builder, MtVarLatencyElaboratesAndSimulates) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("in_buf") >> b.var_latency("server", 1, 4)
      >> b.buffer("out_buf") >> b.sink("snk");
  Elaboration e = b.then_multithreaded(3, mt::MebKind::kFull).elaborate();
  for (std::size_t t = 0; t < 3; ++t) {
    e.mt_source("src").set_tokens(t, {10 * t + 1, 10 * t + 2, 10 * t + 3});
  }
  e.simulator().reset();
  e.simulator().run(400);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(e.mt_sink("snk").received(t),
              (std::vector<Word>{10 * t + 1, 10 * t + 2, 10 * t + 3}))
        << "thread " << t;
  }
}

// The degenerate S == 1 design point still elaborates to MEBs and M-
// operators (the paper's Table I includes S = 1 rows), distinguished from
// a plain single-thread netlist by the explicit transform flag.
TEST(Builder, SingleThreadMultithreadedDesignPoint) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.sink("snk");

  EXPECT_FALSE(b.build().is_multithreaded());

  const Netlist multi = b.then_multithreaded(1, mt::MebKind::kFull).build();
  EXPECT_TRUE(multi.is_multithreaded());
  EXPECT_EQ(multi.threads(), 1u);

  Elaboration e(multi, FunctionRegistry::with_defaults());
  EXPECT_TRUE(e.is_multithreaded());
  EXPECT_EQ(e.meb("b0").kind(), mt::MebKind::kFull);
  e.mt_source("src").set_tokens(0, {7, 8});
  e.simulator().reset();
  e.simulator().run(20);
  EXPECT_EQ(e.mt_sink("snk").received(0), (std::vector<Word>{7, 8}));

  // And it round-trips through .enl with its thread statement intact.
  const std::string text = serialize_netlist(multi);
  EXPECT_NE(text.find("threads 1 full"), std::string::npos);
  const Netlist reparsed = parse_netlist(text);
  EXPECT_TRUE(reparsed.is_multithreaded());
  EXPECT_EQ(serialize_netlist(reparsed), text);
}

TEST(Builder, ProbeStatsMatchSinkCounts) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.sink("snk");
  Elaboration e = b.then_multithreaded(2, mt::MebKind::kFull).elaborate();
  e.mt_source("src").set_tokens(0, {1, 2, 3});
  e.mt_source("src").set_tokens(1, {4, 5});
  e.simulator().reset();
  e.simulator().run(50);

  // Bare node names alias "node:0" for single-output drivers.
  EXPECT_EQ(e.probe("b0").count(), 5u);
  EXPECT_EQ(e.probe("b0:0").count(), 5u);
  EXPECT_EQ(e.probe("b0").count(0), 3u);
  EXPECT_EQ(e.probe("b0").count(1), 2u);
  EXPECT_EQ(e.probe("src").count(), 5u);
  EXPECT_GT(e.throughput("b0"), 0.0);
  EXPECT_EQ(e.channel_names().size(), 2u);
  EXPECT_THROW((void)e.probe("nope"), ElaborationError);
  EXPECT_FALSE(e.stats_report().empty());
}

TEST(Builder, CustomNodeThroughFactoryRegistry) {
  // A custom "barrier" primitive wired through the string-keyed registry:
  // with one thread stalled, no thread passes the barrier; with all
  // streams flowing, every token is released.
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.custom("sync", "barrier", 1, 1)
      >> b.sink("snk");

  mt::Barrier<Word>* barrier = nullptr;
  auto factory = ComponentFactory::with_defaults();
  factory.register_custom_mt("barrier", [&barrier](const MtContext& ctx) {
    barrier = &ctx.sim.make<mt::Barrier<Word>>(ctx.sim, ctx.node.name, ctx.in(0),
                                               ctx.out(0));
  });

  Elaboration e = b.then_multithreaded(2, mt::MebKind::kFull)
                      .elaborate(FunctionRegistry::with_defaults(), factory);
  ASSERT_NE(barrier, nullptr);
  e.mt_source("src").set_tokens(0, {1, 2});
  e.mt_source("src").set_tokens(1, {3, 4});
  e.simulator().reset();
  e.simulator().run(100);
  EXPECT_EQ(e.mt_sink("snk").count(0), 2u);
  EXPECT_EQ(e.mt_sink("snk").count(1), 2u);
  EXPECT_EQ(barrier->releases(), 2u);
}

TEST(Builder, CustomNodeWithoutRegistrationThrows) {
  CircuitBuilder b;
  b.source("src") >> b.custom("mystery", "no_such_kind", 1, 1) >> b.sink("snk");
  EXPECT_THROW((void)b.elaborate(), ElaborationError);
}

TEST(Builder, CustomNodeRoundTripsThroughEnl) {
  CircuitBuilder b;
  b.source("src") >> b.custom("sync", "barrier", 1, 1) >> b.sink("snk");
  const std::string text = serialize_netlist(b.build());
  EXPECT_NE(text.find("custom sync barrier 1 1"), std::string::npos);
  const Netlist reparsed = parse_netlist(text);
  EXPECT_EQ(serialize_netlist(reparsed), text);
}

TEST(Builder, FromImportsAndExtends) {
  const Netlist parsed = parse_netlist(
      "source in rate=1\n"
      "buffer b0\n"
      "connect in:0 -> b0:0\n");
  CircuitBuilder b = CircuitBuilder::from(parsed);
  b.node("b0") >> b.sink("out");
  Elaboration e = b.elaborate();
  e.source("in").set_tokens({5, 6});
  e.simulator().reset();
  e.simulator().run(20);
  EXPECT_EQ(e.sink("out").received(), (std::vector<Word>{5, 6}));
}

TEST(Builder, BufferChain) {
  CircuitBuilder b;
  auto [first, last] = b.buffer_chain("stage", 3);
  b.source("src") >> first;
  last >> b.sink("snk");
  const Netlist n = b.build();
  EXPECT_EQ(n.count(NodeType::kBuffer), 3u);

  Elaboration e = b.elaborate();
  e.source("src").set_tokens({1, 2, 3});
  e.simulator().reset();
  e.simulator().run(30);
  EXPECT_EQ(e.sink("snk").count(), 3u);
}

TEST(Builder, StProbesAndMebHandles) {
  CircuitBuilder b;
  b.source("src") >> b.buffer("b0") >> b.sink("snk");

  // Single-thread: probes work, MEB handles do not exist.
  Elaboration st = b.elaborate();
  st.source("src").set_tokens({1, 2, 3, 4});
  st.simulator().reset();
  st.simulator().run(30);
  EXPECT_EQ(st.probe("b0").count(), 4u);
  EXPECT_EQ(st.probe("b0").threads(), 1u);
  EXPECT_THROW((void)st.meb("b0"), ElaborationError);
  EXPECT_NO_THROW((void)st.channel("b0"));
  EXPECT_THROW((void)st.mt_channel("b0"), ElaborationError);

  // Multithreaded: the buffer's MEB is exposed by node name.
  Elaboration multi = b.then_multithreaded(2, mt::MebKind::kReduced).elaborate();
  multi.mt_source("src").set_tokens(0, {1});
  multi.simulator().reset();
  multi.simulator().run(20);
  EXPECT_EQ(multi.meb("b0").kind(), mt::MebKind::kReduced);
  EXPECT_NO_THROW((void)multi.mt_channel("b0"));
  EXPECT_THROW((void)multi.channel("b0"), ElaborationError);
}

// --- MT fork/join reconvergence diagnosis ----------------------------------

CircuitBuilder reconvergent_diamond() {
  CircuitBuilder b;
  auto f = b.source("src") >> b.fork("f", 2);
  f >> b.buffer("ba") >> b.join("j", 2);
  f >> b.buffer("bb") >> b.node("j");
  b.node("j") >> b.sink("snk");
  return b;
}

TEST(Builder, ReconvergentDiamondBuildsSingleThread) {
  // The hazard is specific to the multithreaded primitives; the same
  // structure is a perfectly good single-thread elastic diamond.
  CircuitBuilder b = reconvergent_diamond();
  EXPECT_NO_THROW((void)b.build());
  EXPECT_TRUE(analysis::elaboration_errors(b.build()).empty());
}

TEST(Builder, ReconvergentDiamondRejectedMultithreaded) {
  CircuitBuilder b = reconvergent_diamond();
  b.then_multithreaded(4, mt::MebKind::kFull);
  try {
    (void)b.build();
    FAIL() << "build() accepted a reconvergent multithreaded fork/join";
  } catch (const BuildError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("[MTE021]"), std::string::npos) << what;
    EXPECT_NE(what.find("fork 'f'"), std::string::npos) << what;
    EXPECT_NE(what.find("join 'j'"), std::string::npos) << what;
    EXPECT_NE(what.find("valid/ready cycle"), std::string::npos) << what;
  }
}

TEST(Builder, ReconvergenceHazardIsStructured) {
  CircuitBuilder b = reconvergent_diamond();
  const Netlist multi =
      b.netlist().to_multithreaded(2, mt::MebKind::kReduced);
  const auto errors = analysis::elaboration_errors(multi);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, "MTE021");
  EXPECT_EQ(errors[0].component, "f");
  EXPECT_NE(errors[0].message.find("join 'j'"), std::string::npos);
  EXPECT_FALSE(errors[0].hint.empty());
  const auto pairs = analysis::reconvergent_pairs(multi);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(multi.node(pairs[0].fork_id).name, "f");
  EXPECT_EQ(multi.node(pairs[0].join_id).name, "j");

  // Elaborating the hazardous netlist directly is refused too.
  EXPECT_THROW(Elaboration(multi, FunctionRegistry::with_defaults()),
               ElaborationError);
}

TEST(Builder, ReconvergenceThroughIntermediateNodesIsDetected) {
  // The reconvergent paths may be arbitrarily deep.
  CircuitBuilder b;
  auto f = b.source("src") >> b.buffer("b0") >> b.fork("f", 2);
  f >> b.buffer("ba") >> b.function("fa", "inc") >> b.buffer("ba2") >> b.join("j", 2);
  f >> b.var_latency("vl", 1, 2) >> b.buffer("bb") >> b.node("j");
  b.node("j") >> b.sink("snk");
  b.then_multithreaded(2, mt::MebKind::kFull);
  EXPECT_THROW((void)b.build(), BuildError);
}

TEST(Builder, ReconvergentDiamondLegalUnderObliviousArbiter) {
  // The hazard is a cycle through *speculative* (ready-aware)
  // arbitration; the oblivious TDM arbiter's grants are independent of
  // ready, so the same structure elaborates, simulates, and moves tokens.
  constexpr std::size_t kThreads = 2;
  CircuitBuilder b = reconvergent_diamond();
  b.then_multithreaded(kThreads, mt::MebKind::kFull);
  ElaborationOptions options;
  options.arbiter = mt::ArbiterKind::kOblivious;
  auto design = b.elaborate(FunctionRegistry::with_defaults(),
                            ComponentFactory::defaults(), options);
  auto& src = design.mt_source("src");
  for (std::size_t t = 0; t < kThreads; ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return t * 100 + i; });
  }
  design.simulator().reset();
  design.simulator().run(300);
  auto& sink = design.mt_sink("snk");
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_GT(sink.count(t), 10u) << "thread " << t << " starved";
  }

  // Direct elaboration of the hazardous netlist follows the same rule.
  const Netlist multi = reconvergent_diamond().netlist().to_multithreaded(
      kThreads, mt::MebKind::kReduced);
  EXPECT_NO_THROW(Elaboration(multi, FunctionRegistry::with_defaults(),
                              ComponentFactory::defaults(), options));
}

TEST(Builder, ObliviousArbitersDoNotLivelockAnMtJoin) {
  // Regression: per-channel pending-dependent rotation let the two
  // arbiters feeding an M-Join fall permanently out of phase (each
  // non-firing cycle rotated both by one, preserving the mismatch), so
  // the join never saw both valids on the same thread again. The TDM
  // barrel is globally phase-locked; tokens must flow on every thread
  // even when one source starts empty.
  constexpr std::size_t kThreads = 4;
  CircuitBuilder b;
  b.source("s0") >> b.buffer("b0") >> b.join("j", 2);
  b.source("s1") >> b.buffer("b1") >> b.node("j");
  b.node("j") >> b.sink("snk");
  b.then_multithreaded(kThreads, mt::MebKind::kFull);
  ElaborationOptions options;
  options.arbiter = mt::ArbiterKind::kOblivious;
  auto design = b.elaborate(FunctionRegistry::with_defaults(),
                            ComponentFactory::defaults(), options);
  auto& s0 = design.mt_source("s0");
  auto& s1 = design.mt_source("s1");
  for (std::size_t t = 0; t < kThreads; ++t) {
    s0.set_generator(t, [](std::uint64_t i) { return i; });
    // One side idles for a long prefix: the phase perturbation that used
    // to wedge the old per-channel rotation.
    s1.set_generator(t, [](std::uint64_t i) { return 2 * i; });
    s1.add_stall_window(t, 0, 40 + 7 * t);
  }
  design.simulator().reset();
  design.simulator().run(600);
  auto& sink = design.mt_sink("snk");
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_GT(sink.count(t), 20u) << "thread " << t << " starved";
  }
}

TEST(Builder, IndependentJoinArmsStayLegalMultithreaded) {
  // A join over arms with no shared fork ancestry is not reconvergent and
  // must keep building (the M-Join itself is a supported primitive).
  CircuitBuilder b;
  b.source("s0") >> b.buffer("b0") >> b.join("j", 2);
  b.source("s1") >> b.buffer("b1") >> b.node("j");
  b.node("j") >> b.sink("snk");
  b.then_multithreaded(2, mt::MebKind::kFull);
  EXPECT_NO_THROW((void)b.build());
  EXPECT_TRUE(analysis::elaboration_errors(b.build()).empty());
}

TEST(Builder, TwoForksTwoJoinsReportEveryHazard) {
  CircuitBuilder b;
  auto f0 = b.source("s0") >> b.fork("f0", 2);
  f0 >> b.buffer("a0") >> b.join("j0", 2);
  f0 >> b.buffer("a1") >> b.node("j0");
  auto f1 = b.node("j0") >> b.buffer("mid") >> b.fork("f1", 2);
  f1 >> b.buffer("c0") >> b.join("j1", 2);
  f1 >> b.buffer("c1") >> b.node("j1");
  b.node("j1") >> b.sink("snk");
  const Netlist multi = b.netlist().to_multithreaded(2, mt::MebKind::kFull);
  const auto errors = analysis::elaboration_errors(multi);
  // f0 reconverges at j0; f0 and f1 both reach j1 (f0 through j0's single
  // output is one path only, so only f1 reconverges there).
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].code, "MTE021");
  EXPECT_EQ(errors[0].component, "f0");
  EXPECT_NE(errors[0].message.find("join 'j0'"), std::string::npos);
  EXPECT_EQ(errors[1].code, "MTE021");
  EXPECT_EQ(errors[1].component, "f1");
  EXPECT_NE(errors[1].message.find("join 'j1'"), std::string::npos);
}

}  // namespace
}  // namespace mte::netlist
