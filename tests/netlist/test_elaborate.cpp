#include <gtest/gtest.h>

#include "analysis/analyze.hpp"
#include "netlist/elaborate.hpp"

namespace mte::netlist {
namespace {

Netlist square_pipeline() {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto b0 = n.add(Node::buffer("b0"));
  const auto f = n.add(Node::function("sq", "square"));
  const auto b1 = n.add(Node::buffer("b1"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, b0, 0);
  n.connect(b0, 0, f, 0);
  n.connect(f, 0, b1, 0);
  n.connect(b1, 0, snk, 0);
  return n;
}

TEST(Elaborate, SingleThreadPipelineComputes) {
  Elaboration e(square_pipeline(), FunctionRegistry::with_defaults());
  auto& src = e.source("src");
  auto& snk = e.sink("snk");
  src.set_tokens({2, 3, 4, 5});
  e.simulator().reset();
  e.simulator().run(30);
  EXPECT_EQ(snk.received(), (std::vector<Word>{4, 9, 16, 25}));
}

/// src -> fork -> {b0, dbl -> b1} -> join -> snk: the join sums x + 2x.
Netlist fork_join_diamond() {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto fork = n.add(Node::fork("fork", 2));
  const auto fu = n.add(Node::function("dbl", "double"));
  const auto b0 = n.add(Node::buffer("b0"));
  const auto b1 = n.add(Node::buffer("b1"));
  const auto join = n.add(Node::join("join", 2));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, fork, 0);
  n.connect(fork, 0, b0, 0);
  n.connect(fork, 1, fu, 0);
  n.connect(fu, 0, b1, 0);
  n.connect(b0, 0, join, 0);
  n.connect(b1, 0, join, 1);
  n.connect(join, 0, snk, 0);
  return n;
}

/// The ElaborationError message `elaborate` throws; "" when it does not.
template <typename Elaborate>
std::string elaboration_error(Elaborate elaborate) {
  try {
    elaborate();
  } catch (const ElaborationError& err) {
    return err.what();
  }
  return "";
}

TEST(Elaborate, InvalidNetlistRejected) {
  Netlist n;
  n.add(Node::source("src"));
  const std::string dangling = elaboration_error(
      [&n] { (void)Elaboration(n, FunctionRegistry::with_defaults()); });
  EXPECT_NE(dangling.find("[MTE001]"), std::string::npos) << dangling;
  EXPECT_NE(dangling.find("src"), std::string::npos) << dangling;

  // Fork/join reconvergence is a combinational cycle only through the
  // multithreaded primitives under a ready-aware arbiter.
  const Netlist multi = fork_join_diamond().to_multithreaded(2, mt::MebKind::kFull);
  const std::string reconvergent = elaboration_error(
      [&multi] { (void)Elaboration(multi, FunctionRegistry::with_defaults()); });
  EXPECT_NE(reconvergent.find("[MTE021]"), std::string::npos) << reconvergent;
  EXPECT_NE(reconvergent.find("join 'join'"), std::string::npos) << reconvergent;
}

TEST(Elaborate, UnknownFunctionRejected) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto f = n.add(Node::function("f", "no_such_fn"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, f, 0);
  n.connect(f, 0, snk, 0);
  EXPECT_THROW(Elaboration(n, FunctionRegistry::with_defaults()), ElaborationError);
}

TEST(Elaborate, ForkJoinDiamond) {
  const Netlist n = fork_join_diamond();
  ASSERT_TRUE(analysis::elaboration_errors(n).empty());

  Elaboration e(n, FunctionRegistry::with_defaults());
  auto& src_h = e.source("src");
  auto& snk_h = e.sink("snk");
  src_h.set_tokens({1, 2, 3});
  e.simulator().reset();
  e.simulator().run(50);
  // join combiner sums: x + 2x = 3x.
  EXPECT_EQ(snk_h.received(), (std::vector<Word>{3, 6, 9}));
}

TEST(Elaborate, BranchMergeLoopCollatzLikeFlow) {
  // src -> merge -> inc -> buffer -> branch(even): true exits, false loops.
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto m = n.add(Node::merge("m", 2));
  const auto f = n.add(Node::function("inc", "inc"));
  const auto b = n.add(Node::buffer("b"));
  const auto br = n.add(Node::branch("br", "even"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, m, 0);
  n.connect(m, 0, f, 0);
  n.connect(f, 0, b, 0);
  n.connect(b, 0, br, 0);
  n.connect(br, 1, m, 1);  // odd values loop back for another increment
  n.connect(br, 0, snk, 0);
  ASSERT_TRUE(analysis::elaboration_errors(n).empty());

  Elaboration e(n, FunctionRegistry::with_defaults());
  auto& src_h = e.source("src");
  auto& snk_h = e.sink("snk");
  src_h.set_tokens({1, 2, 5, 8});
  e.simulator().reset();
  e.simulator().run(100);
  // Each token is incremented until even: 1->2, 2->...->4? No: 2 is
  // incremented once to 3 (odd, loops) then 4 (even, exits).
  EXPECT_EQ(snk_h.received(), (std::vector<Word>{2, 4, 6, 10}));
}

TEST(Elaborate, MultithreadedPipeline) {
  const Netlist multi =
      square_pipeline().to_multithreaded(4, mt::MebKind::kReduced);
  Elaboration e(multi, FunctionRegistry::with_defaults());
  auto& src = e.mt_source("src");
  auto& snk = e.mt_sink("snk");
  for (std::size_t t = 0; t < 4; ++t) {
    src.set_tokens(t, {t + 2, t + 10});
  }
  e.simulator().reset();
  e.simulator().run(100);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(snk.count(t), 2u) << "thread " << t;
    EXPECT_EQ(snk.received(t)[0], (t + 2) * (t + 2));
    EXPECT_EQ(snk.received(t)[1], (t + 10) * (t + 10));
  }
}

TEST(Elaborate, MultithreadedBranchLoop) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto m = n.add(Node::merge("m", 2));
  const auto f = n.add(Node::function("inc", "inc"));
  const auto b = n.add(Node::buffer("b"));
  const auto br = n.add(Node::branch("br", "even"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, m, 0);
  n.connect(m, 0, f, 0);
  n.connect(f, 0, b, 0);
  n.connect(b, 0, br, 0);
  n.connect(br, 1, m, 1);
  n.connect(br, 0, snk, 0);

  Elaboration e(n.to_multithreaded(2, mt::MebKind::kFull),
                FunctionRegistry::with_defaults());
  auto& src_h = e.mt_source("src");
  auto& snk_h = e.mt_sink("snk");
  src_h.set_tokens(0, {1, 3});
  src_h.set_tokens(1, {2, 4});
  e.simulator().reset();
  e.simulator().run(300);
  EXPECT_EQ(snk_h.received(0), (std::vector<Word>{2, 4}));
  EXPECT_EQ(snk_h.received(1), (std::vector<Word>{4, 6}));
}

TEST(Elaborate, MtVarLatencySharedUnit) {
  // A shared variable-latency unit time-multiplexed by two threads.
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto v = n.add(Node::var_latency("v", 1, 4));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, v, 0);
  n.connect(v, 0, snk, 0);
  const Netlist multi = n.to_multithreaded(2, mt::MebKind::kFull);
  Elaboration e(multi, FunctionRegistry::with_defaults());
  e.mt_source("src").set_tokens(0, {1, 2, 3});
  e.mt_source("src").set_tokens(1, {10, 20, 30});
  e.simulator().reset();
  e.simulator().run(200);
  EXPECT_EQ(e.mt_sink("snk").received(0), (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(e.mt_sink("snk").received(1), (std::vector<Word>{10, 20, 30}));
}

TEST(Elaborate, SingleThreadVarLatencySupported) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto v = n.add(Node::var_latency("v", 1, 4));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, v, 0);
  n.connect(v, 0, snk, 0);
  Elaboration e(n, FunctionRegistry::with_defaults());
  e.source("src").set_tokens({7, 8, 9});
  e.simulator().reset();
  e.simulator().run(100);
  EXPECT_EQ(e.sink("snk").received(), (std::vector<Word>{7, 8, 9}));
}

}  // namespace
}  // namespace mte::netlist
