#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analyze.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"

namespace mte::netlist {
namespace {

using analysis::elaboration_errors;

/// Whether the elaboration check reports `code` on `n`.
bool reports(const Netlist& n, const std::string& code) {
  const auto errors = elaboration_errors(n);
  return std::any_of(errors.begin(), errors.end(),
                     [&code](const analysis::Diagnostic& d) { return d.code == code; });
}

Netlist linear_pipeline() {
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

TEST(Netlist, ValidPipelinePassesValidation) {
  EXPECT_TRUE(elaboration_errors(linear_pipeline()).empty());
}

TEST(Netlist, CountsByType) {
  const Netlist n = linear_pipeline();
  EXPECT_EQ(n.count(NodeType::kBuffer), 2u);
  EXPECT_EQ(n.count(NodeType::kSource), 1u);
  EXPECT_EQ(n.count(NodeType::kFunction), 1u);
}

TEST(Netlist, DetectsUnconnectedPorts) {
  Netlist n;
  n.add(Node::source("src"));
  const auto errors = elaboration_errors(n);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().code, "MTE001");
  EXPECT_EQ(errors.front().component, "src");
  EXPECT_EQ(errors.front().port, "out0");
}

TEST(Netlist, DetectsUndrivenInput) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto j = n.add(Node::join("j", 2));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, j, 0);
  n.connect(j, 0, snk, 0);
  EXPECT_TRUE(reports(n, "MTE002"));
}

TEST(Netlist, DetectsIllegalFanout) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto s0 = n.add(Node::sink("s0"));
  const auto s1 = n.add(Node::sink("s1"));
  n.connect(src, 0, s0, 0);
  n.connect(src, 0, s1, 0);  // fanout without a fork
  EXPECT_TRUE(reports(n, "MTE003"));
}

TEST(Netlist, DetectsBadPortIndex) {
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 3, snk, 0);  // source has only port 0
  EXPECT_TRUE(reports(n, "MTE005"));
}

TEST(Netlist, DetectsBufferlessCycle) {
  // merge -> function -> branch -> (loop back to merge) with no buffer.
  Netlist n;
  const auto src = n.add(Node::source("src"));
  const auto m = n.add(Node::merge("m", 2));
  const auto f = n.add(Node::function("inc", "inc"));
  const auto br = n.add(Node::branch("br", "even"));
  const auto snk = n.add(Node::sink("snk"));
  n.connect(src, 0, m, 0);
  n.connect(m, 0, f, 0);
  n.connect(f, 0, br, 0);
  n.connect(br, 0, m, 1);  // combinational feedback
  n.connect(br, 1, snk, 0);
  EXPECT_TRUE(reports(n, "MTE020"));
}

TEST(Netlist, BufferedCycleIsLegal) {
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
  n.connect(br, 0, m, 1);  // feedback through the buffer
  n.connect(br, 1, snk, 0);
  EXPECT_TRUE(elaboration_errors(n).empty());
}

// A long storage-free chain is legal (acyclic) and must be checked
// iteratively: a recursive cycle search overflows the stack long before
// 2x10^5 nodes.
TEST(Netlist, LongBufferFreeChainPassesValidation) {
  constexpr std::size_t kNodes = 200000;
  Netlist n;
  std::size_t prev = n.add(Node::source("src"));
  for (std::size_t i = 0; i + 2 < kNodes; ++i) {
    const std::string id = std::to_string(i);
    const std::size_t f = n.add(Node::function("f" + id, "id"));
    n.connect(prev, 0, f, 0);
    prev = f;
  }
  n.connect(prev, 0, n.add(Node::sink("snk")), 0);
  ASSERT_EQ(n.nodes().size(), kNodes);
  EXPECT_TRUE(elaboration_errors(n).empty());
  EXPECT_NO_THROW((void)CircuitBuilder::from(n).build());
}

TEST(Netlist, TransformPreservesStructure) {
  const Netlist single = linear_pipeline();
  const Netlist multi = single.to_multithreaded(8, mt::MebKind::kReduced);
  EXPECT_EQ(multi.threads(), 8u);
  EXPECT_EQ(multi.meb_kind(), mt::MebKind::kReduced);
  EXPECT_EQ(multi.nodes().size(), single.nodes().size());
  EXPECT_EQ(multi.edges().size(), single.edges().size());
  EXPECT_TRUE(elaboration_errors(multi).empty());
}

TEST(Netlist, TransformTwiceThrows) {
  const Netlist multi = linear_pipeline().to_multithreaded(4, mt::MebKind::kFull);
  EXPECT_THROW((void)multi.to_multithreaded(8, mt::MebKind::kFull), std::logic_error);
}

TEST(Netlist, DotExportSingleVsMulti) {
  const Netlist single = linear_pipeline();
  const std::string dot1 = single.to_dot();
  EXPECT_NE(dot1.find("digraph"), std::string::npos);
  EXPECT_NE(dot1.find("EB"), std::string::npos);
  EXPECT_EQ(dot1.find("MEB"), std::string::npos);

  const std::string dot2 =
      single.to_multithreaded(4, mt::MebKind::kReduced).to_dot();
  EXPECT_NE(dot2.find("reduced MEB"), std::string::npos);
}

}  // namespace
}  // namespace mte::netlist
