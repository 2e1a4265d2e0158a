#include <gtest/gtest.h>

#include "analysis/analyze.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/text_format.hpp"

namespace mte::netlist {
namespace {

const char* kPipelineEnl = R"(
# a 2-stage squaring pipeline
source in rate=1.0
buffer b0
function sq square
buffer b1
sink out rate=1.0
connect in:0 -> b0:0
connect b0:0 -> sq:0
connect sq:0 -> b1:0
connect b1:0 -> out:0
)";

TEST(TextFormat, ParsesPipeline) {
  const Netlist n = parse_netlist(kPipelineEnl);
  EXPECT_EQ(n.nodes().size(), 5u);
  EXPECT_EQ(n.edges().size(), 4u);
  EXPECT_EQ(n.threads(), 1u);
  EXPECT_TRUE(analysis::elaboration_errors(n).empty());
}

TEST(TextFormat, ParsedNetlistRuns) {
  Elaboration e(parse_netlist(kPipelineEnl), FunctionRegistry::with_defaults());
  e.source("in").set_tokens({3, 4});
  e.simulator().reset();
  e.simulator().run(20);
  EXPECT_EQ(e.sink("out").received(), (std::vector<Word>{9, 16}));
}

TEST(TextFormat, ThreadsHeaderMakesMultithreaded) {
  const Netlist n = parse_netlist("threads 4 reduced\n" + std::string(kPipelineEnl));
  EXPECT_EQ(n.threads(), 4u);
  EXPECT_EQ(n.meb_kind(), mt::MebKind::kReduced);
}

TEST(TextFormat, RoundTripThroughSerializer) {
  const Netlist original =
      parse_netlist("threads 8 full\n" + std::string(kPipelineEnl));
  const std::string text = serialize_netlist(original);
  const Netlist again = parse_netlist(text);
  EXPECT_EQ(again.threads(), 8u);
  EXPECT_EQ(again.meb_kind(), mt::MebKind::kFull);
  ASSERT_EQ(again.nodes().size(), original.nodes().size());
  ASSERT_EQ(again.edges().size(), original.edges().size());
  for (std::size_t i = 0; i < original.nodes().size(); ++i) {
    EXPECT_EQ(again.nodes()[i].type, original.nodes()[i].type);
    EXPECT_EQ(again.nodes()[i].name, original.nodes()[i].name);
  }
  for (std::size_t i = 0; i < original.edges().size(); ++i) {
    EXPECT_EQ(again.edges()[i].from, original.edges()[i].from);
    EXPECT_EQ(again.edges()[i].to, original.edges()[i].to);
  }
}

TEST(TextFormat, AllNodeKindsRoundTrip) {
  const char* text = R"(
source s rate=0.5
fork f 2
join j 2
merge m 2
branch br even
var_latency v 2 6
function fu inc
buffer b
sink k rate=0.25
connect s:0 -> f:0
connect f:0 -> j:0
connect f:1 -> j:1
connect j:0 -> m:0
connect m:0 -> fu:0
connect fu:0 -> v:0
connect v:0 -> b:0
connect b:0 -> br:0
connect br:0 -> k:0
connect br:1 -> m:1
)";
  const Netlist n = parse_netlist(text);
  const Netlist again = parse_netlist(serialize_netlist(n));
  EXPECT_EQ(again.nodes().size(), 9u);
  EXPECT_EQ(again.edges().size(), 10u);
  EXPECT_EQ(again.node(5).latency_lo, 2u);
  EXPECT_EQ(again.node(5).latency_hi, 6u);
  EXPECT_EQ(again.node(4).fn, "even");
  EXPECT_DOUBLE_EQ(again.node(0).rate, 0.5);
}

TEST(TextFormat, ErrorsCarryLineNumbers) {
  try {
    (void)parse_netlist("source a\nbogus x\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TextFormat, RejectsUnknownNodeInConnect) {
  EXPECT_THROW((void)parse_netlist("source a\nconnect a:0 -> ghost:0\n"), ParseError);
}

TEST(TextFormat, RejectsDuplicateName) {
  EXPECT_THROW((void)parse_netlist("source a\nbuffer a\n"), ParseError);
}

TEST(TextFormat, RejectsBadArity) {
  EXPECT_THROW((void)parse_netlist("fork f 1\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("var_latency v 3 2\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("threads 0\n"), ParseError);
}

TEST(TextFormat, RejectsTrailingGarbageInNumbers) {
  // Numeric tokens must be consumed in full: "2x" parsing as 2 would
  // silently build the wrong circuit.
  EXPECT_THROW((void)parse_netlist("fork f 2x\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("threads 4abc\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("var_latency v 1x 3\n"), ParseError);
}

TEST(TextFormat, RejectsTrailingGarbageInRates) {
  EXPECT_THROW((void)parse_netlist("source s rate=0.5xyz\n"), ParseError);
  EXPECT_THROW((void)parse_netlist("sink s rate=0.5e\n"), ParseError);
}

TEST(TextFormat, RejectsTrailingGarbageInPorts) {
  EXPECT_THROW(
      (void)parse_netlist("source a\nsink b\nconnect a:0 -> b:1x\n"), ParseError);
  EXPECT_THROW(
      (void)parse_netlist("source a\nsink b\nconnect a:0y -> b:0\n"), ParseError);
}

TEST(TextFormat, TrailingGarbageErrorsCarryLineNumbers) {
  try {
    (void)parse_netlist("source a\nfork f 2x\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(TextFormat, ConnectWithoutArrowAccepted) {
  const Netlist n = parse_netlist("source a\nsink b\nconnect a:0 b:0\n");
  EXPECT_EQ(n.edges().size(), 1u);
}

}  // namespace
}  // namespace mte::netlist
