// The benchmark's own tests: its generators are deterministic per seed
// (pinned byte digests), ask for the same work at every seed, and emit
// netlists the analyzer passes with zero errors and zero warnings.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <string>

#include "analysis/analyze.hpp"
#include "common.hpp"
#include "generators.hpp"
#include "netlist/text_format.hpp"

namespace perfbench {
namespace {

using mte::netlist::NodeType;

TEST(Generators, PinnedBytesPerSeed) {
  // A change here changes every benchmark input: re-record
  // perfbench/expected_digests.json with it.
  EXPECT_EQ(hex64(fnv1a(tiles_enl(1, TilesShape{}))), "6be39b9f579fddf0");
  EXPECT_EQ(hex64(fnv1a(tiles_enl(7, TilesShape{}))), "c892ce23251572e7");
  EXPECT_EQ(hex64(fnv1a(chain_enl(1, 4000))), "a073fe903e360b60");
}

TEST(Generators, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_EQ(tiles_enl(42, TilesShape{}), tiles_enl(42, TilesShape{}));
  EXPECT_NE(tiles_enl(42, TilesShape{}), tiles_enl(43, TilesShape{}));
  EXPECT_EQ(chain_enl(42, 500), chain_enl(42, 500));
  EXPECT_NE(chain_enl(42, 500), chain_enl(43, 500));
}

TEST(Generators, TilesAskForTheSameWorkAtEverySeed) {
  const TilesShape shape;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto nl = mte::netlist::parse_netlist(tiles_enl(seed, shape));
    ASSERT_EQ(nl.nodes().size(), shape.nodes()) << "seed " << seed;
    std::size_t starved = 0;
    std::size_t backpressured = 0;
    for (const auto& node : nl.nodes()) {
      if (node.type == NodeType::kSource && node.rate < 1.0) ++starved;
      if (node.type == NodeType::kSink && node.rate < 1.0) ++backpressured;
    }
    EXPECT_EQ(starved, shape.tiles / 3) << "seed " << seed;
    EXPECT_EQ(backpressured, shape.tiles / 3) << "seed " << seed;
  }
}

TEST(Generators, LintClean) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const std::string& text : {tiles_enl(seed, TilesShape{}), chain_enl(seed, 4000)}) {
      const auto report = mte::analysis::analyze(mte::netlist::parse_netlist(text));
      EXPECT_EQ(report.error_count(), 0u) << "seed " << seed << '\n' << report.render_text();
      EXPECT_EQ(report.warning_count(), 0u) << "seed " << seed << '\n' << report.render_text();
    }
  }
}

}  // namespace
}  // namespace perfbench
