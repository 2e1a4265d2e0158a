// Golden-file tests for the analyzer's rendered output: each curated
// bad-netlist fixture under tests/analysis/fixtures/ is parsed, analyzed
// and rendered (text and JSON), then compared byte-for-byte against the
// committed golden under tests/analysis/golden/. Regenerate after an
// intentional diagnostic change with:
//
//   MTE_UPDATE_GOLDEN=1 ./mte_tests --gtest_filter='AnalysisFixtures.*'
//
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/analyze.hpp"
#include "mt/arbiter.hpp"
#include "netlist/text_format.hpp"

namespace {

using namespace mte;

struct FixtureCase {
  const char* fixture;      // file under tests/analysis/fixtures/
  const char* golden;       // basename under tests/analysis/golden/
  mt::ArbiterKind arbiter = mt::ArbiterKind::kRoundRobin;
  std::optional<std::size_t> shared_slots{};
  bool perf = false;        // run the MTE05x static throughput pass too
};

// gtest prints the parameter into the listed test name, which CTest uses as
// the test ID. The default byte dump would show the string-literal addresses,
// which change with every run of the binary, so print the fixture file.
void PrintTo(const FixtureCase& c, std::ostream* os) { *os << c.fixture; }

// The golden base name encodes the non-default options (e.g. _oblivious,
// _k6), so one fixture can pin several analysis configurations.
const FixtureCase kCases[] = {
    {"unconnected.enl", "unconnected"},
    {"fanout.enl", "fanout"},
    {"multi_driver.enl", "multi_driver"},
    {"dead_ring.enl", "dead_ring"},
    {"comb_cycle.enl", "comb_cycle"},
    {"mt_reconverge.enl", "mt_reconverge"},
    {"mt_reconverge.enl", "mt_reconverge_oblivious", mt::ArbiterKind::kOblivious},
    {"join_cycle.enl", "join_cycle"},
    {"slack_imbalance.enl", "slack_imbalance"},
    {"mt_spec_feedback.enl", "mt_spec_feedback"},
    {"mt_branch_feedback.enl", "mt_branch_feedback"},
    {"degenerate.enl", "degenerate"},
    {"hybrid_pool.enl", "hybrid_pool_k6", mt::ArbiterKind::kRoundRobin, 6},
    {"hybrid_pool.enl", "hybrid_pool_k0", mt::ArbiterKind::kRoundRobin, 0},
    {"slack_imbalance.enl", "slack_imbalance_perf", mt::ArbiterKind::kRoundRobin,
     std::nullopt, true},
    {"hybrid_pool.enl", "hybrid_pool_k0_perf", mt::ArbiterKind::kRoundRobin, 0,
     true},
    {"mt_reconverge.enl", "mt_reconverge_oblivious_perf",
     mt::ArbiterKind::kOblivious, std::nullopt, true},
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << text;
}

bool update_mode() { return std::getenv("MTE_UPDATE_GOLDEN") != nullptr; }

class AnalysisFixtures : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(AnalysisFixtures, MatchesGolden) {
  const FixtureCase& c = GetParam();
  const std::string fixture_path =
      std::string(MTE_SOURCE_DIR) + "/tests/analysis/fixtures/" + c.fixture;
  const std::string golden_base =
      std::string(MTE_SOURCE_DIR) + "/tests/analysis/golden/" + c.golden;

  const netlist::Netlist net = netlist::parse_netlist(read_file(fixture_path));
  analysis::AnalysisOptions options;
  options.arbiter = c.arbiter;
  options.meb_shared_slots = c.shared_slots;
  options.perf = c.perf;
  const analysis::AnalysisReport report = analysis::analyze(net, options);

  const std::string text = report.render_text();
  const std::string json = report.render_json();
  if (update_mode()) {
    write_file(golden_base + ".txt", text);
    write_file(golden_base + ".json", json);
    GTEST_SKIP() << "golden updated: " << golden_base << ".{txt,json}";
  }
  EXPECT_EQ(text, read_file(golden_base + ".txt")) << "golden: " << golden_base
                                                   << ".txt";
  EXPECT_EQ(json, read_file(golden_base + ".json")) << "golden: " << golden_base
                                                    << ".json";
}

INSTANTIATE_TEST_SUITE_P(All, AnalysisFixtures, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<FixtureCase>& info) {
                           return std::string(info.param.golden);
                         });

// Each error-class fixture carries its intended primary code — a quick
// cross-check that the curation stays honest even if goldens are
// regenerated carelessly.
TEST(AnalysisFixtureIntent, PrimaryCodesPresent) {
  const struct {
    const char* fixture;
    const char* code;
  } intents[] = {
      {"unconnected.enl", "MTE001"},   {"unconnected.enl", "MTE002"},
      {"fanout.enl", "MTE003"},        {"multi_driver.enl", "MTE004"},
      {"dead_ring.enl", "MTE010"},     {"dead_ring.enl", "MTE011"},
      {"comb_cycle.enl", "MTE020"},    {"mt_reconverge.enl", "MTE021"},
      {"mt_spec_feedback.enl", "MTE022"}, {"mt_branch_feedback.enl", "MTE023"},
      {"join_cycle.enl", "MTE030"},    {"slack_imbalance.enl", "MTE031"},
      {"degenerate.enl", "MTE043"},    {"degenerate.enl", "MTE044"},
  };
  for (const auto& intent : intents) {
    const std::string path =
        std::string(MTE_SOURCE_DIR) + "/tests/analysis/fixtures/" + intent.fixture;
    const auto report = analysis::analyze(netlist::parse_netlist(read_file(path)));
    bool found = false;
    for (const auto& d : report.diagnostics()) found |= d.code == intent.code;
    EXPECT_TRUE(found) << intent.fixture << " should raise " << intent.code;
  }
}

}  // namespace
