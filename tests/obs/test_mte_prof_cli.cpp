// End-to-end tests of the mte_prof binary: exit codes, metrics snapshot
// byte-identity across runs at the same seed, trace export, channel
// observation pinned to goldens, and output format selection. Drives the real executable (path injected by CMake
// as MTE_PROF_BIN).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

/// Runs mte_prof with `args`, capturing stdout (stderr passes through).
CliResult run_prof(const std::string& args) {
  const std::string cmd = std::string(MTE_PROF_BIN) + " " + args;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  CliResult r;
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return r;
  }
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string example(const std::string& name) {
  return std::string(MTE_SOURCE_DIR) + "/examples/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(MteProfCli, RunsExampleAndPrintsProfile) {
  const CliResult r = run_prof("--cycles 200 " + example("fig5_pipeline.enl"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("instances"), std::string::npos);  // profile table
  EXPECT_NE(r.output.find("settle_ms"), std::string::npos);
}

TEST(MteProfCli, MetricsSnapshotIsByteIdenticalAcrossRuns) {
  // The acceptance contract: two runs at the same seed produce
  // byte-identical metrics files (the default snapshot excludes every
  // wall-clock row).
  const std::string a_path = ::testing::TempDir() + "mte_prof_a.json";
  const std::string b_path = ::testing::TempDir() + "mte_prof_b.json";
  const std::string cmd = "--cycles 300 --seed 7 --quiet --metrics ";
  EXPECT_EQ(run_prof(cmd + a_path + " " + example("fig5_pipeline.enl")).exit_code, 0);
  EXPECT_EQ(run_prof(cmd + b_path + " " + example("fig5_pipeline.enl")).exit_code, 0);
  const std::string a = slurp(a_path);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(b_path));
  EXPECT_NE(a.find("sim.settle_work"), std::string::npos);
  EXPECT_NE(a.find("channel."), std::string::npos);
  EXPECT_EQ(a.find("settle_seconds"), std::string::npos);  // timing excluded
}

TEST(MteProfCli, MetricsCsvSuffixSelectsCsv) {
  const std::string path = ::testing::TempDir() + "mte_prof_m.csv";
  const CliResult r = run_prof("--cycles 100 --quiet --metrics " + path + " " +
                               example("st_diamond.enl"));
  EXPECT_EQ(r.exit_code, 0);
  const std::string csv = slurp(path);
  EXPECT_EQ(csv.rfind("name,category,value\n", 0), 0u);
}

TEST(MteProfCli, TraceExportIsPerfettoShaped) {
  const std::string path = ::testing::TempDir() + "mte_prof_t.json";
  const CliResult r = run_prof("--cycles 100 --quiet --trace " + path + " " +
                               example("fig5_pipeline.enl"));
  EXPECT_EQ(r.exit_code, 0);
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"us_per_cycle\":1000"), std::string::npos);
}

TEST(MteProfCli, TraceIsByteIdenticalAcrossRuns) {
  const std::string a_path = ::testing::TempDir() + "mte_prof_ta.json";
  const std::string b_path = ::testing::TempDir() + "mte_prof_tb.json";
  const std::string tail = " --seed 3 --quiet " + example("fig5_pipeline.enl");
  EXPECT_EQ(run_prof("--cycles 150 --trace " + a_path + tail).exit_code, 0);
  EXPECT_EQ(run_prof("--cycles 150 --trace " + b_path + tail).exit_code, 0);
  const std::string a = slurp(a_path);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(b_path));
}

/// The transfer-track instants ("tid":3, "ph":"i") of a trace, one per
/// line in file order. The phase spans are left out: their eval and tick
/// counts legitimately move with kernel performance work.
std::string transfer_instants(const std::string& json) {
  const std::string prefix = "{\"ph\":\"i\",\"pid\":1,\"tid\":3,";
  std::string out;
  for (std::size_t at = json.find(prefix); at != std::string::npos;
       at = json.find(prefix, at + 1)) {
    const std::size_t end = json.find("}}", at);
    if (end == std::string::npos) break;
    out.append(json, at, end + 2 - at);
    out += '\n';
  }
  return out;
}

TEST(MteProfCli, ChannelObservationMatchesGoldens) {
  // The trace's transfer overlay and the VCD, byte for byte, on a
  // multithreaded and a single-thread example.
  for (const std::string name : {"fig5_pipeline", "st_diamond"}) {
    SCOPED_TRACE(name);
    const std::string trace = ::testing::TempDir() + "mte_prof_obs_" + name + ".json";
    const std::string vcd = ::testing::TempDir() + "mte_prof_obs_" + name + ".vcd";
    ASSERT_EQ(run_prof("--cycles 24 --seed 3 --quiet --trace " + trace + " --vcd " +
                       vcd + " " + example(name + ".enl"))
                  .exit_code,
              0);
    const std::string golden = std::string(MTE_SOURCE_DIR) + "/tests/obs/golden/" + name;
    const std::string golden_vcd = slurp(golden + ".vcd");
    const std::string golden_transfers = slurp(golden + ".transfers.txt");
    ASSERT_FALSE(golden_vcd.empty());
    ASSERT_FALSE(golden_transfers.empty());
    EXPECT_EQ(slurp(vcd), golden_vcd);
    EXPECT_EQ(transfer_instants(slurp(trace)), golden_transfers);
  }
}

TEST(MteProfCli, BadFlagExitsTwo) {
  EXPECT_EQ(run_prof("--no-such-flag x.enl").exit_code, 2);
}

TEST(MteProfCli, MalformedNumberExitsTwo) {
  // Each spelling once aborted, ran a truncated value, wrapped to a huge
  // pool or wrapped to a stride of 0.
  const std::string netlist = example("fig5_pipeline.enl");
  for (const auto& [flag, text] : {std::pair{"--cycles", "abc"},
                                   std::pair{"--cycles", "10x"},
                                   std::pair{"--shared-slots", "-1"},
                                   std::pair{"--stride", "4294967296"}}) {
    SCOPED_TRACE(std::string(flag) + " " + text);
    const CliResult r = run_prof(std::string(flag) + " " + text + " --quiet " + netlist +
                                 " 2>&1");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_EQ(r.output, std::string("mte_prof: bad number '") + text + "' for " + flag +
                            "\n");
  }
}

TEST(MteProfCli, MissingNetlistExitsTwo) {
  EXPECT_EQ(run_prof("/nonexistent/netlist.enl").exit_code, 2);
}

}  // namespace
