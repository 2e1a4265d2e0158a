// perfbench: the layer-by-layer benchmark program.
//
//   perfbench run --workload <w> --seed <n> --seconds <s> --trace <0|1>
//                 [--expect <digest>] [--trace-out <file>] [--artifacts <dir>]
//   perfbench digest --workload <w> --seed <n>
//
// `run` prints a human-readable summary, then one JSON line:
//   {"attempted":..,"failed":..,"digest":"..","failures":[..],"metrics":{..}}
// perfbench/run.py turns that line into the benchmark's result record.
// `digest` prints the output digest one job produces at the seed, which
// perfbench/expected_digests.json records.
//
// Exit codes: 0 = ran (failed checks are reported, not fatal), 2 = usage.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int usage() {
  std::cerr << "usage: perfbench run --workload <w> --seed <n> --seconds <s> --trace <0|1>\n"
               "                     [--expect <digest>] [--trace-out <file>] [--artifacts <dir>]\n"
               "       perfbench digest --workload <w> --seed <n>\n"
               "workloads: dse_default tiles_sim tiles_guarded lint_chain\n";
  return 2;
}

bool known_workload(const std::string& w) {
  return w == "dse_default" || w == "tiles_sim" || w == "tiles_guarded" || w == "lint_chain";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_json(const RunResult& r) {
  std::ostringstream os;
  os << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"digest\":" << json_string(r.digest) << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? "," : "") << json_string(r.failures[i]);
  }
  os << "],\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : r.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << (first ? "" : ",") << json_string(name) << ':' << buf;
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  RunOptions opt;
  bool have_workload = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--expect") {
        opt.expect_digest = value;
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else if (arg == "--artifacts") {
        opt.artifact_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || !known_workload(opt.workload)) return usage();

  if (mode == "digest") {
    std::string d;
    if (opt.workload == "dse_default") d = perfbench::dse_job_digest(opt.seed);
    if (opt.workload == "lint_chain") d = perfbench::lint_job_digest(opt.seed);
    if (opt.workload == "tiles_sim") d = perfbench::tiles_job_digest(opt.seed, false);
    if (opt.workload == "tiles_guarded") d = perfbench::tiles_job_digest(opt.seed, true);
    if (d.empty()) {
      std::cerr << "perfbench: the job's checks failed; no digest\n";
      return 1;
    }
    std::cout << d << '\n';
    return 0;
  }
  if (mode != "run") return usage();

  RunResult r;
  if (opt.workload == "dse_default") r = perfbench::run_dse(opt);
  if (opt.workload == "tiles_sim") r = perfbench::run_tiles(opt, false);
  if (opt.workload == "tiles_guarded") r = perfbench::run_tiles(opt, true);
  if (opt.workload == "lint_chain") r = perfbench::run_lint(opt);

  std::printf("%s seed %llu: %llu operations, %llu failed, digest %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.digest.c_str());
  for (const auto& f : r.failures) std::printf("  failed: %s\n", f.c_str());
  for (const auto& [name, value] : r.metrics) std::printf("  %-34s %.6g\n", name.c_str(), value);
  for (const auto& [name, values] : r.samples) {
    std::printf("  samples %s:", name.c_str());
    for (const double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  std::printf("%s\n", result_json(r).c_str());
  return 0;
}
