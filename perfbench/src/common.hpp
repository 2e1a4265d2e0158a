// Shared helpers of the benchmark program: clocks, order statistics,
// digests, memory readings and the per-run result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty vector). Takes a copy: callers keep
/// their samples in run order.
[[nodiscard]] double median(std::vector<double> v);

/// FNV-1a over bytes, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
[[nodiscard]] std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t h);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// splitmix64 step: the benchmark's only random source, so a seed fixes
/// every generated input.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// (t_slow / t_base - 1) in percent; 0 without a base.
[[nodiscard]] inline double overhead_pct(double t_base, double t_slow) {
  return t_base > 0.0 ? (t_slow / t_base - 1.0) * 100.0 : 0.0;
}

/// num / den; 0 without a denominator.
[[nodiscard]] inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set of this process so far (getrusage), in MiB.
[[nodiscard]] double peak_rss_mb();

/// The failed checks of one operation (one closed-loop job).
using Failures = std::vector<std::string>;

/// What one workload run reports: operations attempted and failed, the
/// first failure messages, the metric values by name, and the output
/// digest the checks compared.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  /// Per-job samples behind the end-to-end medians, in run order.
  std::map<std::string, std::vector<double>> samples;
  std::string digest;

  /// Counts one finished operation; it failed when any check did.
  void record(const Failures& job_failures);

  /// Sets the end-to-end metrics: medians of the per-job samples and the
  /// process's peak memory.
  void set_end_to_end(std::vector<double> setup_s, std::vector<double> wall_s,
                      std::vector<double> work_per_s);
};

/// Records a failure when an output digest differs from the expected one.
void check_digest(std::uint64_t digest, const std::string& expected, Failures& fails);

/// Options shared by every workload run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Expected output digest for this seed ("" = none recorded).
  std::string expect_digest;
  /// Where the traced run writes its Chrome-trace JSON ("" = nowhere).
  std::string trace_out;
  /// Directory for artifacts the program may write on failure.
  std::string artifact_dir = ".";
};

}  // namespace perfbench
