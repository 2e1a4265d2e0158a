// The benchmark's workloads. Each runs closed-loop jobs from one process
// (the next job starts when the previous one ends) for the requested
// number of seconds, checks every job's output, and fills a RunResult
// with the end-to-end metrics, or with the per-layer metrics when
// RunOptions::trace is set.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

RunResult run_dse(const RunOptions& opt);
RunResult run_tiles(const RunOptions& opt, bool guarded);
RunResult run_lint(const RunOptions& opt);

/// The output digest of one job at `seed`, for recording expected
/// digests ("" when the job's checks failed). For tiles_guarded this is
/// the digest of the unguarded run of the same netlist, which the guarded
/// run must reproduce.
std::string dse_job_digest(std::uint64_t seed);
std::string tiles_job_digest(std::uint64_t seed, bool guarded);
std::string lint_job_digest(std::uint64_t seed);

}  // namespace perfbench
