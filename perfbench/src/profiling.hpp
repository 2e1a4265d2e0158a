// Per-type profiler totals shared by the simulating workloads.
#pragma once

#include <map>
#include <string>

#include "common.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

/// Sums PhaseProfiler reports (settle and commit seconds, by component
/// type) over one or more profiled windows.
struct ProfileTotals {
  double settle_s = 0.0;
  double commit_s = 0.0;
  std::map<std::string, double> type_s;

  void add(const mte::obs::ProfileReport& report);

  /// Sets sim.settle_s, sim.commit_s, sim.ns_per_settle_work,
  /// sim.ns_per_tick and sim.type.<T>_s for the reported types, given the
  /// settle work and ticks the profiled windows did.
  void emit(RunResult& r, double settle_work, double ticks) const;
};

}  // namespace perfbench
