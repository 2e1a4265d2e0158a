#include "profiling.hpp"

#include <array>

namespace perfbench {

namespace {
/// The component types whose time the per-layer report names: the MEB
/// variants, the datapath and endpoint components, and the per-channel
/// probe components that observation adds.
constexpr std::array<const char*, 7> kReportedTypes = {
    "FullMeb", "ReducedMeb", "HybridMeb", "MtFunctionUnit",
    "MtSource", "MtSink",   "ChannelProbe"};
}  // namespace

void ProfileTotals::add(const mte::obs::ProfileReport& report) {
  settle_s += report.total_settle_seconds();
  commit_s += report.total_commit_seconds();
  for (const auto& row : report.rows()) {
    type_s[row.type] += row.settle_seconds + row.commit_seconds;
  }
}

void ProfileTotals::emit(RunResult& r, double settle_work, double ticks) const {
  r.metrics["sim.settle_s"] = settle_s;
  r.metrics["sim.commit_s"] = commit_s;
  r.metrics["sim.ns_per_settle_work"] = settle_work > 0 ? settle_s / settle_work * 1e9 : 0.0;
  r.metrics["sim.ns_per_tick"] = ticks > 0 ? commit_s / ticks * 1e9 : 0.0;
  for (const char* type : kReportedTypes) {
    const auto it = type_s.find(type);
    r.metrics[std::string("sim.type.") + type + "_s"] = it == type_s.end() ? 0.0 : it->second;
  }
}

}  // namespace perfbench
