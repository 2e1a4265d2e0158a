#include "obs/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "sim/component.hpp"

namespace mte::obs {

void PhaseProfiler::record(std::uint32_t slot, Phase phase, double seconds) {
  if (slot >= slots_.size()) slots_.resize(static_cast<std::size_t>(slot) + 1);
  slots_[slot][static_cast<std::size_t>(phase)] += seconds * stride_;
  ++samples_;
}

void PhaseProfiler::reset() noexcept {
  slots_.clear();
  samples_ = 0;
  countdown_ = 1;
}

ProfileReport PhaseProfiler::report(
    const std::vector<sim::Component*>& components, std::size_t top_n) const {
  ProfileReport rep;
  const auto sampled = [this](const sim::Component& c) {
    const std::uint32_t slot = c.profile_slot();
    return slot < slots_.size() ? slots_[slot] : std::array<double, 2>{};
  };

  // Roll the live components up by type: exact call counts, instance
  // populations and sampled seconds.
  std::unordered_map<std::string_view, std::size_t> row_of;
  for (const sim::Component* c : components) {
    const auto [it, added] = row_of.try_emplace(c->type_name(), rep.rows_.size());
    if (added) rep.rows_.push_back(ProfileRow{.type = std::string(c->type_name())});
    ProfileRow& row = rep.rows_[it->second];
    const std::array<double, 2> s = sampled(*c);
    row.instances += 1;
    row.evals += c->kernel_eval_calls();
    row.ticks += c->kernel_tick_calls();
    row.settle_seconds += s[0];
    row.commit_seconds += s[1];
    rep.total_settle_ += s[0];
    rep.total_commit_ += s[1];
  }
  for (ProfileRow& row : rep.rows_) {
    if (rep.total_settle_ > 0.0) row.settle_share = row.settle_seconds / rep.total_settle_;
    if (rep.total_commit_ > 0.0) row.commit_share = row.commit_seconds / rep.total_commit_;
  }

  // Most expensive first; exact eval count, then name, break ties so the
  // ranking is deterministic even with no samples recorded.
  std::sort(rep.rows_.begin(), rep.rows_.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              const double at = a.settle_seconds + a.commit_seconds;
              const double bt = b.settle_seconds + b.commit_seconds;
              if (at != bt) return at > bt;
              if (a.evals != b.evals) return a.evals > b.evals;
              return a.type < b.type;
            });

  // Top-N instances by sampled cost (same deterministic tie-break). Only
  // the N winners are sorted and turned into rows.
  const std::size_t n = std::min(top_n, components.size());
  if (n == 0) return rep;
  std::vector<const sim::Component*> ranked(components.begin(), components.end());
  const auto cost = [&sampled](const sim::Component* c) {
    const std::array<double, 2> s = sampled(*c);
    return s[0] + s[1];
  };
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(n),
                    ranked.end(), [&cost](const sim::Component* a, const sim::Component* b) {
                      const double at = cost(a);
                      const double bt = cost(b);
                      if (at != bt) return at > bt;
                      if (a->kernel_eval_calls() != b->kernel_eval_calls()) {
                        return a->kernel_eval_calls() > b->kernel_eval_calls();
                      }
                      return a->name() < b->name();
                    });
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Component& c = *ranked[i];
    const std::array<double, 2> s = sampled(c);
    rep.top_instances_.push_back(InstanceRow{
        .name = c.name(),
        .type = std::string(c.type_name()),
        .evals = c.kernel_eval_calls(),
        .ticks = c.kernel_tick_calls(),
        .settle_seconds = s[0],
        .commit_seconds = s[1],
    });
  }
  return rep;
}

std::string ProfileReport::to_table() const {
  std::size_t type_w = 4;  // "type"
  for (const ProfileRow& r : rows_) type_w = std::max(type_w, r.type.size());
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-*s  %9s  %12s  %12s  %11s  %7s  %11s  %7s\n",
                static_cast<int>(type_w), "type", "instances", "evals", "ticks",
                "settle_ms", "set%", "commit_ms", "com%");
  out += line;
  for (const ProfileRow& r : rows_) {
    std::snprintf(line, sizeof(line),
                  "%-*s  %9" PRIu64 "  %12" PRIu64 "  %12" PRIu64
                  "  %11.3f  %6.1f%%  %11.3f  %6.1f%%\n",
                  static_cast<int>(type_w), r.type.c_str(), r.instances, r.evals,
                  r.ticks, r.settle_seconds * 1e3, r.settle_share * 100.0,
                  r.commit_seconds * 1e3, r.commit_share * 100.0);
    out += line;
  }
  if (!top_instances_.empty()) {
    std::size_t name_w = 8;  // "instance"
    for (const InstanceRow& r : top_instances_) name_w = std::max(name_w, r.name.size());
    std::snprintf(line, sizeof(line), "\n%-*s  %-18s  %12s  %12s  %11s  %11s\n",
                  static_cast<int>(name_w), "instance", "type", "evals", "ticks",
                  "settle_ms", "commit_ms");
    out += line;
    for (const InstanceRow& r : top_instances_) {
      std::snprintf(line, sizeof(line),
                    "%-*s  %-18s  %12" PRIu64 "  %12" PRIu64 "  %11.3f  %11.3f\n",
                    static_cast<int>(name_w), r.name.c_str(), r.type.c_str(),
                    r.evals, r.ticks, r.settle_seconds * 1e3, r.commit_seconds * 1e3);
      out += line;
    }
  }
  return out;
}

void ProfileReport::emit_metrics(MetricsSink& sink) const {
  for (const ProfileRow& r : rows_) {
    const std::string base = "profile." + r.type + ".";
    sink.counter(base + "evals", r.evals, MetricCategory::kKernel);
    sink.counter(base + "ticks", r.ticks, MetricCategory::kKernel);
    sink.gauge(base + "settle_seconds", r.settle_seconds, MetricCategory::kTiming);
    sink.gauge(base + "commit_seconds", r.commit_seconds, MetricCategory::kTiming);
  }
}

}  // namespace mte::obs
