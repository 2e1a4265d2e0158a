// MetricsRegistry: the unified, pull-based observability model.
//
// Every diagnostic the simulator and its attachments already maintain —
// settle work, tick counts, per-component eval/tick calls, per-channel
// probe statistics, profiler cost buckets — is published into one
// registry under a stable label scheme:
//
//   sim.cycles                      cycles completed since construction
//   sim.settle_work                 component-equivalent settle evals
//   sim.sched_evals                 raw dispatched settle units
//   sim.ticks                       tick() dispatches (commit work)
//   sim.elided_ticks                commits skipped by tick elision
//   sim.demoted_to_naive            0/1: event kernel fell back to naive
//   sim.relevel_work                processes + edges the full
//                                   levelization passes visited
//   component.<name>.evals          per-component eval dispatches
//   component.<name>.ticks          per-component tick dispatches
//   channel.<name>.transfers        ChannelProbe: completed handshakes
//   channel.<name>.throughput       ChannelProbe: tokens/cycle
//   channel.<name>.mean_wait        ChannelProbe: mean backpressure wait
//   channel.<name>.max_wait         ChannelProbe: worst backpressure wait
//   profile.<type>.evals            profiler: eval calls per component type
//   profile.<type>.ticks            profiler: tick calls per component type
//   profile.<type>.settle_seconds   profiler: sampled settle wall time
//   profile.<type>.commit_seconds   profiler: sampled commit wall time
//                                   (the only wall-clock rows: attach a
//                                   PhaseProfiler to time the phases)
//   trace.events / trace.dropped    TraceSession occupancy
//
// The registry is PULL-based: producers register a source callback that
// emits rows when (and only when) a snapshot is taken. Nothing is pushed
// per event, so an idle registry costs the simulation loop exactly
// nothing — the no-observer-effect tests pin this down.
//
// Determinism contract: every metric carries a category.
//   kSemantic  circuit-level observables (cycles, probe statistics).
//              Lockstep-equivalent runs agree on these across KERNELS.
//   kKernel    kernel diagnostics (evals, ticks, elisions). Deterministic
//              for a fixed (kernel, seed), but kernels legitimately
//              differ.
//   kTiming    wall-clock readings. Volatile run to run; excluded from
//              the default snapshot so rendered snapshots are
//              byte-identical across reruns at the same seed.
// snapshot() defaults to kStableCategories (semantic + kernel); renderers
// emit rows sorted by name at fixed precision.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mte::obs {

enum class MetricCategory : unsigned {
  kSemantic = 1u << 0,
  kKernel = 1u << 1,
  kTiming = 1u << 2,
};

using CategoryMask = unsigned;
inline constexpr CategoryMask kAllCategories = 0x7u;
/// Semantic + kernel: everything that is byte-stable across reruns.
inline constexpr CategoryMask kStableCategories =
    static_cast<CategoryMask>(MetricCategory::kSemantic) |
    static_cast<CategoryMask>(MetricCategory::kKernel);
inline constexpr CategoryMask kSemanticOnly =
    static_cast<CategoryMask>(MetricCategory::kSemantic);

[[nodiscard]] constexpr const char* to_string(MetricCategory c) noexcept {
  switch (c) {
    case MetricCategory::kSemantic: return "semantic";
    case MetricCategory::kKernel: return "kernel";
    case MetricCategory::kTiming: return "timing";
  }
  return "?";
}

/// One snapshot row. Counters are exact integers; gauges render at a
/// fixed %.6f so snapshots are byte-comparable.
struct MetricRow {
  std::string name;
  MetricCategory category = MetricCategory::kSemantic;
  bool is_counter = true;
  std::uint64_t count = 0;
  double value = 0.0;

  /// The rendered value, exactly as the CSV/JSON emit it.
  [[nodiscard]] std::string value_text() const;
};

/// Collects rows during a snapshot; handed to every registered source.
/// Rows whose category the snapshot excluded are dropped on arrival, so
/// sources need no filtering logic of their own.
class MetricsSink {
 public:
  void counter(std::string name, std::uint64_t value,
               MetricCategory category = MetricCategory::kSemantic);
  void gauge(std::string name, double value,
             MetricCategory category = MetricCategory::kSemantic);

 private:
  friend class MetricsRegistry;
  MetricsSink(std::vector<MetricRow>& rows, CategoryMask mask)
      : rows_(rows), mask_(mask) {}

  [[nodiscard]] bool wants(MetricCategory c) const noexcept {
    return (mask_ & static_cast<CategoryMask>(c)) != 0;
  }

  std::vector<MetricRow>& rows_;
  CategoryMask mask_;
};

/// A rendered registry snapshot: rows sorted by name, deterministic
/// CSV/JSON/table serializations.
class MetricsSnapshot {
 public:
  explicit MetricsSnapshot(std::vector<MetricRow> rows);

  [[nodiscard]] const std::vector<MetricRow>& rows() const noexcept { return rows_; }
  [[nodiscard]] const MetricRow* find(std::string_view name) const noexcept;

  /// Convenience accessors; 0 when the row is absent.
  [[nodiscard]] std::uint64_t count(std::string_view name) const noexcept;
  [[nodiscard]] double value(std::string_view name) const noexcept;

  /// "name,category,value" lines under a fixed header.
  [[nodiscard]] std::string to_csv() const;
  /// {"metrics":[{"name":...,"category":...,"value":...},...]}
  [[nodiscard]] std::string to_json() const;
  /// Column-aligned terminal table.
  [[nodiscard]] std::string to_table() const;

 private:
  std::vector<MetricRow> rows_;
};

class MetricsRegistry {
 public:
  using Source = std::function<void(MetricsSink&)>;

  /// Registers a source for the registry's lifetime. Sources run in
  /// registration order (ordering is irrelevant to the rendered snapshot,
  /// which sorts rows by name).
  void add_source(Source source);

  /// Pulls every registered source and returns the sorted snapshot of the
  /// requested categories. Timing rows are excluded by default so the
  /// rendered snapshot is byte-identical across reruns at the same seed.
  [[nodiscard]] MetricsSnapshot snapshot(CategoryMask mask = kStableCategories) const;

 private:
  std::vector<Source> sources_;
};

}  // namespace mte::obs
