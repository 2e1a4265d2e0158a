// PhaseProfiler: sampling wall-time attribution per component type.
//
// Answers the question the compiled-kernel ROADMAP item depends on:
// WHERE does settle and commit time actually go? The simulator, when a
// profiler is attached (Simulator::set_profiler), times every stride-th
// eval/tick dispatch and adds it to the component's profile slot: one
// dense table indexed by Component::profile_slot(), so a sample costs two
// clock reads and one indexed add. Recorded durations are scaled by the
// stride, so slot totals estimate the true wall time; report() rolls the
// slots up by type_name() and picks the top-N instances. Call counts in
// the report are NOT sampled — they are read exactly from the
// components' kernel_eval_calls()/kernel_tick_calls() at report time.
//
// Stride 1 (the default) times every dispatch: exact, ~2 steady_clock
// reads per dispatched unit. Larger strides shrink overhead linearly at
// the cost of timing variance; counts stay exact either way.
//
// The profiler is SCRATCH in the checkpoint model: Simulator::restore()
// resets an attached profiler, so post-restore reports cover only the
// replayed region (mirroring how diagnostics counters restart at zero).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mte::sim {
class Component;
}

namespace mte::obs {

/// The phase a timed dispatch belongs to.
enum class Phase : std::uint8_t { kSettle, kCommit };

/// One line of the per-type profile.
struct ProfileRow {
  std::string type;
  std::uint64_t instances = 0;
  std::uint64_t evals = 0;   ///< exact: sum of kernel_eval_calls
  std::uint64_t ticks = 0;   ///< exact: sum of kernel_tick_calls
  double settle_seconds = 0.0;  ///< sampled, stride-scaled
  double commit_seconds = 0.0;  ///< sampled, stride-scaled
  double settle_share = 0.0;    ///< of total sampled settle time
  double commit_share = 0.0;    ///< of total sampled commit time
};

/// One line of the top-N instance breakdown.
struct InstanceRow {
  std::string name;
  std::string type;
  std::uint64_t evals = 0;
  std::uint64_t ticks = 0;
  double settle_seconds = 0.0;
  double commit_seconds = 0.0;
};

/// The rendered profile: per-type rows ranked most-expensive-first
/// (sampled seconds, then exact eval count as the deterministic
/// tie-break), plus the top-N costliest instances.
class ProfileReport {
 public:
  [[nodiscard]] const std::vector<ProfileRow>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<InstanceRow>& top_instances() const noexcept {
    return top_instances_;
  }
  [[nodiscard]] double total_settle_seconds() const noexcept { return total_settle_; }
  [[nodiscard]] double total_commit_seconds() const noexcept { return total_commit_; }

  /// Column-aligned terminal table (types, then top instances).
  [[nodiscard]] std::string to_table() const;

  /// Publishes profile.<type>.{evals,ticks} (kernel category) and
  /// profile.<type>.{settle_seconds,commit_seconds} (timing category).
  void emit_metrics(MetricsSink& sink) const;

 private:
  friend class PhaseProfiler;
  std::vector<ProfileRow> rows_;
  std::vector<InstanceRow> top_instances_;
  double total_settle_ = 0.0;
  double total_commit_ = 0.0;
};

class PhaseProfiler {
 public:
  /// stride >= 1: time every stride-th dispatch (1 = every dispatch).
  explicit PhaseProfiler(std::uint32_t stride = 1) noexcept
      : stride_(stride == 0 ? 1 : stride), countdown_(1) {}

  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }

  /// Counts one dispatch; true when this one should be timed. Hot path:
  /// a decrement and compare, no allocation, no clock read.
  [[nodiscard]] bool sample_now() noexcept {
    if (--countdown_ != 0) return false;
    countdown_ = stride_;
    return true;
  }

  /// Records one timed dispatch of the component in profile slot `slot`
  /// (Component::profile_slot). `seconds` is the raw measured duration;
  /// the profiler applies the stride scaling. Runs only on sampled
  /// dispatches, so it is defined out of line.
  void record(std::uint32_t slot, Phase phase, double seconds);

  /// Drops all accumulated samples (Simulator::restore does this).
  void reset() noexcept;

  [[nodiscard]] std::uint64_t sample_count() const noexcept { return samples_; }

  /// Builds the ranked per-type report and the top_n costliest instances.
  /// `components` supplies the exact call counts and the instance
  /// population (pass Simulator::components()); samples of components no
  /// longer in it are not reported.
  [[nodiscard]] ProfileReport report(const std::vector<sim::Component*>& components,
                                     std::size_t top_n = 8) const;

 private:
  std::uint32_t stride_;
  std::uint32_t countdown_;
  std::uint64_t samples_ = 0;
  /// Stride-scaled seconds per profile slot, indexed by Phase.
  std::vector<std::array<double, 2>> slots_;
};

}  // namespace mte::obs
