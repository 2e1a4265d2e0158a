// ChannelProbe: uniform per-channel statistics for elaborated netlists.
//
// One probe is attached to every row of an Elaboration's channel table
// (sim/channel_row.hpp), regardless of whether the design is single-thread
// or multithreaded. It accumulates, per thread:
//   - transfer counts (-> throughput in tokens/cycle over the run), and
//   - the backpressure wait of each token: the number of cycles its valid
//     was asserted before the consumer's ready completed the transfer
//     (-> a latency histogram of the stalls each channel injects).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mt/thread_mask.hpp"
#include "sim/channel_row.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace mte::netlist {

using Word = std::uint64_t;

class ChannelProbe : public sim::Component {
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "ChannelProbe";
  }
  /// Observes `row`, which must outlive the probe.
  ChannelProbe(sim::Simulator& s, const sim::ChannelRow& row)
      : Component(s, "probe:" + row.name),
        row_(row),
        counts_(row.threads(), 0),
        waits_(row.threads(), 0) {}

  void reset() override {
    cycles_ = 0;
    std::fill(counts_.begin(), counts_.end(), 0);
    std::fill(waits_.begin(), waits_.end(), 0);
    wait_hist_.clear();
    last_value_ = Word{};
  }

  void eval() override {}

  void tick() override {
    ++cycles_;
    if (!row_.multithreaded()) {
      if (row_.valid[0].get()) observe(0);
      return;
    }
    // Only threads with valid count, so walk the set bits of the channel's
    // maintained valid mask (at most one under the protocol) instead of
    // reading S wires per cycle.
    const mt::ThreadMask& v = *row_.valid_mask;
    for (std::size_t t = v.first_set(); t < counts_.size();
         t = v.first_set_at_or_after(t + 1)) {
      observe(t);
    }
  }

  [[nodiscard]] std::size_t threads() const noexcept { return counts_.size(); }

  /// Transfers completed by one thread / by all threads since reset.
  [[nodiscard]] std::uint64_t count(std::size_t thread) const {
    return counts_.at(thread);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (auto c : counts_) total += c;
    return total;
  }

  /// Tokens per cycle since reset, per thread / aggregate.
  [[nodiscard]] double rate(std::size_t thread) const {
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(count(thread)) /
                              static_cast<double>(cycles_);
  }
  [[nodiscard]] double throughput() const noexcept {
    return cycles_ == 0
               ? 0.0
               : static_cast<double>(count()) / static_cast<double>(cycles_);
  }

  /// Backpressure wait per delivered token (cycles valid was stalled by a
  /// deasserted ready before the transfer fired).
  [[nodiscard]] const stats::Histogram& wait_histogram() const noexcept {
    return wait_hist_;
  }
  [[nodiscard]] double mean_wait() const noexcept { return wait_hist_.mean(); }

  /// Cycles observed since reset.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

  /// Payload of the most recent completed transfer.
  [[nodiscard]] Word last_value() const noexcept { return last_value_; }

  // Probe statistics restore with the snapshot, so a warm-started run
  // reports the same aggregate numbers as the straight run it resumes.
  void save_state(sim::SnapshotWriter& w) const override {
    w.write_u64(cycles_);
    sim::snapshot_write_span(w, counts_);
    sim::snapshot_write_span(w, waits_);
    wait_hist_.save(w);
    w.write_u64(last_value_);
  }

  void load_state(sim::SnapshotReader& r) override {
    cycles_ = r.read_u64();
    sim::snapshot_read_span(r, counts_);
    sim::snapshot_read_span(r, waits_);
    wait_hist_.load(r);
    last_value_ = r.read_u64();
  }

 private:
  /// Thread `t` asserts valid this cycle: a transfer, or one more cycle
  /// of backpressure wait.
  void observe(std::size_t t) {
    if (row_.ready[t].get()) {
      ++counts_[t];
      wait_hist_.add(waits_[t]);
      waits_[t] = 0;
      last_value_ = row_.data->get();
    } else {
      ++waits_[t];
    }
  }

  const sim::ChannelRow& row_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> waits_;
  stats::Histogram wait_hist_;
  std::uint64_t cycles_ = 0;
  Word last_value_{};
};

}  // namespace mte::netlist
