// MtSink: consumes the downstream end of a multithreaded elastic channel
// with per-thread backpressure (rates and stall windows), recording the
// consumed tokens per thread and in global arrival order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mt/mt_channel.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace mte::mt {

template <typename T>
class MtSink : public sim::Component {
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "MtSink";
  }
  MtSink(sim::Simulator& s, std::string name, MtChannel<T>& in)
      : Component(s, std::move(name)), in_(in), per_thread_(in.threads()) {}

  /// Restarts thread `thread`'s gate stream (sim::BernoulliGate policy).
  void set_rate(std::size_t thread, double rate, std::uint64_t seed = 0) {
    per_thread_.at(thread).gate.configure(
        rate, seed + 0x2545f4914f6cdd1dULL * (thread + 1));
  }

  /// Thread `thread` is not ready during cycles [start, end).
  void add_stall_window(std::size_t thread, sim::Cycle start, sim::Cycle end) {
    per_thread_.at(thread).stalls.emplace_back(start, end);
  }

  void reset() override {
    for (auto& t : per_thread_) {
      t.received.clear();
      t.gate.reset();  // replay the same readiness pattern on rerun
    }
    order_.clear();
  }

  void eval() override {
    for (std::size_t i = 0; i < threads(); ++i) {
      in_.ready(i).set(ready_now(i));
    }
  }

  void tick() override {
    const std::size_t active = in_.active_thread();  // checks the invariant
    if (active < threads() && in_.ready(active).get()) {
      per_thread_[active].received.push_back(in_.data.get());
      order_.emplace_back(active, in_.data.get());
    }
    for (auto& t : per_thread_) t.gate.advance();
  }

  [[nodiscard]] std::size_t threads() const noexcept { return per_thread_.size(); }
  [[nodiscard]] const std::vector<T>& received(std::size_t thread) const {
    return per_thread_.at(thread).received;
  }
  [[nodiscard]] std::uint64_t count(std::size_t thread) const {
    return per_thread_.at(thread).received.size();
  }
  [[nodiscard]] std::uint64_t total_count() const {
    std::uint64_t total = 0;
    for (const auto& t : per_thread_) total += t.received.size();
    return total;
  }
  /// (thread, token) pairs in global arrival order.
  [[nodiscard]] const std::vector<std::pair<std::size_t, T>>& order() const noexcept {
    return order_;
  }

  void save_state(sim::SnapshotWriter& w) const override {
    for (const auto& t : per_thread_) {
      sim::snapshot_write_vector(w, t.received);
      t.gate.save(w);
    }
    w.write_u64(order_.size());
    for (const auto& [thread, tok] : order_) {
      w.write_u64(thread);
      sim::snapshot_write_value(w, tok);
    }
  }

  void load_state(sim::SnapshotReader& r) override {
    for (auto& t : per_thread_) {
      sim::snapshot_read_vector(r, t.received);
      t.gate.load(r);
    }
    order_.resize(r.read_count());
    for (auto& [thread, tok] : order_) {
      thread = static_cast<std::size_t>(r.read_u64());
      tok = sim::snapshot_read_value<T>(r);
    }
  }

 private:
  struct PerThread {
    std::vector<T> received;
    std::vector<std::pair<sim::Cycle, sim::Cycle>> stalls;
    sim::BernoulliGate gate{13};
  };

  [[nodiscard]] bool ready_now(std::size_t i) const {
    const auto& t = per_thread_[i];
    if (!t.gate.open()) return false;
    const sim::Cycle now = sim().now();
    for (const auto& [start, end] : t.stalls) {
      if (now >= start && now < end) return false;
    }
    return true;
  }

  MtChannel<T>& in_;
  std::vector<PerThread> per_thread_;
  std::vector<std::pair<std::size_t, T>> order_;
};

}  // namespace mte::mt
