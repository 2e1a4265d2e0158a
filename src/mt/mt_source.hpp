// MtSource: drives the upstream end of a multithreaded elastic channel.
//
// Each thread has its own token list (or endless generator), injection
// rate and stall windows. Every cycle the source picks one offerable
// thread with an internal arbiter (same ready-aware + speculative-fallback
// policy as the MEBs) and asserts that thread's valid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mt/arbiter.hpp"
#include "mt/mt_channel.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace mte::mt {

template <typename T>
class MtSource : public sim::Component {
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "MtSource";
  }
  MtSource(sim::Simulator& s, std::string name, MtChannel<T>& out,
           std::unique_ptr<Arbiter> arbiter = nullptr)
      : Component(s, std::move(name)), out_(out),
        arb_(arbiter ? std::move(arbiter)
                     : std::make_unique<RoundRobinArbiter>(out.threads())),
        per_thread_(out.threads()),
        pending_(out.threads()), ready_down_(out.threads()) {}

  void set_tokens(std::size_t thread, std::vector<T> tokens) {
    per_thread_.at(thread).tokens = std::move(tokens);
  }

  void set_generator(std::size_t thread, std::function<T(std::uint64_t)> gen) {
    per_thread_.at(thread).generator = std::move(gen);
  }

  /// Restarts thread `thread`'s gate stream (sim::BernoulliGate policy).
  void set_rate(std::size_t thread, double rate, std::uint64_t seed = 0) {
    per_thread_.at(thread).gate.configure(
        rate, seed + 0x517cc1b727220a95ULL * (thread + 1));
  }

  /// Thread `thread` offers nothing during cycles [start, end).
  void add_stall_window(std::size_t thread, sim::Cycle start, sim::Cycle end) {
    per_thread_.at(thread).stalls.emplace_back(start, end);
  }

  void reset() override {
    for (auto& t : per_thread_) {
      t.index = 0;
      t.sent = 0;
      t.gate.reset();  // back to decision 0: rerun replays the same gates
    }
    arb_->reset();
    grant_ = threads();
  }

  void eval() override {
    const std::size_t n = threads();
    for (std::size_t i = 0; i < n; ++i) {
      pending_.set(i, offerable(i));
      ready_down_.set(i, out_.ready(i).get());
    }
    grant_ = arb_->grant(pending_, ready_down_);
    for (std::size_t i = 0; i < n; ++i) out_.valid(i).set(i == grant_);
    if (grant_ < n) {
      out_.data.set(*current(grant_));
    } else {
      out_.data.set(T{});
    }
  }

  void tick() override {
    const std::size_t n = threads();
    const bool fired = grant_ < n && out_.ready(grant_).get();
    if (fired) {
      auto& t = per_thread_[grant_];
      ++t.index;
      ++t.sent;
    }
    arb_->update(grant_, fired);
    for (auto& t : per_thread_) t.gate.advance();
  }

  [[nodiscard]] std::size_t threads() const noexcept { return per_thread_.size(); }
  [[nodiscard]] std::uint64_t sent(std::size_t thread) const {
    return per_thread_.at(thread).sent;
  }
  [[nodiscard]] bool exhausted(std::size_t thread) const {
    const auto& t = per_thread_.at(thread);
    return !t.generator && t.index >= t.tokens.size();
  }

  void save_state(sim::SnapshotWriter& w) const override {
    // tokens/generator/stalls are configuration; grant_ is settle scratch.
    for (const auto& t : per_thread_) {
      w.write_u64(t.index);
      w.write_u64(t.sent);
      t.gate.save(w);
    }
    arb_->save_state(w);
  }

  void load_state(sim::SnapshotReader& r) override {
    for (auto& t : per_thread_) {
      t.index = r.read_u64();
      t.sent = r.read_u64();
      t.gate.load(r);
    }
    arb_->load_state(r);
  }

 private:
  struct PerThread {
    std::vector<T> tokens;
    std::function<T(std::uint64_t)> generator;
    std::vector<std::pair<sim::Cycle, sim::Cycle>> stalls;
    sim::BernoulliGate gate{11};
    std::uint64_t index = 0;
    std::uint64_t sent = 0;
  };

  [[nodiscard]] std::optional<T> current(std::size_t i) const {
    const auto& t = per_thread_[i];
    if (t.index < t.tokens.size()) return t.tokens[t.index];
    if (t.generator) return t.generator(t.index);
    return std::nullopt;
  }

  [[nodiscard]] bool offerable(std::size_t i) const {
    const auto& t = per_thread_[i];
    // Availability test without materializing the token: offerable() runs
    // per thread per eval, and invoking the generator here would be a
    // std::function call whose result is thrown away.
    const bool has_token = t.index < t.tokens.size() || t.generator != nullptr;
    if (!has_token || !t.gate.open()) return false;
    const sim::Cycle now = sim().now();
    for (const auto& [start, end] : t.stalls) {
      if (now >= start && now < end) return false;
    }
    return true;
  }

  MtChannel<T>& out_;
  std::unique_ptr<Arbiter> arb_;
  std::vector<PerThread> per_thread_;
  std::size_t grant_ = 0;
  // Arbitration scratch, sized once at construction: eval() runs per settle
  // iteration and must not allocate.
  ThreadMask pending_;
  ThreadMask ready_down_;
};

}  // namespace mte::mt
