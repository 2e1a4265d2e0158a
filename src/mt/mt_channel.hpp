// Multithreaded elastic channel (paper Sec. III).
//
// Carries the data of at most one thread per cycle plus one valid/ready
// handshake pair per thread. The producer asserts at most one valid(i) per
// cycle (checked by MtChecker / consuming components); the consumer may
// assert any subset of ready(i), advertising per-thread acceptance.
//
// Commit-phase cache: the channel maintains a packed word mask of the
// per-thread valid wires, updated from inside every valid-wire write
// (Wire<bool>::mirror_to_bit), so active_thread() — which every consuming
// component's tick() calls on the settled state — is a word scan instead
// of S wire reads. The single-valid ProtocolError is preserved via a
// popcount test on the same words.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mt/thread_mask.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "sim/wire.hpp"

namespace mte::mt {

template <typename T>
class MtChannel {
 public:
  MtChannel(sim::Simulator& s, std::string name, std::size_t threads)
      : data(s.tracker(), T{}), name_(std::move(name)), valid_mask_(threads) {
    // Wires are pinned (they register their address with the tracker), so
    // reserve up front: the vectors must never reallocate.
    valid_.reserve(threads);
    ready_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      valid_.emplace_back(s.tracker(), false);
      valid_.back().mirror_to_bit(valid_mask_.word_ptr(i / ThreadMask::kWordBits),
                                  static_cast<unsigned>(i % ThreadMask::kWordBits));
      ready_.emplace_back(s.tracker(), false);
    }
  }

  MtChannel(const MtChannel&) = delete;
  MtChannel& operator=(const MtChannel&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t threads() const noexcept { return valid_.size(); }

  [[nodiscard]] sim::Wire<bool>& valid(std::size_t i) { return valid_.at(i); }
  [[nodiscard]] sim::Wire<bool>& ready(std::size_t i) { return ready_.at(i); }
  [[nodiscard]] const sim::Wire<bool>& valid(std::size_t i) const { return valid_.at(i); }
  [[nodiscard]] const sim::Wire<bool>& ready(std::size_t i) const { return ready_.at(i); }

  /// Every thread's valid / ready wire, in thread order.
  [[nodiscard]] std::span<sim::Wire<bool>> valid_wires() noexcept { return valid_; }
  [[nodiscard]] std::span<sim::Wire<bool>> ready_wires() noexcept { return ready_; }

  /// The packed per-thread valid mask, maintained from valid-wire writes.
  /// COMMIT-PHASE ONLY: reading the mask does not register event-kernel
  /// sensitivity the way Wire::get() does, so it must not feed an eval()
  /// — use it from tick()/tick_quiescent()/observers on settled state.
  [[nodiscard]] const ThreadMask& valid_mask() const noexcept { return valid_mask_; }

  /// Index of the thread whose valid is asserted, or threads() when none.
  /// Call on settled state only. Throws ProtocolError on multiple valids.
  /// O(S/64) via the maintained valid mask — consuming components' ticks
  /// no longer rescan S wires per edge.
  [[nodiscard]] std::size_t active_thread() const {
    if (valid_mask_.more_than_one()) {
      throw sim::ProtocolError("MtChannel '" + name_ +
                               "': multiple valid(i) asserted in one cycle");
    }
    return valid_mask_.first_set();
  }

  /// True when thread i completes a transfer this (settled) cycle.
  [[nodiscard]] bool fired(std::size_t i) const {
    return valid_.at(i).get() && ready_.at(i).get();
  }

  /// Thread index of the transfer completing this cycle, or threads() if none.
  [[nodiscard]] std::size_t fired_thread() const {
    const std::size_t a = active_thread();
    if (a < threads() && ready_[a].get()) return a;
    return threads();
  }

  sim::Wire<T> data;

 private:
  std::string name_;
  std::vector<sim::Wire<bool>> valid_;
  std::vector<sim::Wire<bool>> ready_;
  ThreadMask valid_mask_;
};

}  // namespace mte::mt
