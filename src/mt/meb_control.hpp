// Control logic of the reduced multithreaded elastic buffer (paper Sec.
// III/IV-A, Fig. 6).
//
// ReducedMebControl — one main slot per thread plus a pool of K
// dynamically shared auxiliary slots: per-thread 3-state FSMs
// (EMPTY/HALF/FULL) coupled through the pool. A HALF thread accepts a
// second word only while some shared slot is free, and it claims the
// lowest free one (goFull); the FULL thread's dequeue refills its main
// register from that slot and frees it (goHalf). K = 1 is the paper's
// design, where the shared buffer's `Empty` signal gates every HALF->FULL
// transition, so only one thread can ever hold two words. K = 0 caps
// every thread at one word; K >= S lets every thread hold two.
//
// A thread holds a shared slot only while FULL, and a HALF thread that
// claims one leaves at most S-1 slots held by others, so the lowest free
// index is always below S: the pool stores min(K, S) words however large
// K is, while capacity and readiness still count all K.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "elastic/eb_control.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace mte::mt {

using elastic::EbState;

/// Data-movement commands for one ReducedMeb clock edge. At most one
/// input transfer and one output transfer happen per cycle (MT channel
/// invariant), so single fields suffice.
struct ReducedMebOps {
  bool store_main = false;        ///< data_in -> main[in_thread]
  bool store_shared = false;      ///< data_in -> shared[in_slot]
  bool refill_main = false;       ///< shared[out_slot] -> main[out_thread]
  std::size_t in_thread = 0;
  std::size_t out_thread = 0;
  std::size_t in_slot = 0;
  std::size_t out_slot = 0;
};

class ReducedMebControl {
 public:
  explicit ReducedMebControl(std::size_t threads, std::size_t shared_slots = 1)
      : state_(threads, EbState::kEmpty), slot_(threads, std::min(shared_slots, threads)),
        owner_(std::min(shared_slots, threads), threads), shared_slots_(shared_slots) {}

  [[nodiscard]] std::size_t threads() const noexcept { return state_.size(); }
  [[nodiscard]] EbState state(std::size_t i) const { return state_.at(i); }
  /// Pool size K.
  [[nodiscard]] std::size_t shared_slots() const noexcept { return shared_slots_; }
  /// Shared words the datapath stores: min(K, S).
  [[nodiscard]] std::size_t shared_words() const noexcept { return owner_.size(); }
  [[nodiscard]] std::size_t shared_used() const noexcept { return used_; }
  /// No shared slot is free: HALF threads stop accepting.
  [[nodiscard]] bool shared_full() const noexcept { return used_ == shared_slots_; }
  /// The thread holding shared word k, or threads() when it is free.
  [[nodiscard]] std::size_t shared_owner(std::size_t k) const { return owner_.at(k); }

  /// valid condition towards the arbiter: the thread has at least one word.
  [[nodiscard]] bool has_data(std::size_t i) const { return state_.at(i) != EbState::kEmpty; }

  /// ready(i) to upstream: EMPTY threads always accept (they own their main
  /// slot); HALF threads accept only while a shared slot is free; FULL
  /// never accepts. Depends on registered state only.
  [[nodiscard]] bool ready_out(std::size_t i) const {
    switch (state_.at(i)) {
      case EbState::kEmpty: return true;
      case EbState::kHalf: return used_ < shared_slots_;
      case EbState::kFull: return false;
    }
    return false;
  }

  [[nodiscard]] int occupancy(std::size_t i) const {
    switch (state_.at(i)) {
      case EbState::kEmpty: return 0;
      case EbState::kHalf: return 1;
      case EbState::kFull: return 2;
    }
    return 0;
  }

  [[nodiscard]] int total_occupancy() const {
    int total = 0;
    for (std::size_t i = 0; i < state_.size(); ++i) total += occupancy(i);
    return total;
  }

  /// Clock-edge update. `in_thread` is the thread completing an input
  /// transfer this cycle (threads() for none) and `out_thread` the thread
  /// completing an output transfer (threads() for none). Returns the data
  /// movements the datapath must perform.
  ReducedMebOps commit(std::size_t in_thread, std::size_t out_thread) {
    const std::size_t n = threads();
    ReducedMebOps ops;
    ops.in_thread = in_thread;
    ops.out_thread = out_thread;

    if (out_thread < n) {
      switch (state_[out_thread]) {
        case EbState::kEmpty:
          throw sim::ProtocolError("ReducedMebControl: output fired from EMPTY thread");
        case EbState::kHalf:
          state_[out_thread] = EbState::kEmpty;  // may be re-filled below
          break;
        case EbState::kFull:
          // Main register is refilled from the thread's shared slot (goHalf(i)).
          state_[out_thread] = EbState::kHalf;
          ops.refill_main = true;
          ops.out_slot = slot_[out_thread];
          owner_[ops.out_slot] = n;
          slot_[out_thread] = owner_.size();
          --used_;
          break;
      }
    }

    if (in_thread < n) {
      switch (state_[in_thread]) {
        case EbState::kEmpty:
          state_[in_thread] = EbState::kHalf;
          ops.store_main = true;
          break;
        case EbState::kHalf: {
          // A second word arrives: it claims the lowest free shared slot
          // (goFull(i)). ready_out() guaranteed one was free this cycle.
          if (used_ == shared_slots_) {
            throw sim::ProtocolError(
                "ReducedMebControl: HALF thread accepted while shared slot full");
          }
          std::size_t k = 0;
          while (owner_[k] != n) ++k;
          state_[in_thread] = EbState::kFull;
          ops.store_shared = true;
          ops.in_slot = k;
          owner_[k] = in_thread;
          slot_[in_thread] = k;
          ++used_;
          break;
        }
        case EbState::kFull:
          throw sim::ProtocolError("ReducedMebControl: FULL thread accepted input");
      }
    }
    return ops;
  }

  void reset() {
    std::fill(state_.begin(), state_.end(), EbState::kEmpty);
    std::fill(slot_.begin(), slot_.end(), owner_.size());
    std::fill(owner_.begin(), owner_.end(), threads());
    used_ = 0;
  }

  /// Saves the thread states and the pool's owners; load() rebuilds the
  /// per-thread slot index and the used count from them, and refuses a
  /// pool that disagrees with the states.
  void save(sim::SnapshotWriter& w) const {
    sim::snapshot_write_span(w, state_);
    sim::snapshot_write_span(w, owner_);
  }

  void load(sim::SnapshotReader& r) {
    sim::snapshot_read_span(r, state_);
    sim::snapshot_read_span(r, owner_);
    const std::size_t n = threads();
    std::fill(slot_.begin(), slot_.end(), owner_.size());
    used_ = 0;
    for (std::size_t k = 0; k < owner_.size(); ++k) {
      const std::size_t t = owner_[k];
      if (t == n) continue;
      if (t > n || state_[t] != EbState::kFull || slot_[t] != owner_.size()) {
        throw sim::SnapshotError("ReducedMebControl: shared slot " + std::to_string(k) +
                                 " has an inconsistent owner " + std::to_string(t));
      }
      slot_[t] = k;
      ++used_;
    }
    for (std::size_t t = 0; t < n; ++t) {
      if (state_[t] == EbState::kFull && slot_[t] == owner_.size()) {
        throw sim::SnapshotError("ReducedMebControl: FULL thread " + std::to_string(t) +
                                 " holds no shared slot");
      }
    }
  }

 private:
  std::vector<EbState> state_;
  std::vector<std::size_t> slot_;   ///< per thread: its shared slot, or shared_words()
  std::vector<std::size_t> owner_;  ///< per shared word: its thread, or threads()
  std::size_t shared_slots_;
  std::size_t used_ = 0;
};

}  // namespace mte::mt
