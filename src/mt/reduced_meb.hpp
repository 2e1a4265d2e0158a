// ReducedMeb<T>: the paper's proposed low-cost multithreaded elastic
// buffer (Sec. III-A / IV-A, Fig. 6), with the shared pool's size K as a
// parameter.
//
// S+K storage slots for S threads: each thread owns one main register and
// all threads dynamically share a pool of K auxiliary registers (see
// ReducedMebControl). K = 1, the default, is the paper's design: under
// uniform utilization every thread gets its 1/M share of the channel
// exactly as with the full MEB; the only divergence is the characterized
// corner case (Fig. 5b) where all threads but one are blocked all the way
// back to the source, capping the surviving thread at 50 % throughput.
// Other K values are the capacity axis of the DSE engine and the
// ABL-SLOTS ablation: K = 0 caps every thread at 50 % even alone, and
// K = S gives every thread two words, like the full MEB.
//
// Two-phase component (see FullMeb): forward = arbitration + output
// valids/data, backward = per-thread input readys from control state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mt/arbiter.hpp"
#include "mt/meb_control.hpp"
#include "mt/mt_channel.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace mte::mt {

template <typename T>
class ReducedMeb : public sim::TwoPhaseComponent<ReducedMeb<T>> {
  friend sim::TwoPhaseComponent<ReducedMeb<T>>;
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "ReducedMeb";
  }
  ReducedMeb(sim::Simulator& s, std::string name, MtChannel<T>& in, MtChannel<T>& out,
             std::unique_ptr<Arbiter> arbiter = nullptr, std::size_t shared_slots = 1)
      : sim::TwoPhaseComponent<ReducedMeb<T>>(s, std::move(name)), in_(in), out_(out),
        arb_(arbiter ? std::move(arbiter)
                     : std::make_unique<RoundRobinArbiter>(in.threads())),
        ctrl_(in.threads(), shared_slots), main_(in.threads()),
        shared_(ctrl_.shared_words()), pending_(in.threads()), ready_down_(in.threads()) {
    if (in.threads() != out.threads()) {
      throw sim::SimulationError("ReducedMeb '" + this->name() +
                                 "': input/output thread counts differ");
    }
  }

  void reset() override {
    ctrl_.reset();
    for (auto& m : main_) m = T{};
    for (auto& w : shared_) w = T{};
    arb_->reset();
    grant_ = threads();
  }

  void tick() override {
    const std::size_t n = threads();
    const std::size_t active = in_.active_thread();  // checks the invariant
    const bool in_fired = active < n && in_.ready(active).get();
    const std::size_t in_thread = in_fired ? active : n;
    const bool out_fired = grant_ < n && out_.ready(grant_).get();
    const std::size_t out_thread = out_fired ? grant_ : n;

    // Reseed decision: the forward process always (arbitration inputs /
    // pointer may change); the backward process only when some thread's
    // ready_out actually changed — which can only happen through the two
    // committed threads' FSMs or the pool's occupancy (a change there
    // moves every HALF thread's ready at once).
    const std::size_t shared_before = ctrl_.shared_used();
    const bool rin_before = in_thread < n && ctrl_.ready_out(in_thread);
    const bool rout_before = out_thread < n && ctrl_.ready_out(out_thread);

    const T data_in = in_.data.get();
    const ReducedMebOps ops = ctrl_.commit(in_thread, out_thread);
    // Refill before store: when a shared slot is freed and claimed in the
    // same cycle the refilled word must be the old one. (ready_out()
    // actually forbids that overlap, but the ordering keeps the datapath
    // correct under any control change.)
    if (ops.refill_main) main_[ops.out_thread] = shared_[ops.out_slot];
    if (ops.store_main) main_[ops.in_thread] = data_in;
    if (ops.store_shared) shared_[ops.in_slot] = data_in;

    std::uint32_t touched = sim::kForwardBit;
    if (ctrl_.shared_used() != shared_before ||
        (in_thread < n && ctrl_.ready_out(in_thread) != rin_before) ||
        (out_thread < n && ctrl_.ready_out(out_thread) != rout_before)) {
      touched |= sim::kBackwardBit;
    }
    this->set_tick_touched(touched);
    this->set_tick_idle_hint(!in_fired && !out_fired &&
                       arb_->update_is_noop(grant_, out_fired));
    arb_->update(grant_, out_fired);
  }

  /// No transfer can fire on the settled handshake and the arbiter would
  /// not rotate: the edge is the identity. Multiple asserted valids defer
  /// to tick(), whose active_thread() call owes the channel its
  /// single-valid protocol check.
  [[nodiscard]] bool tick_quiescent() const override {
    const std::size_t n = threads();
    if (grant_ < n && out_.ready(grant_).get()) return false;
    if (!arb_->update_is_noop(grant_, false)) return false;
    const ThreadMask& v = in_.valid_mask();
    if (v.more_than_one()) return false;  // protocol check belongs to tick()
    const std::size_t i = v.first_set();
    return i >= n || !in_.ready(i).get();
  }

  [[nodiscard]] std::size_t threads() const noexcept { return ctrl_.threads(); }
  [[nodiscard]] elastic::EbState state(std::size_t i) const { return ctrl_.state(i); }
  [[nodiscard]] int occupancy(std::size_t i) const { return ctrl_.occupancy(i); }
  [[nodiscard]] int total_occupancy() const { return ctrl_.total_occupancy(); }
  [[nodiscard]] std::size_t shared_slots() const noexcept { return ctrl_.shared_slots(); }
  [[nodiscard]] std::size_t shared_used() const noexcept { return ctrl_.shared_used(); }
  [[nodiscard]] bool shared_full() const noexcept { return ctrl_.shared_full(); }
  [[nodiscard]] std::size_t shared_owner(std::size_t k) const { return ctrl_.shared_owner(k); }
  [[nodiscard]] const T& main_slot(std::size_t i) const { return main_.at(i); }
  [[nodiscard]] const T& shared_slot(std::size_t k) const { return shared_.at(k); }
  /// Storage slots of this buffer (S main + K shared), of which at most
  /// S + min(K, S) can ever hold a word.
  [[nodiscard]] std::size_t capacity() const noexcept { return threads() + shared_slots(); }

  void save_state(sim::SnapshotWriter& w) const override {
    // grant_ and the pending/ready masks are settle-phase scratch,
    // recomputed by the full evaluation a restore schedules.
    ctrl_.save(w);
    sim::snapshot_write_span(w, main_);
    sim::snapshot_write_span(w, shared_);
    arb_->save_state(w);
  }

  void load_state(sim::SnapshotReader& r) override {
    ctrl_.load(r);
    sim::snapshot_read_span(r, main_);
    sim::snapshot_read_span(r, shared_);
    arb_->load_state(r);
  }

 protected:
  void eval_forward() {
    const std::size_t n = threads();
    for (std::size_t i = 0; i < n; ++i) {
      pending_.set(i, ctrl_.has_data(i));
      ready_down_.set(i, out_.ready(i).get());
    }
    grant_ = arb_->grant(pending_, ready_down_);
    for (std::size_t i = 0; i < n; ++i) out_.valid(i).set(i == grant_);
    // Output data always comes from the granted thread's main register;
    // a shared slot only ever refills a main register.
    out_.data.set(grant_ < n ? main_[grant_] : T{});
  }

  void eval_backward() {
    const std::size_t n = threads();
    for (std::size_t i = 0; i < n; ++i) {
      in_.ready(i).set(ctrl_.ready_out(i));
    }
  }

 private:
  MtChannel<T>& in_;
  MtChannel<T>& out_;
  std::unique_ptr<Arbiter> arb_;
  ReducedMebControl ctrl_;
  std::vector<T> main_;
  std::vector<T> shared_;  ///< min(K, S) words, indexed by the control's slots
  std::size_t grant_ = 0;
  // Arbitration scratch, sized once at construction: eval() runs per settle
  // iteration and must not allocate.
  ThreadMask pending_;
  ThreadMask ready_down_;
};

}  // namespace mte::mt
