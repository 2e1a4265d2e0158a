// FullMeb<T>: the baseline multithreaded elastic buffer (paper Fig. 4).
//
// One private 2-slot elastic buffer per thread, an output arbiter and a
// data multiplexer: 2*S storage slots for S threads. Every thread always
// sees two private slots, so a stalled thread never affects the others.
//
// Two-phase component: the forward process arbitrates and drives the
// output valids/data (reading the downstream readys), the backward
// process drives the per-thread input readys from the EB states alone.
// The split makes MEB -> operator ready-passthrough chains acyclic in
// the event kernel's process graph. Tick elision: with no transfer
// possible on the settled handshake and an arbiter whose update would
// not rotate, the clock edge is skipped entirely; otherwise the tick
// reports which processes to reseed (the backward process only when some
// thread's can_accept actually changed).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "elastic/eb_control.hpp"
#include "mt/arbiter.hpp"
#include "mt/mt_channel.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace mte::mt {

template <typename T>
class FullMeb : public sim::TwoPhaseComponent<FullMeb<T>> {
  friend sim::TwoPhaseComponent<FullMeb<T>>;
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "FullMeb";
  }
  FullMeb(sim::Simulator& s, std::string name, MtChannel<T>& in, MtChannel<T>& out,
          std::unique_ptr<Arbiter> arbiter = nullptr)
      : sim::TwoPhaseComponent<FullMeb<T>>(s, std::move(name)), in_(in), out_(out),
        arb_(arbiter ? std::move(arbiter)
                     : std::make_unique<RoundRobinArbiter>(in.threads())),
        ctrl_(in.threads()), head_(in.threads()), aux_(in.threads()),
        pending_(in.threads()), ready_down_(in.threads()) {
    if (in.threads() != out.threads()) {
      throw sim::SimulationError("FullMeb '" + this->name() +
                                 "': input/output thread counts differ");
    }
  }

  void reset() override {
    for (auto& c : ctrl_) c.reset();
    for (auto& h : head_) h = T{};
    for (auto& a : aux_) a = T{};
    arb_->reset();
    grant_ = threads();
  }

  void tick() override {
    const std::size_t n = threads();
    const std::size_t in_thread = in_.active_thread();  // checks the invariant
    const bool out_fired = grant_ < n && out_.ready(grant_).get();

    // Any non-elided edge may change the arbitration inputs (EB states,
    // head words) or the arbiter pointer itself, so the forward process
    // always reseeds; the backward (ready) process reseeds only when a
    // committed thread's can_accept crossed the FULL boundary.
    std::uint32_t touched = sim::kForwardBit;
    bool fired_any = false;

    // Only the arriving thread and the granted thread can move this cycle;
    // for every other thread decide(false, false) commits the identity, so
    // the per-thread loop reduces to at most two commits.
    const auto commit_thread = [&](std::size_t i) {
      const bool vin = (i == in_thread) && in_.valid(i).get();
      const bool rin = (i == grant_) && out_fired;
      const elastic::EbDecision d = ctrl_[i].decide(vin, rin);
      const bool could_accept = ctrl_[i].can_accept();
      if (d.shift_aux_to_head) head_[i] = aux_[i];
      if (d.load_head_from_in) head_[i] = in_.data.get();
      if (d.load_aux_from_in) aux_[i] = in_.data.get();
      ctrl_[i].commit(d);
      if (ctrl_[i].can_accept() != could_accept) touched |= sim::kBackwardBit;
      fired_any = fired_any || d.in_fire || d.out_fire;
    };
    if (in_thread < n) commit_thread(in_thread);
    if (grant_ < n && grant_ != in_thread) commit_thread(grant_);
    this->set_tick_touched(touched);
    this->set_tick_idle_hint(!fired_any && arb_->update_is_noop(grant_, out_fired));
    arb_->update(grant_, out_fired);
  }

  /// No thread can complete a transfer on the settled handshake and the
  /// arbiter would not rotate: the edge is the identity. Multiple
  /// asserted valids defer to tick(), whose active_thread() call owes
  /// the channel its single-valid protocol check.
  [[nodiscard]] bool tick_quiescent() const override {
    const std::size_t n = threads();
    if (grant_ < n && out_.ready(grant_).get()) return false;   // output fires
    if (!arb_->update_is_noop(grant_, false)) return false;     // pointer turns
    const ThreadMask& v = in_.valid_mask();
    if (v.more_than_one()) return false;                        // protocol check
    const std::size_t i = v.first_set();
    return i >= n || !ctrl_[i].can_accept();                    // input fires?
  }

  [[nodiscard]] std::size_t threads() const noexcept { return ctrl_.size(); }
  [[nodiscard]] elastic::EbState state(std::size_t i) const { return ctrl_.at(i).state(); }
  [[nodiscard]] int occupancy(std::size_t i) const { return ctrl_.at(i).occupancy(); }
  [[nodiscard]] int total_occupancy() const {
    int total = 0;
    for (const auto& c : ctrl_) total += c.occupancy();
    return total;
  }
  [[nodiscard]] const T& head(std::size_t i) const { return head_.at(i); }
  [[nodiscard]] const T& aux(std::size_t i) const { return aux_.at(i); }
  /// Storage slots instantiated by this buffer (2 per thread).
  [[nodiscard]] std::size_t capacity() const noexcept { return 2 * threads(); }

  void save_state(sim::SnapshotWriter& w) const override {
    // grant_ and the pending/ready masks are settle-phase scratch,
    // recomputed by the full evaluation a restore schedules.
    for (const auto& c : ctrl_) c.save(w);
    sim::snapshot_write_span(w, head_);
    sim::snapshot_write_span(w, aux_);
    arb_->save_state(w);
  }

  void load_state(sim::SnapshotReader& r) override {
    for (auto& c : ctrl_) c.load(r);
    sim::snapshot_read_span(r, head_);
    sim::snapshot_read_span(r, aux_);
    arb_->load_state(r);
  }

 protected:
  void eval_forward() {
    const std::size_t n = threads();
    for (std::size_t i = 0; i < n; ++i) {
      pending_.set(i, ctrl_[i].has_data());
      ready_down_.set(i, out_.ready(i).get());
    }
    grant_ = arb_->grant(pending_, ready_down_);
    for (std::size_t i = 0; i < n; ++i) out_.valid(i).set(i == grant_);
    out_.data.set(grant_ < n ? head_[grant_] : T{});
  }

  void eval_backward() {
    const std::size_t n = threads();
    for (std::size_t i = 0; i < n; ++i) {
      in_.ready(i).set(ctrl_[i].can_accept());
    }
  }

 private:
  MtChannel<T>& in_;
  MtChannel<T>& out_;
  std::unique_ptr<Arbiter> arb_;
  std::vector<elastic::EbControl> ctrl_;
  std::vector<T> head_;
  std::vector<T> aux_;
  std::size_t grant_ = 0;
  // Arbitration scratch, sized once at construction: eval() runs per settle
  // iteration and must not allocate.
  ThreadMask pending_;
  ThreadMask ready_down_;
};

}  // namespace mte::mt
