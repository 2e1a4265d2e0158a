// ElasticBuffer<T>: the 2-slot elastic buffer (EB) of the baseline elastic
// protocol (paper Sec. II, Fig. 2). Sustains 100 % throughput; forward and
// backward handshake latency of one cycle.
//
// A two-phase component: the forward process drives out.valid/out.data
// from registered state, the backward process drives in.ready from
// registered state. Neither process reads a wire, so under
// the event kernel they re-run only when a clock edge actually changes
// the state they publish (set_tick_touched), and a buffer whose
// settled handshake implies no transfer skips its clock edge entirely
// (tick_quiescent).
#pragma once

#include <string>

#include "elastic/channel.hpp"
#include "elastic/eb_control.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace mte::elastic {

template <typename T>
class ElasticBuffer : public sim::TwoPhaseComponent<ElasticBuffer<T>> {
  friend sim::TwoPhaseComponent<ElasticBuffer<T>>;
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "ElasticBuffer";
  }
  ElasticBuffer(sim::Simulator& s, std::string name, Channel<T>& in, Channel<T>& out)
      : sim::TwoPhaseComponent<ElasticBuffer<T>>(s, std::move(name)), in_(in), out_(out) {}

  void reset() override {
    ctrl_.reset();
    head_ = T{};
    aux_ = T{};
  }

  void tick() override {
    const EbDecision d = ctrl_.decide(in_.valid.get(), out_.ready.get());
    const bool could_accept = ctrl_.can_accept();
    if (d.shift_aux_to_head) head_ = aux_;
    if (d.load_head_from_in) head_ = in_.data.get();
    if (d.load_aux_from_in) aux_ = in_.data.get();
    ctrl_.commit(d);
    // Forward outputs (valid/data) change when the head slot or the
    // has_data flag does; backward (ready) only when occupancy crosses
    // the FULL boundary.
    std::uint32_t touched = 0;
    if (d.out_fire || d.load_head_from_in || d.shift_aux_to_head) {
      touched |= sim::kForwardBit;
    }
    if (could_accept != ctrl_.can_accept()) touched |= sim::kBackwardBit;
    this->set_tick_touched(touched);
    this->set_tick_idle_hint(!d.in_fire && !d.out_fire);
  }

  /// No transfer fires on the settled handshake: the clock edge would
  /// commit the identity.
  [[nodiscard]] bool tick_quiescent() const override {
    const EbDecision d = ctrl_.decide(in_.valid.get(), out_.ready.get());
    return !d.in_fire && !d.out_fire;
  }

  [[nodiscard]] EbState state() const noexcept { return ctrl_.state(); }
  [[nodiscard]] int occupancy() const noexcept { return ctrl_.occupancy(); }
  [[nodiscard]] const T& head() const noexcept { return head_; }
  [[nodiscard]] const T& aux() const noexcept { return aux_; }

  void save_state(sim::SnapshotWriter& w) const override {
    ctrl_.save(w);
    sim::snapshot_write_value(w, head_);
    sim::snapshot_write_value(w, aux_);
  }

  void load_state(sim::SnapshotReader& r) override {
    ctrl_.load(r);
    head_ = sim::snapshot_read_value<T>(r);
    aux_ = sim::snapshot_read_value<T>(r);
  }

 protected:
  void eval_forward() {
    out_.valid.set(ctrl_.has_data());
    out_.data.set(head_);
  }

  void eval_backward() { in_.ready.set(ctrl_.can_accept()); }

 private:
  Channel<T>& in_;
  Channel<T>& out_;
  EbControl ctrl_;
  T head_{};
  T aux_{};
};

}  // namespace mte::elastic
