// Md5Feeder: the host-side wrapper of the elastic MD5 circuit.
//
// Per thread it issues one token per message block (serialized by the
// chaining dependency: block k+1 enters only after block k's digest
// returns) and performs the final chaining addition on returning tokens.
// To keep the barrier balanced, threads with shorter messages are padded
// with dummy blocks up to the longest message's block count; dummy
// results are discarded. This substitution is documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "md5/md5_token.hpp"
#include "mt/arbiter.hpp"
#include "mt/mt_channel.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace mte::md5 {

class Md5Feeder : public sim::Component {
 public:
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "Md5Feeder";
  }
  Md5Feeder(sim::Simulator& s, std::string name, mt::MtChannel<Md5Token>& out,
            mt::MtChannel<Md5Token>& in)
      : Component(s, std::move(name)), out_(out), in_(in),
        arb_(std::make_unique<mt::RoundRobinArbiter>(out.threads())),
        per_thread_(out.threads()),
        pending_(out.threads()), ready_down_(out.threads()) {
    if (out.threads() != in.threads()) {
      throw sim::SimulationError("Md5Feeder '" + this->name() +
                                 "': channel thread counts differ");
    }
  }

  /// Assigns the message thread `t` will hash. Call before reset().
  void set_message(std::size_t t, const std::string& text) {
    per_thread_.at(t).blocks = pad_message(text);
    per_thread_.at(t).has_message = true;
  }

  void reset() override {
    total_blocks_ = 0;
    for (const auto& t : per_thread_) {
      total_blocks_ = std::max(total_blocks_, t.blocks.size());
    }
    for (auto& t : per_thread_) {
      t.chaining = State{};
      t.issued = 0;
      t.completed = 0;
      t.awaiting = false;
      t.digest.reset();
    }
    arb_->reset();
    grant_ = threads();
  }

  void eval() override {
    const std::size_t n = threads();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& t = per_thread_[i];
      pending_.set(i, !t.awaiting && t.issued < total_blocks_);
      ready_down_.set(i, out_.ready(i).get());
      in_.ready(i).set(true);  // returning digests are always absorbed
    }
    grant_ = arb_->grant(pending_, ready_down_);
    for (std::size_t i = 0; i < n; ++i) out_.valid(i).set(i == grant_);
    out_.data.set(grant_ < n ? make_token(grant_) : Md5Token{});
  }

  void tick() override {
    const std::size_t n = threads();
    const bool out_fired = grant_ < n && out_.ready(grant_).get();
    if (out_fired) {
      auto& t = per_thread_[grant_];
      ++t.issued;
      t.awaiting = true;
    }
    arb_->update(grant_, out_fired);

    const std::size_t back = in_.active_thread();  // checks the invariant
    if (back < n) {  // in_.ready is always asserted, so valid == fired
      auto& t = per_thread_[back];
      const Md5Token tok = in_.data.get();
      if (!t.awaiting) {
        throw sim::ProtocolError("Md5Feeder: unexpected result for thread " +
                                 std::to_string(back));
      }
      t.awaiting = false;
      if (!tok.dummy) {
        // The final addition of RFC 1321's compression function.
        t.chaining = State{tok.chaining.a + tok.working.a,
                           tok.chaining.b + tok.working.b,
                           tok.chaining.c + tok.working.c,
                           tok.chaining.d + tok.working.d};
        if (t.completed + 1 == t.blocks.size()) t.digest = t.chaining;
      }
      ++t.completed;
    }
  }

  [[nodiscard]] std::size_t threads() const noexcept { return per_thread_.size(); }

  [[nodiscard]] bool all_done() const {
    for (const auto& t : per_thread_) {
      if (t.completed < total_blocks_ || t.awaiting) return false;
    }
    return true;
  }

  [[nodiscard]] const State& digest(std::size_t t) const {
    const auto& d = per_thread_.at(t).digest;
    if (!d) {
      throw sim::SimulationError("Md5Feeder: digest for thread " + std::to_string(t) +
                                 " not ready");
    }
    return *d;
  }

  /// Block count every thread processes (longest message, in blocks).
  [[nodiscard]] std::size_t rounds_of_blocks() const noexcept { return total_blocks_; }

  void save_state(sim::SnapshotWriter& w) const override {
    // blocks/has_message are configuration; grant_ is settle scratch.
    using Traits = sim::SnapshotTraits<Md5Token>;
    w.write_u64(total_blocks_);
    for (const auto& t : per_thread_) {
      Traits::save_state(w, t.chaining);
      w.write_u64(t.issued);
      w.write_u64(t.completed);
      w.write_bool(t.awaiting);
      w.write_bool(t.digest.has_value());
      if (t.digest) Traits::save_state(w, *t.digest);
    }
    arb_->save_state(w);
  }

  void load_state(sim::SnapshotReader& r) override {
    using Traits = sim::SnapshotTraits<Md5Token>;
    total_blocks_ = static_cast<std::size_t>(r.read_u64());
    for (auto& t : per_thread_) {
      t.chaining = Traits::load_state(r);
      t.issued = static_cast<std::size_t>(r.read_u64());
      t.completed = static_cast<std::size_t>(r.read_u64());
      t.awaiting = r.read_bool();
      if (r.read_bool()) {
        t.digest = Traits::load_state(r);
      } else {
        t.digest.reset();
      }
    }
    arb_->load_state(r);
  }

 private:
  struct PerThread {
    std::vector<Block> blocks;
    bool has_message = false;
    State chaining;
    std::size_t issued = 0;
    std::size_t completed = 0;
    bool awaiting = false;
    std::optional<State> digest;
  };

  [[nodiscard]] Md5Token make_token(std::size_t i) const {
    const auto& t = per_thread_[i];
    Md5Token tok;
    if (t.issued < t.blocks.size()) {
      tok.m = t.blocks[t.issued];
      tok.chaining = t.chaining;
      tok.working = t.chaining;
    } else {
      tok.dummy = true;  // padding block: zero message, throwaway state
    }
    return tok;
  }

  mt::MtChannel<Md5Token>& out_;
  mt::MtChannel<Md5Token>& in_;
  std::unique_ptr<mt::Arbiter> arb_;
  std::vector<PerThread> per_thread_;
  std::size_t total_blocks_ = 0;
  std::size_t grant_ = 0;
  // Arbitration scratch, sized once at construction: eval() runs per settle
  // iteration and must not allocate.
  mt::ThreadMask pending_;
  mt::ThreadMask ready_down_;
};

}  // namespace mte::md5
