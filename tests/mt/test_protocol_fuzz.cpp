// Protocol fuzzer: drives MEBs with adversarial raw handshake wiggling —
// the producer re-arbitrates its offered thread every cycle regardless of
// downstream readiness (valid may be deasserted without a transfer, which
// MT-elastic re-arbitration permits) and the consumer flips each ready(i)
// at random. Invariants checked every cycle and at the end: per-thread
// FIFO order, no loss, no duplication, occupancy never exceeds capacity.
#include <gtest/gtest.h>

#include <deque>

#include "mt/full_meb.hpp"
#include "mt/mt_channel.hpp"
#include "mt/reduced_meb.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mte::mt {
namespace {

using Token = std::uint64_t;

/// Adversarial producer: offers a random eligible thread each cycle.
class FuzzProducer : public sim::Component {
 public:
  FuzzProducer(sim::Simulator& s, MtChannel<Token>& out, std::uint64_t seed,
               std::size_t tokens_per_thread)
      : Component(s, "fuzz_src"), out_(out), rng_(seed),
        remaining_(out.threads(), tokens_per_thread), next_(out.threads(), 0) {}

  void reset() override { choice_ = pick(); }

  void eval() override {
    for (std::size_t i = 0; i < out_.threads(); ++i) {
      out_.valid(i).set(i == choice_);
    }
    out_.data.set(choice_ < out_.threads()
                      ? choice_ * 1000000 + next_[choice_]
                      : Token{});
  }

  void tick() override {
    if (choice_ < out_.threads() && out_.ready(choice_).get()) {
      sent_.push_back(out_.data.get());
      ++next_[choice_];
      --remaining_[choice_];
    }
    choice_ = pick();  // re-arbitrate every cycle, fired or not
  }

  [[nodiscard]] const std::vector<Token>& sent() const noexcept { return sent_; }
  [[nodiscard]] bool done() const {
    for (auto r : remaining_) {
      if (r != 0) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] std::size_t pick() {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < out_.threads(); ++i) {
      if (remaining_[i] > 0) eligible.push_back(i);
    }
    if (eligible.empty() || rng_.next_bool(0.2)) return out_.threads();  // idle cycles
    return eligible[rng_.next_below(eligible.size())];
  }

  MtChannel<Token>& out_;
  sim::Rng rng_;
  std::vector<std::size_t> remaining_;
  std::vector<std::size_t> next_;
  std::vector<Token> sent_;
  std::size_t choice_ = 0;
};

/// Adversarial consumer: random ready mask every cycle.
class FuzzConsumer : public sim::Component {
 public:
  FuzzConsumer(sim::Simulator& s, MtChannel<Token>& in, std::uint64_t seed)
      : Component(s, "fuzz_sink"), in_(in), rng_(seed), mask_(in.threads(), false) {}

  void reset() override { roll(); }

  void eval() override {
    for (std::size_t i = 0; i < in_.threads(); ++i) in_.ready(i).set(mask_[i]);
  }

  void tick() override {
    const std::size_t t = in_.fired_thread();
    if (t < in_.threads()) received_.push_back(in_.data.get());
    roll();
  }

  [[nodiscard]] const std::vector<Token>& received() const noexcept { return received_; }

 private:
  void roll() {
    for (std::size_t i = 0; i < in_.threads(); ++i) mask_[i] = rng_.next_bool(0.5);
  }

  MtChannel<Token>& in_;
  sim::Rng rng_;
  std::vector<bool> mask_;
  std::vector<Token> received_;
};

/// kHybrid2: the reduced MEB with a pool of two shared slots.
enum class Kind { kFull, kReduced, kHybrid2 };

class ProtocolFuzz : public testing::TestWithParam<std::tuple<Kind, int, int>> {};

TEST_P(ProtocolFuzz, ConservationOrderAndBounds) {
  const auto [kind, threads, seed] = GetParam();
  sim::Simulator s;
  MtChannel<Token> in(s, "in", threads), out(s, "out", threads);
  FuzzProducer producer(s, in, 1000 + seed, 50);
  FullMeb<Token>* full = nullptr;
  ReducedMeb<Token>* reduced = nullptr;
  if (kind == Kind::kFull) {
    full = &s.make<FullMeb<Token>>(s, "meb", in, out);
  } else {
    reduced = &s.make<ReducedMeb<Token>>(s, "meb", in, out, nullptr,
                                         kind == Kind::kHybrid2 ? 2 : 1);
  }
  FuzzConsumer consumer(s, out, 2000 + seed);

  const std::size_t capacity = full != nullptr ? full->capacity() : reduced->capacity();
  bool occupancy_ok = true;
  s.on_cycle([&](sim::Cycle) {
    const int occ = full != nullptr ? full->total_occupancy() : reduced->total_occupancy();
    if (occ > static_cast<int>(capacity)) occupancy_ok = false;
  });

  s.reset();
  // Run until the producer exhausts and the buffer drains.
  for (int c = 0; c < 200000; ++c) {
    s.step();
    if (producer.done() && consumer.received().size() == producer.sent().size()) break;
  }
  EXPECT_TRUE(occupancy_ok);
  ASSERT_EQ(consumer.received().size(), producer.sent().size());
  // Per-thread order and content: split by thread and compare.
  for (int t = 0; t < threads; ++t) {
    std::vector<Token> sent_t, recv_t;
    for (Token v : producer.sent()) {
      if (v / 1000000 == static_cast<Token>(t)) sent_t.push_back(v);
    }
    for (Token v : consumer.received()) {
      if (v / 1000000 == static_cast<Token>(t)) recv_t.push_back(v);
    }
    EXPECT_EQ(recv_t, sent_t) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolFuzz,
    testing::Combine(testing::Values(Kind::kFull, Kind::kReduced, Kind::kHybrid2),
                     testing::Values(2, 4, 8), testing::Values(1, 2, 3, 4)),
    [](const testing::TestParamInfo<std::tuple<Kind, int, int>>& info) {
      const char* k = std::get<0>(info.param) == Kind::kFull      ? "full"
                      : std::get<0>(info.param) == Kind::kReduced ? "reduced"
                                                                  : "hybrid2";
      return std::string(k) + "_t" + std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace mte::mt
