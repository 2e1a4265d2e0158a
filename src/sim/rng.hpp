// Deterministic random number generation for reproducible experiments.
//
// All stochastic behaviour in the library (variable latencies, injection
// processes, stall schedules, random workloads) flows through these
// generators so that every experiment is reproducible from its seed.
#pragma once

#include <array>
#include <cstdint>

#include "sim/snapshot.hpp"

namespace mte::sim {

/// SplitMix64's increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64's output finalizer: a stateless bijective mix of one word.
/// The generator below, the DSE per-point seeds and the fault injector's
/// corrupt masks all mix through it.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    return splitmix64_mix(state_ += kSplitMix64Gamma);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: the library-wide pseudo random generator.
/// Deterministic, fast, and good enough statistically for workload synthesis.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9d5c0f3a1eb7u) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Debiased multiply-shift (Lemire). Good enough for simulation workloads.
    unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + next_below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Checkpoints the generator mid-stream: the restored Rng continues the
  /// draw sequence exactly where the saved one stood.
  void save(SnapshotWriter& w) const {
    for (const std::uint64_t s : state_) w.write_u64(s);
  }

  void load(SnapshotReader& r) {
    for (auto& s : state_) s = r.read_u64();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// A per-cycle Bernoulli gate with batched draws — the injection/readiness
/// gate of rate-limited sources and sinks.
///
/// Decision k of a (rate, seed) stream is EXACTLY the k-th
/// Rng(seed).next_bool(rate): outcomes are drawn 64 at a time into a word
/// and consumed one bit per advance(), so the batching is invisible in the
/// decision sequence (locked down by BernoulliGate.BatchedDrawsMatchPerCycleDraws
/// in tests/sim/test_reset_determinism.cpp) while the per-edge cost drops
/// to a shift and a mask.
///
/// Draw-consumption policy (explicit, tested):
///   - rate >= 1.0 consumes NO draws; the gate is constantly open. A later
///     rate change therefore cannot be stream-aligned with a run that was
///     rate-limited from cycle 0 — instead:
///   - configure() stores (rate, seed) and RESTARTS the stream: the first
///     advance() after it yields decision 0 of the new (rate, seed) stream,
///     regardless of what was drawn before. The currently loaded decision
///     is unchanged until that advance (the gate for the next cycle was
///     decided at the previous clock edge).
///   - reset() reseeds to the stored seed and loads decision 0, so
///     reset-and-rerun replays exactly the gate sequence of a fresh run.
class BernoulliGate {
 public:
  explicit BernoulliGate(std::uint64_t seed) noexcept : seed_(seed), rng_(seed) {}

  /// Stores (rate, seed) and restarts the decision stream (see above).
  void configure(double rate, std::uint64_t seed) noexcept {
    rate_ = rate;
    seed_ = seed;
    rng_.reseed(seed);
    pos_ = kWordBits;  // exhausted: next advance()/reset() starts at decision 0
  }

  /// Back to the configured stream's decision 0 (power-on behaviour).
  void reset() noexcept {
    rng_.reseed(seed_);
    if (rate_ >= 1.0) {
      open_ = true;
      return;
    }
    refill();
    pos_ = 0;
    open_ = (bits_ & 1u) != 0;
  }

  /// Consumes the next decision; call at the clock edge (the gate value
  /// for a cycle is drawn at the preceding edge so eval() stays
  /// idempotent).
  void advance() noexcept {
    if (rate_ >= 1.0) {
      open_ = true;
      return;
    }
    if (++pos_ >= kWordBits) {
      refill();
      pos_ = 0;
    }
    open_ = ((bits_ >> pos_) & 1u) != 0;
  }

  /// The gate decision for the current cycle.
  [[nodiscard]] bool open() const noexcept { return open_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }

  /// Checkpoints the full decision stream position: the configured
  /// (rate, seed), the generator state, the batched decision word and the
  /// consumption index into it, and the loaded decision — so a restored
  /// gate's decision k+1, k+2, ... match the saved run bit for bit.
  void save(SnapshotWriter& w) const {
    w.write_f64(rate_);
    w.write_u64(seed_);
    rng_.save(w);
    w.write_u64(bits_);
    w.write_u64(pos_);
    w.write_bool(open_);
  }

  void load(SnapshotReader& r) {
    rate_ = r.read_f64();
    seed_ = r.read_u64();
    rng_.load(r);
    bits_ = r.read_u64();
    pos_ = static_cast<unsigned>(r.read_u64());
    open_ = r.read_bool();
  }

 private:
  static constexpr unsigned kWordBits = 64;

  void refill() noexcept {
    bits_ = 0;
    for (unsigned k = 0; k < kWordBits; ++k) {
      bits_ |= static_cast<std::uint64_t>(rng_.next_bool(rate_)) << k;
    }
  }

  double rate_ = 1.0;
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t bits_ = 0;
  unsigned pos_ = kWordBits;
  bool open_ = true;
};

}  // namespace mte::sim
