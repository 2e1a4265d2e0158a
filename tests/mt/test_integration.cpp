// Integration: complete multithreaded elastic systems assembled from all
// the paper's primitives at once — the structures a synthesis tool would
// emit. These tests exercise cross-primitive interactions (arbitration
// through joins, barriers behind MEBs, shared servers inside diamonds)
// that the per-component tests cannot.
#include <gtest/gtest.h>

#include <unordered_map>

#include "mt/barrier.hpp"
#include "mt/full_meb.hpp"
#include "mt/m_fork.hpp"
#include "mt/m_join.hpp"
#include "mt/mt_channel.hpp"
#include "mt/mt_function_unit.hpp"
#include "mt/mt_sink.hpp"
#include "mt/mt_source.hpp"
#include "mt/mt_var_latency.hpp"
#include "mt/reduced_meb.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"

namespace mte::mt {
namespace {

using Token = std::uint64_t;

std::vector<Token> thread_tokens(std::size_t thread, std::size_t n) {
  std::vector<Token> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = thread * 1000 + i;
  return v;
}

// fork -> (buffered compute path with a shared variable-latency unit /
// direct path) -> join, all multithreaded, with reduced MEBs.
TEST(Integration, DiamondWithSharedVarLatencyUnit) {
  const std::size_t threads = 4;
  sim::Simulator s;
  MtChannel<Token> in(s, "in", threads), fin(s, "fin", threads);
  MtChannel<Token> pa(s, "pa", threads), pb(s, "pb", threads);
  MtChannel<Token> pa_b(s, "pa_b", threads), pb_vl(s, "pb_vl", threads),
      pb_b(s, "pb_b", threads);
  MtSource<Token> src(s, "src", in);
  MFork<Token> fork(s, "fork", in, {&pa, &pb});
  ReducedMeb<Token> meb_a(s, "meb_a", pa, pa_b);
  MtVarLatencyUnit<Token> vl(s, "vl", pb, pb_vl);
  ReducedMeb<Token> meb_b(s, "meb_b", pb_vl, pb_b);
  MJoin<Token, Token, Token> join(
      s, "join", pa_b, pb_b, fin,
      [](const Token& a, const Token& b) { return a * 1000000 + b; });
  MtSink<Token> sink(s, "sink", fin);
  vl.set_function([](const Token& x) { return x + 7; });
  vl.set_latency_range(1, 4, 55);
  for (std::size_t t = 0; t < threads; ++t) src.set_tokens(t, thread_tokens(t, 12));

  s.reset();
  s.run(3000);
  for (std::size_t t = 0; t < threads; ++t) {
    ASSERT_EQ(sink.count(t), 12u) << "thread " << t;
    for (std::size_t i = 0; i < 12; ++i) {
      const Token tok = t * 1000 + i;
      EXPECT_EQ(sink.received(t)[i], tok * 1000000 + (tok + 7));
    }
  }
}

// source -> MEB -> barrier -> compute -> MEB -> sink, several phases,
// with per-thread random backpressure: phases never interleave.
TEST(Integration, BarrierPhasedComputeUnderBackpressure) {
  const std::size_t threads = 4;
  sim::Simulator s;
  MtChannel<Token> c0(s, "c0", threads), c1(s, "c1", threads), c2(s, "c2", threads),
      c3(s, "c3", threads), c4(s, "c4", threads);
  MtSource<Token> src(s, "src", c0);
  ReducedMeb<Token> meb0(s, "meb0", c0, c1);
  Barrier<Token> barrier(s, "bar", c1, c2);
  MtFunctionUnit<Token, Token> fu(s, "fu", c2, c3,
                                  [](const Token& x) { return x * 2; });
  FullMeb<Token> meb1(s, "meb1", c3, c4);
  MtSink<Token> sink(s, "sink", c4);
  for (std::size_t t = 0; t < threads; ++t) {
    src.set_tokens(t, thread_tokens(t, 6));
    src.set_rate(t, 0.5, 31 + t);
    sink.set_rate(t, 0.6, 41 + t);
  }
  s.reset();
  s.run(5000);
  EXPECT_EQ(barrier.releases(), 6u);
  for (std::size_t t = 0; t < threads; ++t) {
    ASSERT_EQ(sink.count(t), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(sink.received(t)[i], (t * 1000 + i) * 2);
    }
  }
  // Phase discipline: in global arrival order, all of phase k's tokens
  // precede any of phase k+2's (adjacent phases may overlap while the
  // pipeline drains, but a two-phase gap is impossible).
  const auto& order = sink.order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const auto phase_i = order[i].second / 2 % 1000;
      const auto phase_j = order[j].second / 2 % 1000;
      EXPECT_LE(phase_i, phase_j + 1) << "phase inversion at " << i << "," << j;
    }
  }
}

// Two-stage MEB pipeline observed from a cycle observer: per-thread
// throughput symmetry and bounded inject-to-retire latency.
TEST(Integration, StatsInstrumentation) {
  const std::size_t threads = 4;
  sim::Simulator s;
  MtChannel<Token> c0(s, "c0", threads), c1(s, "c1", threads), c2(s, "c2", threads);
  MtSource<Token> src(s, "src", c0);
  ReducedMeb<Token> m0(s, "m0", c0, c1), m1(s, "m1", c1, c2);
  MtSink<Token> sink(s, "sink", c2);
  for (std::size_t t = 0; t < threads; ++t) {
    src.set_generator(t, [t](std::uint64_t i) { return t * 100000 + i; });
  }
  constexpr sim::Cycle kCycles = 1000;
  std::vector<std::uint64_t> retired(threads, 0);
  std::unordered_map<Token, sim::Cycle> in_flight;  // token -> inject cycle
  stats::Histogram latency;
  s.on_cycle([&](sim::Cycle c) {
    if (c0.fired_thread() < threads) in_flight[c0.data.get()] = c;
    const std::size_t to = c2.fired_thread();
    if (to < threads) {
      ++retired[to];
      const auto it = in_flight.find(c2.data.get());
      ASSERT_TRUE(it != in_flight.end());
      latency.add(c - it->second);
      in_flight.erase(it);
    }
  });
  s.reset();
  s.run(kCycles);
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    EXPECT_NEAR(static_cast<double>(retired[t]) / kCycles, 0.25, 0.02) << "thread " << t;
    total += retired[t];
  }
  EXPECT_GE(static_cast<double>(total) / kCycles, 0.98);
  // Latency through 2 stages at 4-way sharing: small and bounded.
  EXPECT_GE(latency.min(), 2u);
  EXPECT_LE(latency.max(), 16u);
  EXPECT_LE(in_flight.size(), 2u * (threads + 1));
}

// Deep pipeline: 6 reduced-MEB stages, 8 threads, random rates — the
// kind of structure the MT transform emits for a synthesized kernel.
TEST(Integration, DeepPipelineConservation) {
  const std::size_t threads = 8, stages = 6;
  sim::Simulator s;
  std::vector<MtChannel<Token>*> chans;
  for (std::size_t i = 0; i <= stages; ++i) {
    const std::string id = std::to_string(i);
    chans.push_back(&s.make<MtChannel<Token>>(s, "c" + id, threads));
  }
  MtSource<Token> src(s, "src", *chans.front());
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string id = std::to_string(i);
    s.make<ReducedMeb<Token>>(s, "m" + id, *chans[i], *chans[i + 1]);
  }
  MtSink<Token> sink(s, "sink", *chans.back());
  for (std::size_t t = 0; t < threads; ++t) {
    src.set_tokens(t, thread_tokens(t, 30));
    src.set_rate(t, 0.4 + 0.07 * t, 61 + t);
    sink.set_rate(t, 0.35 + 0.08 * t, 71 + t);
  }
  s.reset();
  s.run(6000);
  for (std::size_t t = 0; t < threads; ++t) {
    EXPECT_EQ(sink.received(t), thread_tokens(t, 30)) << "thread " << t;
  }
}

}  // namespace
}  // namespace mte::mt
