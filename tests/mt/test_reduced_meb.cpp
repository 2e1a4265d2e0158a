#include <gtest/gtest.h>

#include "mt/mt_channel.hpp"
#include "mt/mt_sink.hpp"
#include "mt/mt_source.hpp"
#include "mt/reduced_meb.hpp"
#include "sim/simulator.hpp"

namespace mte::mt {
namespace {

std::vector<std::uint64_t> thread_tokens(std::size_t thread, std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = thread * 1000 + i;
  return v;
}

struct ReducedRig {
  explicit ReducedRig(std::size_t threads, std::size_t shared_slots = 1)
      : in(s, "in", threads), out(s, "out", threads), src(s, "src", in),
        meb(s, "meb", in, out, nullptr, shared_slots), sink(s, "sink", out) {}

  sim::Simulator s;
  MtChannel<std::uint64_t> in;
  MtChannel<std::uint64_t> out;
  MtSource<std::uint64_t> src;
  ReducedMeb<std::uint64_t> meb;
  MtSink<std::uint64_t> sink;
};

TEST(ReducedMeb, SingleThreadFullThroughput) {
  // Sec. III-A: when M = 1 and nothing is blocked, the single active
  // thread gets 100 % throughput (it can use the shared slot on a stall).
  ReducedRig rig(3);
  rig.src.set_generator(0, [](std::uint64_t i) { return i; });
  rig.s.reset();
  rig.s.run(100);
  EXPECT_GE(rig.sink.count(0), 98u);
}

TEST(ReducedMeb, UniformUtilizationMatchesFullMeb) {
  // Sec. III-A: with M active threads each gets 1/M — one main slot per
  // thread suffices, the shared slot is not even needed.
  for (std::size_t threads : {2u, 3u, 4u}) {
    ReducedRig rig(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      rig.src.set_generator(t, [t](std::uint64_t i) { return t * 1000 + i; });
    }
    rig.s.reset();
    rig.s.run(600);
    for (std::size_t t = 0; t < threads; ++t) {
      EXPECT_NEAR(static_cast<double>(rig.sink.count(t)), 600.0 / threads,
                  600.0 / threads * 0.05)
          << "threads=" << threads << " t=" << t;
    }
    EXPECT_GE(rig.sink.total_count(), 590u);
  }
}

TEST(ReducedMeb, PerThreadOrderPreserved) {
  ReducedRig rig(3);
  for (std::size_t t = 0; t < 3; ++t) rig.src.set_tokens(t, thread_tokens(t, 50));
  rig.s.reset();
  rig.s.run(400);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(rig.sink.received(t), thread_tokens(t, 50)) << "thread " << t;
  }
}

TEST(ReducedMeb, StalledThreadClaimsSharedSlot) {
  ReducedRig rig(2);
  rig.src.set_generator(0, [](std::uint64_t i) { return i; });
  rig.src.set_generator(1, [](std::uint64_t i) { return 1000 + i; });
  rig.sink.add_stall_window(1, 0, 50);
  rig.s.reset();
  rig.s.run(50);
  // Thread 1 blocked: its main slot + the shared slot hold its two tokens.
  EXPECT_EQ(rig.meb.occupancy(1), 2);
  EXPECT_TRUE(rig.meb.shared_full());
  EXPECT_EQ(rig.meb.shared_owner(0), 1u);
  // Thread 0 can still flow through its own main slot...
  EXPECT_GT(rig.sink.count(0), 20u);
  // ...but cannot buffer two items: it never exceeds occupancy 1.
  EXPECT_LE(rig.meb.occupancy(0), 1);
}

TEST(ReducedMeb, CornerCaseSingleSurvivorGetsHalfThroughput) {
  // THE characterized difference (Sec. III-A, Fig. 5b): when every thread
  // but one is blocked and the shared slots all the way upstream are
  // occupied by the blocked thread, the surviving thread sees a single
  // slot per stage and is capped at 50 % throughput.
  sim::Simulator s;
  MtChannel<std::uint64_t> c0(s, "c0", 2), c1(s, "c1", 2), c2(s, "c2", 2);
  MtSource<std::uint64_t> src(s, "src", c0);
  ReducedMeb<std::uint64_t> m0(s, "m0", c0, c1), m1(s, "m1", c1, c2);
  MtSink<std::uint64_t> sink(s, "sink", c2);
  src.set_generator(0, [](std::uint64_t i) { return i; });
  src.set_generator(1, [](std::uint64_t i) { return 1000 + i; });
  const sim::Cycle stall_start = 10, stall_end = 210;
  sink.add_stall_window(1, stall_start, stall_end);
  s.reset();
  s.run(stall_end);
  // B data occupies both shared slots; count A's rate over the saturated
  // stall region (skip the first cycles while backpressure propagates).
  const auto a_mid = sink.count(0);
  s.run(0);
  // Measure thread A throughput in a clean window deep inside the stall.
  sim::Simulator s2;
  MtChannel<std::uint64_t> d0(s2, "d0", 2), d1(s2, "d1", 2), d2(s2, "d2", 2);
  MtSource<std::uint64_t> src2(s2, "src", d0);
  ReducedMeb<std::uint64_t> n0(s2, "m0", d0, d1), n1(s2, "m1", d1, d2);
  MtSink<std::uint64_t> sink2(s2, "sink", d2);
  src2.set_generator(0, [](std::uint64_t i) { return i; });
  src2.set_generator(1, [](std::uint64_t i) { return 1000 + i; });
  sink2.add_stall_window(1, 10, 100000);
  s2.reset();
  s2.run(100);  // let the stall saturate
  const auto a0 = sink2.count(0);
  s2.run(200);
  const auto a_rate = static_cast<double>(sink2.count(0) - a0) / 200.0;
  EXPECT_NEAR(a_rate, 0.5, 0.05);  // the paper's 50 % corner case

  // And after the stall releases, B drains in order.
  (void)a_mid;
  sink.add_stall_window(1, 0, 0);
  s.run(200);
  EXPECT_GT(sink.count(1), 50u);
  for (std::size_t i = 1; i < sink.received(1).size(); ++i) {
    EXPECT_LT(sink.received(1)[i - 1], sink.received(1)[i]);
  }
}

TEST(ReducedMeb, CapacityIsThreadsPlusOne) {
  ReducedRig rig(7);
  EXPECT_EQ(rig.meb.capacity(), 8u);
}

TEST(ReducedMeb, ConservationUnderRandomRates) {
  ReducedRig rig(4);
  for (std::size_t t = 0; t < 4; ++t) {
    rig.src.set_tokens(t, thread_tokens(t, 60));
    rig.src.set_rate(t, 0.5 + 0.1 * t, 300 + t);
    rig.sink.set_rate(t, 0.4 + 0.15 * t, 400 + t);
  }
  rig.s.reset();
  rig.s.run(4000);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(rig.sink.received(t), thread_tokens(t, 60)) << "thread " << t;
  }
}

TEST(ReducedMeb, OnlyOneValidPerCycle) {
  ReducedRig rig(4);
  for (std::size_t t = 0; t < 4; ++t) {
    rig.src.set_generator(t, [t](std::uint64_t i) { return t * 1000 + i; });
  }
  bool ok = true;
  rig.s.on_cycle([&](sim::Cycle) {
    int valids = 0;
    for (std::size_t t = 0; t < 4; ++t) valids += rig.out.valid(t).get() ? 1 : 0;
    if (valids > 1) ok = false;
  });
  rig.s.reset();
  rig.s.run(200);
  EXPECT_TRUE(ok);
}

TEST(ReducedMeb, SharedSlotReleaseTakesOneCycleToReopen) {
  // Paper: "The shared buffer cannot receive a new word in the same cycle
  // since its availability will appear on the upstream channel in the
  // next clock cycle."
  sim::Simulator s;
  MtChannel<std::uint64_t> in(s, "in", 2), out(s, "out", 2);
  MtSource<std::uint64_t> src(s, "src", in);
  ReducedMeb<std::uint64_t> meb(s, "meb", in, out);
  MtSink<std::uint64_t> sink(s, "sink", out);
  src.set_generator(1, [](std::uint64_t i) { return i; });
  sink.add_stall_window(1, 0, 5);
  s.reset();
  s.run(5);
  ASSERT_TRUE(meb.shared_full());
  // Stall ends at cycle 5: thread 1 dequeues (FULL->HALF, shared freed at
  // the edge of cycle 5). During cycle 5 ready(1) upstream is still low.
  s.settle();
  EXPECT_FALSE(in.ready(1).get());
  s.run(1);
  s.settle();
  EXPECT_TRUE(in.ready(1).get());  // reopens one cycle later
}

// --- pool sizes other than the paper's K = 1 --------------------------------

TEST(ReducedMeb, PoolCapacityBookkeeping) {
  ReducedRig rig(4, 2);
  EXPECT_EQ(rig.meb.capacity(), 6u);
  EXPECT_EQ(rig.meb.shared_slots(), 2u);
}

TEST(ReducedMeb, PoolOfZeroCapsSingleThreadAtHalfRate) {
  ReducedRig rig(2, 0);
  rig.src.set_generator(0, [](std::uint64_t i) { return i; });
  rig.s.reset();
  rig.s.run(200);
  EXPECT_NEAR(static_cast<double>(rig.sink.count(0)), 100.0, 5.0);
}

TEST(ReducedMeb, PoolOfThreadsGivesEveryThreadTwoSlots) {
  ReducedRig rig(3, 3);
  for (std::size_t t = 0; t < 3; ++t) {
    rig.src.set_generator(t, [t](std::uint64_t i) { return t * 1000 + i; });
    rig.sink.add_stall_window(t, 0, 30);
  }
  rig.s.reset();
  rig.s.run(30);
  // Every thread buffered two items: 3 main + 3 shared slots used.
  EXPECT_EQ(rig.meb.shared_used(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(rig.meb.state(t), elastic::EbState::kFull);
  }
}

TEST(ReducedMeb, PoolConservationAndOrderUnderRandomTraffic) {
  for (std::size_t k : {0u, 1u, 2u, 3u, 4u}) {
    ReducedRig rig(4, k);
    for (std::size_t t = 0; t < 4; ++t) {
      rig.src.set_tokens(t, thread_tokens(t, 40));
      rig.src.set_rate(t, 0.6, 100 + t);
      rig.sink.set_rate(t, 0.5, 200 + t);
    }
    rig.s.reset();
    rig.s.run(3000);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(rig.sink.received(t), thread_tokens(t, 40)) << "k=" << k << " t=" << t;
    }
  }
}

TEST(ReducedMeb, PoolSlotsRecycleAcrossThreads) {
  // Thread 0 claims and releases the single shared slot, then thread 1
  // must be able to claim it.
  ReducedRig rig(2);
  rig.src.set_tokens(0, {1, 2});
  rig.s.reset();
  rig.sink.add_stall_window(0, 0, 10);
  rig.s.run(10);
  EXPECT_EQ(rig.meb.shared_used(), 1u);
  rig.s.run(20);  // drain thread 0
  EXPECT_EQ(rig.meb.shared_used(), 0u);
  rig.src.set_tokens(1, {100, 101});
  // A fresh stall for thread 1 (window relative to current time).
  rig.sink.add_stall_window(1, 0, 1000);
  rig.s.run(20);
  EXPECT_EQ(rig.meb.shared_used(), 1u);
  EXPECT_EQ(rig.meb.state(1), elastic::EbState::kFull);
}

TEST(ReducedMeb, PoolLargerThanThreadsStoresAtMostThreads) {
  // At most S threads can be FULL, so a pool of 2^40 slots stores S
  // shared words: it is built, fills and drains like a pool of S.
  constexpr std::size_t kPool = std::size_t{1} << 40;
  ReducedRig rig(4, kPool);
  EXPECT_EQ(rig.meb.capacity(), 4 + kPool);
  for (std::size_t t = 0; t < 4; ++t) {
    rig.src.set_tokens(t, thread_tokens(t, 30));
    rig.sink.add_stall_window(t, 0, 40);
  }
  rig.s.reset();
  rig.s.run(40);
  EXPECT_EQ(rig.meb.shared_used(), 4u);
  EXPECT_FALSE(rig.meb.shared_full());
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(rig.meb.state(t), elastic::EbState::kFull);
  }
  rig.s.run(400);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(rig.sink.received(t), thread_tokens(t, 30)) << "thread " << t;
  }
  EXPECT_EQ(rig.meb.shared_used(), 0u);
}

}  // namespace
}  // namespace mte::mt
