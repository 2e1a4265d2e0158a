#include <gtest/gtest.h>

#include "mt/meb_control.hpp"

namespace mte::mt {
namespace {

constexpr std::size_t kNone = 3;  // "no thread" marker for a 3-thread control

TEST(ReducedMebControl, InitialState) {
  ReducedMebControl c(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.state(i), EbState::kEmpty);
    EXPECT_TRUE(c.ready_out(i));
    EXPECT_FALSE(c.has_data(i));
  }
  EXPECT_FALSE(c.shared_full());
}

TEST(ReducedMebControl, ArrivalMovesToHalf) {
  ReducedMebControl c(3);
  const auto ops = c.commit(/*in=*/1, /*out=*/kNone);
  EXPECT_TRUE(ops.store_main);
  EXPECT_EQ(ops.in_thread, 1u);
  EXPECT_EQ(c.state(1), EbState::kHalf);
  EXPECT_TRUE(c.has_data(1));
  EXPECT_FALSE(c.shared_full());
}

TEST(ReducedMebControl, SecondArrivalClaimsSharedSlot) {
  ReducedMebControl c(3);
  c.commit(1, kNone);
  const auto ops = c.commit(1, kNone);
  EXPECT_TRUE(ops.store_shared);
  EXPECT_FALSE(ops.store_main);
  EXPECT_EQ(c.state(1), EbState::kFull);
  EXPECT_TRUE(c.shared_full());
  EXPECT_EQ(c.shared_owner(0), 1u);
}

TEST(ReducedMebControl, SharedSlotBlocksOtherHalfThreads) {
  ReducedMebControl c(3);
  c.commit(0, kNone);  // thread 0 HALF
  c.commit(2, kNone);  // thread 2 HALF
  c.commit(0, kNone);  // thread 0 FULL, shared taken
  EXPECT_TRUE(c.shared_full());
  // Thread 2 is HALF but must not accept (would need the shared slot).
  EXPECT_FALSE(c.ready_out(2));
  // An EMPTY thread still accepts into its own main slot.
  EXPECT_TRUE(c.ready_out(1));
  // The FULL thread itself cannot accept either.
  EXPECT_FALSE(c.ready_out(0));
}

TEST(ReducedMebControl, DequeueFromFullRefillsFromShared) {
  ReducedMebControl c(3);
  c.commit(1, kNone);
  c.commit(1, kNone);  // FULL
  const auto ops = c.commit(kNone, 1);
  EXPECT_TRUE(ops.refill_main);
  EXPECT_EQ(ops.out_thread, 1u);
  EXPECT_EQ(c.state(1), EbState::kHalf);
  EXPECT_FALSE(c.shared_full());
  // Shared slot freed: other HALF threads become ready again.
  c.commit(0, kNone);
  EXPECT_TRUE(c.ready_out(0));
}

TEST(ReducedMebControl, DequeueFromHalfEmpties) {
  ReducedMebControl c(3);
  c.commit(2, kNone);
  const auto ops = c.commit(kNone, 2);
  EXPECT_FALSE(ops.refill_main);
  EXPECT_EQ(c.state(2), EbState::kEmpty);
}

TEST(ReducedMebControl, SimultaneousInOutSameThreadStaysHalf) {
  ReducedMebControl c(3);
  c.commit(0, kNone);  // HALF
  const auto ops = c.commit(0, 0);
  EXPECT_TRUE(ops.store_main);  // dequeued and refilled main in one cycle
  EXPECT_FALSE(ops.store_shared);
  EXPECT_EQ(c.state(0), EbState::kHalf);
  EXPECT_FALSE(c.shared_full());
}

TEST(ReducedMebControl, SimultaneousInOutDifferentThreads) {
  ReducedMebControl c(3);
  c.commit(0, kNone);
  c.commit(1, kNone);
  const auto ops = c.commit(/*in=*/2, /*out=*/0);
  EXPECT_TRUE(ops.store_main);
  EXPECT_EQ(ops.in_thread, 2u);
  EXPECT_EQ(c.state(0), EbState::kEmpty);
  EXPECT_EQ(c.state(2), EbState::kHalf);
}

TEST(ReducedMebControl, OutputFromEmptyThrows) {
  ReducedMebControl c(2);
  EXPECT_THROW(c.commit(2, 0), sim::ProtocolError);
}

TEST(ReducedMebControl, AcceptIntoFullThrows) {
  ReducedMebControl c(2);
  c.commit(0, 2);
  c.commit(0, 2);  // FULL
  EXPECT_THROW(c.commit(0, 2), sim::ProtocolError);
}

TEST(ReducedMebControl, TotalOccupancyBoundedBySlots) {
  // Fill every thread's main slot plus the shared slot: S+1 items max.
  ReducedMebControl c(3);
  c.commit(0, 3);
  c.commit(1, 3);
  c.commit(2, 3);
  c.commit(0, 3);  // thread 0 claims shared
  EXPECT_EQ(c.total_occupancy(), 4);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(c.ready_out(i));
}

TEST(ReducedMebControl, ResetClearsEverything) {
  ReducedMebControl c(2);
  c.commit(0, 2);
  c.commit(0, 2);
  c.reset();
  EXPECT_EQ(c.state(0), EbState::kEmpty);
  EXPECT_FALSE(c.shared_full());
  EXPECT_EQ(c.shared_owner(0), 2u);
}

TEST(ReducedMebControl, PoolOfTwoClaimsLowestFreeSlotFirst) {
  ReducedMebControl c(3, 2);
  for (std::size_t t = 0; t < 3; ++t) c.commit(t, kNone);  // all HALF
  EXPECT_EQ(c.commit(1, kNone).in_slot, 0u);
  EXPECT_EQ(c.commit(2, kNone).in_slot, 1u);
  EXPECT_TRUE(c.shared_full());
  EXPECT_FALSE(c.ready_out(0));  // HALF, but both slots are held
  // Thread 1 dequeues: its main register refills from slot 0, which frees.
  const auto ops = c.commit(kNone, 1);
  EXPECT_TRUE(ops.refill_main);
  EXPECT_EQ(ops.out_slot, 0u);
  EXPECT_EQ(c.shared_owner(0), 3u);
  EXPECT_EQ(c.shared_owner(1), 2u);
  EXPECT_TRUE(c.ready_out(0));
  // Thread 2 frees slot 1 too; the next claim still takes slot 0.
  EXPECT_EQ(c.commit(kNone, 2).out_slot, 1u);
  EXPECT_EQ(c.shared_used(), 0u);
  const auto claim = c.commit(0, kNone);
  EXPECT_TRUE(claim.store_shared);
  EXPECT_EQ(claim.in_slot, 0u);
  EXPECT_EQ(c.shared_owner(0), 0u);
}

TEST(ReducedMebControl, PoolOfTwoRecyclesSlotAcrossThreads) {
  ReducedMebControl c(3, 2);
  c.commit(0, kNone);
  c.commit(0, kNone);  // thread 0 FULL in slot 0
  c.commit(1, kNone);  // thread 1 HALF
  EXPECT_EQ(c.shared_owner(0), 0u);
  c.commit(kNone, 0);  // thread 0 drains to HALF: slot 0 frees
  c.commit(kNone, 0);  // ... and to EMPTY
  EXPECT_EQ(c.shared_owner(0), 3u);
  const auto ops = c.commit(1, kNone);  // thread 1 claims the recycled slot
  EXPECT_EQ(ops.in_slot, 0u);
  EXPECT_EQ(c.shared_owner(0), 1u);
  EXPECT_EQ(c.state(1), EbState::kFull);
  EXPECT_EQ(c.shared_used(), 1u);
  EXPECT_FALSE(c.shared_full());
  EXPECT_EQ(c.commit(kNone, 1).out_slot, 0u);
}

// Invariant sweep: random legal traffic never creates two FULL threads
// and occupancy never exceeds S+1.
TEST(ReducedMebControl, RandomTrafficInvariants) {
  ReducedMebControl c(4);
  std::uint64_t lcg = 12345;
  auto rnd = [&lcg](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % bound;
  };
  for (int step = 0; step < 20000; ++step) {
    // Choose a legal input (a ready thread or none) and a legal output
    // (a thread with data or none).
    std::size_t in = 4, out = 4;
    if (rnd(2) == 0) {
      const std::size_t cand = rnd(4);
      if (c.ready_out(cand)) in = cand;
    }
    if (rnd(2) == 0) {
      const std::size_t cand = rnd(4);
      if (c.has_data(cand)) out = cand;
    }
    c.commit(in, out);
    int full_threads = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      full_threads += c.state(i) == EbState::kFull ? 1 : 0;
    }
    ASSERT_LE(full_threads, 1);
    ASSERT_EQ(full_threads == 1, c.shared_full());
    ASSERT_LE(c.total_occupancy(), 5);
  }
}

}  // namespace
}  // namespace mte::mt
