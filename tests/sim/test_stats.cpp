#include <gtest/gtest.h>

#include "stats/histogram.hpp"

namespace mte::stats {
namespace {

TEST(Histogram, BasicMoments) {
  Histogram h;
  h.add(1);
  h.add(2);
  h.add(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h;
  h.add(10, 5);
  h.add(20, 5);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.percentile(0.5), 50u);
  EXPECT_EQ(h.percentile(0.99), 99u);
  EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.add(7);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  h.add(3);
  EXPECT_EQ(h.min(), 3u);
}

}  // namespace
}  // namespace mte::stats
