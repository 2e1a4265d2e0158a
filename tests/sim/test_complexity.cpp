// The complexity gate (`ctest -L complexity`): machine-independent work
// counters, read over the same run at design sizes n and 2n, may grow by
// at most 2.4x. A counter that grows quadratically reads ~4x and fails
// loudly, whatever the host's speed.
#include <gtest/gtest.h>

#include <cstdint>

#include "chain_circuit.hpp"

namespace mte::sim {
namespace {

constexpr double kMaxGrowth = 2.4;

struct FillRun {
  std::uint64_t relevel_work = 0;
  std::uint64_t delivered = 0;
};

/// The first 2n cycles from reset of an n-stage chain: the fill wave and
/// as long again.
FillRun run_fill(std::size_t stages, KernelKind kernel) {
  auto e = chaintest::elaborate_chain(stages, kernel);
  e->simulator().run(2 * stages);
  return {e->simulator().relevel_work(), e->mt_sink("snk").total_count()};
}

TEST(Complexity, RelevelWorkGrowsLinearlyOverTheFill) {
  constexpr std::size_t kSmall = 250;
  const FillRun small = run_fill(kSmall, KernelKind::kEventDriven);
  const FillRun large = run_fill(2 * kSmall, KernelKind::kEventDriven);
  ASSERT_GT(small.delivered, 0u) << "the wave must reach the sink";
  EXPECT_EQ(small.delivered, run_fill(kSmall, KernelKind::kNaive).delivered);
  EXPECT_EQ(large.delivered, run_fill(2 * kSmall, KernelKind::kNaive).delivered);

  ASSERT_GT(small.relevel_work, 0u);
  const double growth =
      static_cast<double>(large.relevel_work) / static_cast<double>(small.relevel_work);
  EXPECT_LE(growth, kMaxGrowth) << "relevel work " << small.relevel_work << " at " << kSmall
                                << " stages, " << large.relevel_work << " at " << 2 * kSmall;
}

}  // namespace
}  // namespace mte::sim
