// The second level's memory-repair pass: when the latency-greedy strategy
// choice overflows a set's DRAM, the heaviest layers are re-sharded with
// residency-minimising strategies (where SS earns its keep).
#include <gtest/gtest.h>

#include "test_support.h"
#include "mars/core/second_level.h"

namespace mars::core {
namespace {

using testing::TightFixture;

TEST(MemoryRepair, AmpleDramNeedsNoRepair) {
  TightFixture fx(1024.0);
  const SecondLevelSearch search(fx.problem, SecondLevelConfig{});
  const SecondLevelResult result = search.greedy(fx.whole_network_on_group());
  EXPECT_TRUE(result.cost.memory_ok);
}

TEST(MemoryRepair, TightDramTriggersRepairToFeasibility) {
  // VGG16 on 4 accelerators: FC weights alone are ~59 MiB per card with
  // plain 4-way ES; only rotating shared shards reach 1/8 residency.
  TightFixture fx(48.0);
  const SecondLevelSearch search(fx.problem, SecondLevelConfig{});
  const SecondLevelResult result = search.greedy(fx.whole_network_on_group());
  EXPECT_TRUE(result.cost.memory_ok)
      << "footprint " << result.cost.footprint.total().mib() << " MiB";
  // The repair must have introduced SS somewhere (the only way down).
  bool any_ss = false;
  for (const parallel::Strategy& s : result.strategies) {
    any_ss = any_ss || s.has_ss();
  }
  EXPECT_TRUE(any_ss);
}

TEST(MemoryRepair, EsOnlyCannotAlwaysBeRepaired) {
  TightFixture fx(48.0);
  SecondLevelConfig config;
  config.enable_ss = false;
  const SecondLevelSearch search(fx.problem, config);
  const SecondLevelResult result = search.greedy(fx.whole_network_on_group());
  // Without SS the FC residency floor is weight/4 > 48 MiB: infeasible,
  // but the repair must still return the best effort with a finite
  // penalty.
  EXPECT_FALSE(result.cost.memory_ok);
  EXPECT_TRUE(result.cost.penalized.finite());
  EXPECT_GT(result.cost.penalized.count(), result.cost.latency.total().count());
}

TEST(MemoryRepair, RepairedStrategiesStillFit) {
  TightFixture fx(48.0);
  const SecondLevelSearch search(fx.problem, SecondLevelConfig{});
  const LayerAssignment skeleton = fx.whole_network_on_group();
  const SecondLevelResult result = search.greedy(skeleton);
  ASSERT_EQ(static_cast<int>(result.strategies.size()), fx.spine.size());
  for (int l = 0; l < fx.spine.size(); ++l) {
    EXPECT_TRUE(result.strategies[static_cast<std::size_t>(l)].fits(
        fx.spine.node(l).shape, 4));
  }
}

TEST(MemoryRepair, DeterministicUnderRepair) {
  TightFixture fx(48.0);
  const SecondLevelSearch search(fx.problem, SecondLevelConfig{});
  const SecondLevelResult a = search.greedy(fx.whole_network_on_group());
  const SecondLevelResult b = search.greedy(fx.whole_network_on_group());
  EXPECT_EQ(a.strategies, b.strategies);
}

}  // namespace
}  // namespace mars::core
