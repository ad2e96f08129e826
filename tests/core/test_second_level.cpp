#include "mars/core/second_level.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace mars::core {
namespace {

using testing::AdaptiveFixture;

class SecondLevelTest : public ::testing::Test {
 protected:
  SecondLevelTest() : search_(fx_.problem, SecondLevelConfig{}) {}

  LayerAssignment skeleton(int begin, int end, topology::AccMask accs = 0b1111,
                           accel::DesignId design = 0) const {
    LayerAssignment set;
    set.accs = accs;
    set.design = design;
    set.begin = begin;
    set.end = end;
    return set;
  }

  AdaptiveFixture fx_;
  SecondLevelSearch search_;
};

TEST_F(SecondLevelTest, DecodeProducesFittingStrategies) {
  const graph::ConvShape& shape = fx_.spine.node(1).shape;
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> genes(SecondLevelSearch::kGenesPerLayer);
    for (double& g : genes) g = rng.uniform();
    const parallel::Strategy s = search_.decode_layer(shape, 4, genes.data());
    EXPECT_TRUE(s.fits(shape, 4)) << s.to_string();
  }
}

TEST_F(SecondLevelTest, DecodeRespectsPriorities) {
  const graph::ConvShape& shape = fx_.spine.node(1).shape;
  std::vector<double> genes(SecondLevelSearch::kGenesPerLayer, 0.0);
  // Factorization 0 of p=4 is {4}; push H to the top of the ES priorities.
  genes[0] = 0.0;
  genes[1] = 0.0;  // no SS
  genes[2 + static_cast<int>(parallel::Dim::kH)] = 1.0;
  const parallel::Strategy s = search_.decode_layer(shape, 4, genes.data());
  EXPECT_EQ(s.ways_of(parallel::Dim::kH), 4);
  EXPECT_FALSE(s.has_ss());
}

TEST_F(SecondLevelTest, DecodeSsEnableGene) {
  const graph::ConvShape& shape = fx_.spine.node(1).shape;
  std::vector<double> genes(SecondLevelSearch::kGenesPerLayer, 0.0);
  genes[1] = 1.0;  // SS on
  genes[2 + static_cast<int>(parallel::Dim::kH)] = 1.0;   // ES on H
  genes[8 + static_cast<int>(parallel::Dim::kCout)] = 1.0;  // SS prefers Cout
  const parallel::Strategy s = search_.decode_layer(shape, 4, genes.data());
  ASSERT_TRUE(s.has_ss());
  EXPECT_EQ(*s.ss(), parallel::Dim::kCout);
}

TEST_F(SecondLevelTest, DecodeDisablesSsWhenConfigured) {
  SecondLevelConfig config;
  config.enable_ss = false;
  const SecondLevelSearch no_ss(fx_.problem, config);
  const graph::ConvShape& shape = fx_.spine.node(1).shape;
  std::vector<double> genes(SecondLevelSearch::kGenesPerLayer, 1.0);
  const parallel::Strategy s = no_ss.decode_layer(shape, 4, genes.data());
  EXPECT_FALSE(s.has_ss());
}

TEST_F(SecondLevelTest, DecodeSingleAccelerator) {
  std::vector<double> genes(SecondLevelSearch::kGenesPerLayer, 0.5);
  const parallel::Strategy s =
      search_.decode_layer(fx_.spine.node(0).shape, 1, genes.data());
  EXPECT_EQ(s.es_ways(), 1);
}

TEST_F(SecondLevelTest, GreedyCoversRangeAndIsDeterministic) {
  const LayerAssignment set = skeleton(0, fx_.spine.size());
  const SecondLevelResult a = search_.greedy(set);
  const SecondLevelResult b = search_.greedy(set);
  ASSERT_EQ(static_cast<int>(a.strategies.size()), fx_.spine.size());
  EXPECT_EQ(a.strategies, b.strategies);
  EXPECT_GT(a.cost.latency.compute.count(), 0.0);
  for (int l = 0; l < fx_.spine.size(); ++l) {
    EXPECT_TRUE(a.strategies[static_cast<std::size_t>(l)].fits(
        fx_.spine.node(l).shape, 4));
  }
}

TEST_F(SecondLevelTest, GreedyBeatsWorstEnumerated) {
  // Greedy must beat the per-layer WORST choice by a wide margin.
  const LayerAssignment set = skeleton(0, 5);
  const SecondLevelResult greedy = search_.greedy(set);

  const AnalyticalCostModel& model = search_.model();
  LayerAssignment worst = set;
  for (int l = 0; l < 5; ++l) {
    const auto options =
        parallel::enumerate_strategies(fx_.spine.node(l).shape, 4, 3);
    const parallel::Strategy* worst_s = nullptr;
    Seconds worst_t(0.0);
    for (const parallel::Strategy& option : options) {
      const LayerCost cost = model.layer_cost(set, l, option, std::nullopt,
                                               model.internal_bandwidth(set));
      if (worst_s == nullptr || cost.total() > worst_t) {
        worst_s = &option;
        worst_t = cost.total();
      }
    }
    worst.strategies.push_back(*worst_s);
  }
  EXPECT_LT(greedy.cost.latency.total().count(),
            model.set_cost(worst).latency.total().count());
}

TEST_F(SecondLevelTest, RefineNeverWorseThanGreedySeed) {
  const LayerAssignment set = skeleton(0, 5);
  const SecondLevelResult greedy = search_.greedy(set);
  Rng rng(7);
  const SecondLevelResult refined =
      search_.refine(set, rng, &greedy.strategies);
  EXPECT_LE(refined.cost.penalized.count(),
            greedy.cost.penalized.count() * (1.0 + 1e-9));
}

TEST_F(SecondLevelTest, RefineReportsGaHistory) {
  const LayerAssignment set = skeleton(0, 3);
  Rng rng(8);
  ga::GaResult ga_result;
  (void)search_.refine(set, rng, nullptr, &ga_result);
  EXPECT_GT(ga_result.generations_run, 0);
  EXPECT_FALSE(ga_result.history.empty());
}

TEST_F(SecondLevelTest, TwoAcceleratorSets) {
  const LayerAssignment set = skeleton(0, fx_.spine.size(), 0b0011, 1);
  const SecondLevelResult result = search_.greedy(set);
  for (int l = 0; l < fx_.spine.size(); ++l) {
    EXPECT_TRUE(result.strategies[static_cast<std::size_t>(l)].fits(
        fx_.spine.node(l).shape, 2));
  }
}

TEST_F(SecondLevelTest, GreedyPrefersCheapStrategiesOnSlowLinks) {
  // On a very slow interconnect the greedy must avoid heavy communication:
  // total intra-set time should stay within a modest multiple of compute.
  topology::Topology slow = topology::fully_connected(4, mbps(100.0), mbps(100.0));
  Problem problem = fx_.problem;
  problem.topo = &slow;
  const SecondLevelSearch slow_search(problem, SecondLevelConfig{});
  LayerAssignment set;
  set.accs = 0b1111;
  set.design = 0;
  set.begin = 0;
  set.end = 5;  // conv layers only
  const SecondLevelResult result = slow_search.greedy(set);
  // Compute-only lower bound.
  EXPECT_LT(result.cost.latency.intra_set.count(),
            result.cost.latency.compute.count() * 3.0);
}

TEST_F(SecondLevelTest, DisconnectedSetKeepsTheNamedError) {
  // F1's two groups of four share no direct link.
  const LayerAssignment set = skeleton(0, 3, 0b00010001);
  const auto expect_not_connected = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "expected InvalidArgument";
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find("is not connected"),
                std::string::npos)
          << error.what();
    }
  };
  expect_not_connected([&] { (void)search_.greedy(set); });
  expect_not_connected([&] { (void)search_.model().internal_bandwidth(set); });
  LayerAssignment full = set;
  full.strategies.assign(3, parallel::Strategy(
                                {{parallel::Dim::kCout, 2}}, std::nullopt));
  expect_not_connected([&] { (void)search_.model().set_cost(full); });
}

TEST_F(SecondLevelTest, GreedyRejectsSetSizesOutsideTheTopology) {
  EXPECT_THROW((void)search_.greedy(skeleton(0, 3, 0)), InvalidArgument);
  // Nine members on the eight-accelerator F1.
  EXPECT_THROW((void)search_.greedy(skeleton(0, 3, 0x1FF)), InvalidArgument);
  EXPECT_THROW((void)search_.greedy(skeleton(0, 3, ~topology::AccMask{0})),
               InvalidArgument);
  // A member id past the topology, at a size the table holds.
  EXPECT_THROW((void)search_.greedy(skeleton(0, 3, 0x101)), InvalidArgument);
  EXPECT_THROW((void)search_.greedy(skeleton(0, 3, 0x100)), InvalidArgument);
}

TEST_F(SecondLevelTest, GreedyRejectsLayerRangesOutsideTheSpine) {
  EXPECT_THROW((void)search_.greedy(skeleton(-1, 3)), InvalidArgument);
  EXPECT_THROW((void)search_.greedy(skeleton(2, 2)), InvalidArgument);
  EXPECT_THROW((void)search_.greedy(skeleton(0, fx_.spine.size() + 1)),
               InvalidArgument);
}

}  // namespace
}  // namespace mars::core
