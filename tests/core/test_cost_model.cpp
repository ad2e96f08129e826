#include "mars/core/cost_model.h"

#include <gtest/gtest.h>

#include "test_support.h"
#include "mars/util/error.h"

namespace mars::core {
namespace {

using testing::AdaptiveFixture;
using testing::FixedFixture;
using testing::two_set_mapping;

class CostModelTest : public ::testing::Test {
 protected:
  AdaptiveFixture fx_;
  AnalyticalCostModel model_{fx_.problem};
};

TEST_F(CostModelTest, ProblemValidation) {
  Problem bad = fx_.problem;
  bad.spine = nullptr;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  Problem fixed = fx_.problem;
  fixed.adaptive = false;  // F1 preset has no fixed designs
  EXPECT_THROW(fixed.validate(), InvalidArgument);
}

TEST_F(CostModelTest, LayerCostPositiveAndDecomposed) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const LayerAssignment& set = mapping.sets.front();
  const LayerCost cost =
      model_.layer_cost(set, 0, set.strategies.front(), std::nullopt,
                        model_.internal_bandwidth(set));
  EXPECT_GT(cost.compute.count(), 0.0);
  EXPECT_GT(cost.intra_set.count(), 0.0);  // entry scatter at least
  EXPECT_DOUBLE_EQ(cost.total().count(),
                   cost.compute.count() + cost.intra_set.count());
}

TEST_F(CostModelTest, ComputeMatchesDesignModelTimesPhases) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const LayerAssignment& set = mapping.sets.front();
  const parallel::Strategy ss_strategy({{parallel::Dim::kH, 4}},
                                       parallel::Dim::kCout);
  const LayerCost cost = model_.layer_cost(
      set, 0, ss_strategy, std::nullopt, model_.internal_bandwidth(set));
  const parallel::ShardingPlan plan = parallel::make_plan(
      fx_.spine.node(0).shape, fx_.spine.dtype(), ss_strategy, 4);
  const Seconds per_phase = fx_.designs.design(set.design)
                                .conv_latency(plan.local, fx_.spine.dtype());
  EXPECT_GE(cost.compute.count(), per_phase.count() * plan.phases);
}

TEST_F(CostModelTest, AllReduceChargedForReductionES) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const LayerAssignment& set = mapping.sets.front();
  const parallel::ActivationSharding upstream{1, 1, 1};  // aligned: no reshard
  const Bandwidth bw = model_.internal_bandwidth(set);

  const parallel::Strategy no_red({{parallel::Dim::kCout, 4}}, std::nullopt);
  const parallel::Strategy with_red({{parallel::Dim::kCin, 4}}, std::nullopt);
  // Layer 1 (conv2) has Cin = 64.
  const LayerCost a = model_.layer_cost(set, 1, no_red, upstream, bw);
  const LayerCost b = model_.layer_cost(set, 1, with_red, upstream, bw);
  EXPECT_GT(b.intra_set.count(), a.intra_set.count());
}

TEST_F(CostModelTest, SsPhasesPayRingHops) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const LayerAssignment& set = mapping.sets.front();
  const parallel::ActivationSharding upstream{1, 4, 1};
  const Bandwidth bw = model_.internal_bandwidth(set);

  const parallel::Strategy plain({{parallel::Dim::kH, 4}}, std::nullopt);
  const parallel::Strategy shared({{parallel::Dim::kH, 4}}, parallel::Dim::kCout);
  const LayerCost a = model_.layer_cost(set, 1, plain, upstream, bw);
  const LayerCost b = model_.layer_cost(set, 1, shared, upstream, bw);
  EXPECT_GT(b.intra_set.count(), a.intra_set.count());
}

TEST_F(CostModelTest, SetCostAggregatesLayers) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const SetCost cost = model_.set_cost(mapping.sets.front());
  EXPECT_GT(cost.latency.compute.count(), 0.0);
  EXPECT_TRUE(cost.memory_ok);
  EXPECT_DOUBLE_EQ(cost.penalized.count(), cost.latency.total().count());
  EXPECT_GT(cost.footprint.weights.count(), 0.0);
}

TEST_F(CostModelTest, MemoryViolationPenalised) {
  // Shrink DRAM to force a violation.
  topology::Topology tiny("tiny");
  for (int i = 0; i < 2; ++i) {
    tiny.add_accelerator("a" + std::to_string(i), mebibytes(8.0), gbps(2.0));
  }
  tiny.connect(0, 1, gbps(8.0));
  Problem problem = fx_.problem;
  problem.topo = &tiny;
  const AnalyticalCostModel model(problem);

  LayerAssignment set;
  set.accs = 0b11;
  set.design = 0;
  set.begin = 0;
  set.end = fx_.spine.size();
  for (int l = 0; l < fx_.spine.size(); ++l) {
    set.strategies.emplace_back(
        std::vector<parallel::DimSplit>{{parallel::Dim::kCout, 2}}, std::nullopt);
  }
  const SetCost cost = model.set_cost(set);
  EXPECT_FALSE(cost.memory_ok);  // AlexNet/2 ~ 61 MB >> 8 MiB
  EXPECT_GT(cost.penalized.count(), cost.latency.total().count());
  EXPECT_TRUE(cost.penalized.finite());
}

TEST_F(CostModelTest, InterSetTimeUsesBestRoute) {
  // Within a group: direct 8 Gb/s. Across groups: two 2 Gb/s host legs.
  const Bytes payload(1e6);
  const Seconds direct = model_.inter_set_time(0b0011, 0b1100, payload);
  const Seconds via_host = model_.inter_set_time(0b00001111, 0b11110000, payload);
  EXPECT_LT(direct.count(), via_host.count());
  EXPECT_NEAR(direct.count(), 1e6 / 1e9, 1e-4);
  EXPECT_GT(via_host.count(), 2.0 * 1e6 / 0.25e9);
  EXPECT_DOUBLE_EQ(model_.inter_set_time(1, 2, Bytes(0.0)).count(), 0.0);
}

TEST_F(CostModelTest, EvaluateFullMapping) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  const EvaluationSummary summary = model_.evaluate(mapping);
  EXPECT_GT(summary.analytic.compute.count(), 0.0);
  EXPECT_GT(summary.analytic.inter_set.count(), 0.0);
  EXPECT_GT(summary.analytic.host_io.count(), 0.0);
  EXPECT_TRUE(summary.memory_ok);
  EXPECT_GT(summary.worst_set_footprint.count(), 0.0);
  // AlexNet on 8 accelerators lands in the sub-100ms regime.
  EXPECT_LT(summary.analytic.total().count(), 0.1);
  EXPECT_GT(summary.analytic.total().count(), 1e-5);
}

TEST_F(CostModelTest, MoreAcceleratorsReduceComputeTime) {
  // Same layers on 2 vs 4 accelerators (same design, Cout split).
  LayerAssignment two;
  two.accs = 0b0011;
  two.design = 0;
  two.begin = 0;
  two.end = 5;
  LayerAssignment four;
  four.accs = 0b1111;
  four.design = 0;
  four.begin = 0;
  four.end = 5;
  for (int l = 0; l < 5; ++l) {
    two.strategies.emplace_back(
        std::vector<parallel::DimSplit>{{parallel::Dim::kCout, 2}}, std::nullopt);
    four.strategies.emplace_back(
        std::vector<parallel::DimSplit>{{parallel::Dim::kCout, 4}}, std::nullopt);
  }
  EXPECT_LT(model_.set_cost(four).latency.compute.count(),
            model_.set_cost(two).latency.compute.count());
}

TEST_F(CostModelTest, LayerEnergyClosedForm) {
  // Adaptive mode: the set's configured design pays for every MAC plus
  // its own DRAM traffic (recovered from the roofline term) and the
  // layer's fused bytes, at the documented per-byte price. Strategy-
  // independent by design — parallelising moves work, not work done.
  const Mapping mapping = two_set_mapping(fx_.problem);
  const LayerAssignment& set = mapping.sets.front();
  const accel::AcceleratorDesign& design = fx_.designs.design(set.design);
  const graph::ConvShape& shape = fx_.spine.node(0).shape;
  const double traffic =
      design.conv_cycles(shape, fx_.spine.dtype()).dram *
          design.dram_bytes_per_cycle() +
      fx_.spine.node(0).fused_traffic.count();
  const double expected = design.energy_per_mac().count() * shape.macs() +
                          kDramPicojoulesPerByte * 1e-12 * traffic;
  EXPECT_DOUBLE_EQ(model_.layer_energy(set, 0).count(), expected);
  EXPECT_GT(expected, 0.0);
}

TEST_F(CostModelTest, MappingEnergySumsLayersPlusLinkTraffic) {
  const Mapping mapping = two_set_mapping(fx_.problem);
  Joules layers{};
  for (const LayerAssignment& set : mapping.sets) {
    for (int layer = set.begin; layer < set.end; ++layer) {
      layers += model_.layer_energy(set, layer);
    }
  }
  const Joules total = model_.mapping_energy(mapping);
  // Link energy: the set-boundary crossing plus model input/output, all
  // at the link price — strictly positive here (two sets in sequence).
  const double min_link =
      kLinkPicojoulesPerByte * 1e-12 *
      (fx_.spine.input_bytes().count() + fx_.spine.output_bytes().count());
  EXPECT_GT(total.count(), layers.count() + min_link - 1e-18);
  // And the evaluator surfaces the same number on the summary.
  EXPECT_DOUBLE_EQ(model_.evaluate(mapping).energy.count(), total.count());
}

TEST_F(CostModelTest, EnergyIsStrategyIndependent) {
  // Re-splitting a layer shifts latency but not the energy charged: the
  // MACs and traffic are the same work on the same design.
  Mapping narrow = two_set_mapping(fx_.problem);
  Mapping wide = two_set_mapping(fx_.problem);
  narrow.sets.front().strategies.front() = parallel::Strategy(
      {{parallel::Dim::kCout, 2}}, std::nullopt);
  wide.sets.front().strategies.front() = parallel::Strategy(
      {{parallel::Dim::kH, 4}}, parallel::Dim::kCout);
  EXPECT_DOUBLE_EQ(model_.mapping_energy(narrow).count(),
                   model_.mapping_energy(wide).count());
}

TEST(CostModelFixed, EnergyAveragesTheMembersDesigns) {
  // Fixed mode: each member design pays a 1/p share. A mixed-design set's
  // per-layer energy is therefore the mean of the members' solo prices.
  FixedFixture fx;
  const AnalyticalCostModel model(fx.problem);
  LayerAssignment mixed;
  mixed.accs = 0b0110;  // one design-0 member, one design-1 member
  mixed.begin = 0;
  mixed.end = 1;
  LayerAssignment only0 = mixed;
  only0.accs = 0b0010;
  LayerAssignment only1 = mixed;
  only1.accs = 0b0100;
  EXPECT_DOUBLE_EQ(
      model.layer_energy(mixed, 0).count(),
      0.5 * (model.layer_energy(only0, 0).count() +
             model.layer_energy(only1, 0).count()));
}

TEST(CostModelFixed, SlowestMemberDominates) {
  FixedFixture fx;
  const AnalyticalCostModel model(fx.problem);

  // A set of two accelerators with different fixed designs: the phase time
  // equals the max of the individual designs. Block assignment puts
  // design 0 on accs {0,1} and design 1 on {2,3}, so {1,2} mixes them.
  LayerAssignment set;
  set.accs = 0b0110;  // designs 0 and 1
  set.begin = 0;
  set.end = 1;
  const graph::ConvShape local = fx.spine.node(0).shape;
  const Seconds t0 =
      fx.designs.design(0).conv_latency(local, fx.spine.dtype());
  const Seconds t1 =
      fx.designs.design(1).conv_latency(local, fx.spine.dtype());
  EXPECT_DOUBLE_EQ(model.phase_compute_time(set, local).count(),
                   std::max(t0, t1).count());
}

}  // namespace
}  // namespace mars::core
