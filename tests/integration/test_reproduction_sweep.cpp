// Full reproduction-direction sweep at smoke budgets: every Table III
// model must beat its baseline, and MARS must beat H2H on both Table IV
// models at a low and a high bandwidth point. These are the headline
// claims; budgets are small so the whole suite stays fast, and the
// assertions use small tolerance slack accordingly.
#include <gtest/gtest.h>

#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/core/h2h.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"

namespace mars::core {
namespace {

MarsConfig sweep_budget() {
  MarsConfig config;
  config.first_ga.population = 16;
  config.first_ga.generations = 10;
  config.first_ga.stall_generations = 5;
  config.second.ga.population = 8;
  config.second.ga.generations = 6;
  config.seed = 2;
  return config;
}

class Table3Sweep : public ::testing::TestWithParam<const char*> {};

TEST_P(Table3Sweep, MarsNeverLosesToBaseline) {
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model(GetParam(), topo, designs, /*adaptive=*/true);

  const MappingEvaluator evaluator(planner.problem());
  const Seconds baseline =
      evaluator
          .evaluate(baseline_mapping(planner.problem(), planner.profile()))
          .simulated;
  const Seconds ours =
      planner.plan(plan::GaEngine(sweep_budget())).summary.simulated;
  EXPECT_LE(ours.count(), baseline.count() * 1.02)
      << GetParam() << ": MARS " << ours.millis() << " ms vs baseline "
      << baseline.millis() << " ms";
}

INSTANTIATE_TEST_SUITE_P(AllModels, Table3Sweep,
                         ::testing::Values("alexnet", "vgg16", "resnet34",
                                           "resnet101", "wrn50_2"));

struct Table4Point {
  const char* model;
  double bandwidth_gbps;
};

class Table4Sweep : public ::testing::TestWithParam<Table4Point> {};

TEST_P(Table4Sweep, MarsBeatsH2H) {
  const auto [model_name, bandwidth] = GetParam();
  const topology::Topology topo = topology::h2h_cloud(8, gbps(bandwidth), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const plan::Planner planner =
      plan::Planner::for_model(model_name, topo, designs, /*adaptive=*/false);

  const Seconds h2h = H2HMapper(planner.problem()).map().simulated;
  const Seconds ours =
      planner.plan(plan::GaEngine(sweep_budget())).summary.simulated;
  EXPECT_LT(ours.count(), h2h.count())
      << model_name << " @ " << bandwidth << " Gb/s: MARS " << ours.millis()
      << " ms vs H2H " << h2h.millis() << " ms";
}

INSTANTIATE_TEST_SUITE_P(
    BandwidthPoints, Table4Sweep,
    ::testing::Values(Table4Point{"casia_surf", 1.0},
                      Table4Point{"casia_surf", 10.0},
                      Table4Point{"facebagnet", 1.0},
                      Table4Point{"facebagnet", 10.0}),
    [](const ::testing::TestParamInfo<Table4Point>& info) {
      return std::string(info.param.model) + "_" +
             std::to_string(static_cast<int>(info.param.bandwidth_gbps)) +
             "gbps";
    });

TEST(ReproductionSweep, SpatialShardingRisesAsBandwidthFalls) {
  // The paper's low-bandwidth observation, asserted end-to-end: the share
  // of spatial (H/W) ES shards at 1 Gb/s must be >= the share at 10 Gb/s.
  auto spatial_share = [](double bandwidth) {
    const topology::Topology topo = topology::h2h_cloud(8, gbps(bandwidth), 4);
    const accel::DesignRegistry designs = accel::h2h_designs();
    const plan::Planner planner = plan::Planner::for_model(
        "casia_surf", topo, designs, /*adaptive=*/false);
    const plan::PlanResult result =
        planner.plan(plan::GaEngine(sweep_budget()));
    int spatial = 0;
    int total = 0;
    for (const LayerAssignment& set : result.mapping.sets) {
      for (const parallel::Strategy& s : set.strategies) {
        ++total;
        if (s.ways_of(parallel::Dim::kH) > 1 ||
            s.ways_of(parallel::Dim::kW) > 1) {
          ++spatial;
        }
      }
    }
    return static_cast<double>(spatial) / total;
  };
  EXPECT_GE(spatial_share(1.0) + 0.02, spatial_share(10.0));
}

}  // namespace
}  // namespace mars::core
