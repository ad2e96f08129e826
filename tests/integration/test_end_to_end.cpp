// End-to-end reproduction smoke tests: small search budgets, but the full
// pipeline (model -> spine -> profile -> two-level GA -> event simulation),
// asserting the paper's headline directions.
#include <gtest/gtest.h>

#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/core/h2h.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"

namespace mars::core {
namespace {

MarsConfig test_budget() {
  MarsConfig config;
  config.first_ga.population = 16;
  config.first_ga.generations = 10;
  config.first_ga.stall_generations = 5;
  config.second.ga.population = 8;
  config.second.ga.generations = 6;
  config.seed = 11;
  return config;
}

/// The GA at test_budget() on `planner`'s problem.
plan::PlanResult search(const plan::Planner& planner,
                        const MarsConfig& config = test_budget()) {
  return planner.plan(plan::GaEngine(config));
}

class Table3Direction : public ::testing::TestWithParam<const char*> {};

TEST_P(Table3Direction, MarsBeatsBaseline) {
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model(GetParam(), topo, designs, /*adaptive=*/true);

  const Mapping baseline =
      baseline_mapping(planner.problem(), planner.profile());
  const MappingEvaluator evaluator(planner.problem());
  const Seconds baseline_latency = evaluator.evaluate(baseline).simulated;

  const Seconds mars_latency = search(planner).summary.simulated;

  // Table III direction: MARS never loses; small budget still finds wins.
  EXPECT_LE(mars_latency.count(), baseline_latency.count() * 1.02)
      << GetParam() << ": MARS " << mars_latency.millis() << " ms vs baseline "
      << baseline_latency.millis() << " ms";
}

INSTANTIATE_TEST_SUITE_P(Models, Table3Direction,
                         ::testing::Values("alexnet", "vgg16"));

TEST(Table4Direction, MarsBeatsH2HOnHeterogeneousModels) {
  // Fixed-design cloud at mid bandwidth; MARS's intra-layer parallelism
  // must beat H2H's one-layer-one-accelerator contract (paper: -50..74%).
  const topology::Topology topo = topology::h2h_cloud(8, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const plan::Planner planner = plan::Planner::for_model(
      "casia_surf", topo, designs, /*adaptive=*/false);

  const Seconds h2h = H2HMapper(planner.problem()).map().simulated;
  const Seconds ours = search(planner).summary.simulated;

  EXPECT_LT(ours.count(), h2h.count())
      << "MARS " << ours.millis() << " ms vs H2H " << h2h.millis() << " ms";
}

TEST(MappingPatterns, WinogradAvoidedForBottleneckHeavyModels) {
  // The paper: design 3 (Winograd) never shows up for ResNet101/WRN-50-2
  // because it cannot handle the 1x1 bottleneck convolutions.
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model("resnet101", topo, designs, /*adaptive=*/true);
  MarsConfig config = test_budget();
  config.first_ga.generations = 6;  // keep runtime modest
  const plan::PlanResult result = search(planner, config);

  const accel::DesignId winograd = designs.find("WinogradF43");
  double winograd_macs = 0.0;
  double total_macs = 0.0;
  for (const LayerAssignment& set : result.mapping.sets) {
    for (int l = set.begin; l < set.end; ++l) {
      const double macs = planner.spine().node(l).shape.macs();
      total_macs += macs;
      if (set.design == winograd) winograd_macs += macs;
    }
  }
  EXPECT_LT(winograd_macs / total_macs, 0.2);
}

TEST(MemoryConstraint, TightDramForcesFeasibleMapping) {
  // With only 64 MiB per accelerator, VGG16 (~276 MB of fix16 weights)
  // cannot sit on a 2-accelerator set un-sharded; the search must still
  // return a memory-feasible mapping by spreading/sharding harder.
  const topology::Topology tight =
      topology::f1_16xlarge(gbps(8.0), gbps(2.0), mebibytes(64.0));
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::PlanResult result = search(
      plan::Planner::for_model("vgg16", tight, designs, /*adaptive=*/true));
  EXPECT_TRUE(result.summary.memory_ok)
      << "worst set footprint "
      << result.summary.worst_set_footprint.mib() << " MiB";
}

TEST(HostBandwidthSensitivity, SlowerHostHurts) {
  const accel::DesignRegistry designs = accel::table2_designs();
  auto baseline_latency = [&](Bandwidth host_bw) {
    const topology::Topology topo = topology::f1_16xlarge(gbps(8.0), host_bw);
    const plan::Planner planner =
        plan::Planner::for_model("alexnet", topo, designs, /*adaptive=*/true);
    return MappingEvaluator(planner.problem())
        .evaluate(baseline_mapping(planner.problem(), planner.profile()))
        .simulated;
  };
  EXPECT_LT(baseline_latency(gbps(4.0)).count(),
            baseline_latency(gbps(0.5)).count());
}

}  // namespace
}  // namespace mars::core
