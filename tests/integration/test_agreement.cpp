// Analytical-vs-event-driven agreement: the GA optimises the closed-form
// model, the benchmarks report the simulator; this suite bounds the gap so
// rankings transfer between the two.
#include <gtest/gtest.h>

#include "mars/core/evaluator.h"
#include "mars/core/second_level.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"
#include "mars/util/rng.h"

namespace mars::core {
namespace {

/// AlexNet on F1 (adaptive); the Planner keeps references to the
/// topology and registry, which the fixture owns.
class Agreement : public ::testing::Test {
 protected:
  const topology::Topology topo_ = topology::f1_16xlarge();
  const accel::DesignRegistry designs_ = accel::table2_designs();
  const plan::Planner planner_ =
      plan::Planner::for_model("alexnet", topo_, designs_, /*adaptive=*/true);
  const graph::ConvSpine& spine_ = planner_.spine();
  const Problem& problem_ = planner_.problem();
};

Mapping random_mapping(const plan::Planner& planner, Rng& rng) {
  const int n = planner.spine().size();
  const int cut = rng.uniform_int(1, n - 1);
  const std::array<topology::AccMask, 3> group1 = {0b0001, 0b0011, 0b1111};
  const std::array<topology::AccMask, 3> group2 = {0b00010000, 0b00110000,
                                                   0b11110000};
  Mapping mapping;
  LayerAssignment a;
  a.accs = group1[rng.index(3)];
  a.design = rng.uniform_int(0, planner.designs().size() - 1);
  a.begin = 0;
  a.end = cut;
  LayerAssignment b;
  b.accs = group2[rng.index(3)];
  b.design = rng.uniform_int(0, planner.designs().size() - 1);
  b.begin = cut;
  b.end = n;
  for (LayerAssignment* set : {&a, &b}) {
    const int p = set->num_accs();
    for (int l = set->begin; l < set->end; ++l) {
      const auto options =
          parallel::enumerate_strategies(planner.spine().node(l).shape, p, 3);
      set->strategies.push_back(options[rng.index(options.size())]);
    }
  }
  mapping.sets = {a, b};
  return mapping;
}

TEST_F(Agreement, AnalyticTracksSimulationWithinFactorTwo) {
  const MappingEvaluator evaluator(problem_);
  Rng rng(2024);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 25; ++trial) {
    const Mapping mapping = random_mapping(planner_, rng);
    const EvaluationSummary summary = evaluator.evaluate(mapping);
    const double ratio =
        summary.simulated.count() / summary.analytic_makespan.count();
    EXPECT_GT(ratio, 0.4) << "trial " << trial;
    EXPECT_LT(ratio, 2.5) << "trial " << trial;
    worst_ratio = std::max(worst_ratio, std::max(ratio, 1.0 / ratio));
  }
  // Most mappings agree much tighter than the hard bound.
  EXPECT_LT(worst_ratio, 2.5);
}

TEST_F(Agreement, RankingsMostlyTransfer) {
  // For pairs with a clear analytic gap (>25%), the simulator must agree
  // on the winner.
  const MappingEvaluator evaluator(problem_);
  Rng rng(7);
  int checked = 0;
  int agreed = 0;
  std::vector<EvaluationSummary> summaries;
  for (int i = 0; i < 12; ++i) {
    summaries.push_back(evaluator.evaluate(random_mapping(planner_, rng)));
  }
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    for (std::size_t j = i + 1; j < summaries.size(); ++j) {
      const double a = summaries[i].analytic_makespan.count();
      const double b = summaries[j].analytic_makespan.count();
      if (std::max(a, b) < 1.25 * std::min(a, b)) continue;
      ++checked;
      const bool analytic_says = a < b;
      const bool sim_says =
          summaries[i].simulated.count() < summaries[j].simulated.count();
      if (analytic_says == sim_says) ++agreed;
    }
  }
  ASSERT_GT(checked, 10);
  EXPECT_GE(static_cast<double>(agreed) / checked, 0.9)
      << agreed << "/" << checked;
}

TEST_F(Agreement, GreedySecondLevelChoicesHoldUpInSimulation) {
  // The greedy oracle picks per-layer strategies under the analytic model;
  // verify the full simulated latency of its choice beats a deliberately
  // bad choice (worst per-layer strategy).
  const SecondLevelSearch search(problem_, SecondLevelConfig{});
  const AnalyticalCostModel model(problem_);

  LayerAssignment skeleton;
  skeleton.accs = 0b1111;
  skeleton.design = 0;
  skeleton.begin = 0;
  skeleton.end = spine_.size();

  LayerAssignment good = skeleton;
  good.strategies = search.greedy(skeleton).strategies;
  LayerAssignment bad = skeleton;
  for (int l = 0; l < spine_.size(); ++l) {
    const auto options =
        parallel::enumerate_strategies(spine_.node(l).shape, 4, 3);
    const parallel::Strategy* worst = nullptr;
    Seconds worst_t(0.0);
    for (const parallel::Strategy& option : options) {
      const LayerCost cost = model.layer_cost(
          skeleton, l, option, std::nullopt, model.internal_bandwidth(skeleton));
      if (worst == nullptr || cost.total() > worst_t) {
        worst = &option;
        worst_t = cost.total();
      }
    }
    bad.strategies.push_back(*worst);
  }

  Mapping good_mapping;
  good_mapping.sets = {good};
  Mapping bad_mapping;
  bad_mapping.sets = {bad};
  const MappingEvaluator evaluator(problem_);
  EXPECT_LT(evaluator.evaluate(good_mapping).simulated.count(),
            evaluator.evaluate(bad_mapping).simulated.count());
}

}  // namespace
}  // namespace mars::core
