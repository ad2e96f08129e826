// GaEngine, the paper's two-level GA: validity, quality against the
// baseline, determinism, the second-level memo, every ablation switch,
// and byte-identity across thread counts.
#include <gtest/gtest.h>

#include "core/test_support.h"
#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"

namespace mars::plan {
namespace {

using core::testing::AdaptiveFixture;

core::MarsConfig fast_config() {
  core::MarsConfig config;
  config.first_ga.population = 12;
  config.first_ga.generations = 8;
  config.first_ga.stall_generations = 4;
  config.second.ga.population = 8;
  config.second.ga.generations = 6;
  config.seed = 7;
  return config;
}

/// A search's result plus the second-level memo counters it flushed into
/// a registry installed for its duration.
struct Searched {
  PlanResult plan;
  long long memo_hits = 0;
  long long memo_misses = 0;
};

Searched search(const core::Problem& problem, const core::MarsConfig& config) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_metrics(&registry);
  Searched searched{GaEngine(config).search(problem)};
  obs::install_metrics(previous);
  searched.memo_hits = registry.counter_value("search.space.memo.hits");
  searched.memo_misses = registry.counter_value("search.space.memo.misses");
  return searched;
}

void expect_same_mapping(const core::Mapping& a, const core::Mapping& b) {
  ASSERT_EQ(a.sets.size(), b.sets.size());
  for (std::size_t i = 0; i < a.sets.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.sets[i].accs, b.sets[i].accs);
    EXPECT_EQ(a.sets[i].design, b.sets[i].design);
    EXPECT_EQ(a.sets[i].begin, b.sets[i].begin);
    EXPECT_EQ(a.sets[i].end, b.sets[i].end);
    EXPECT_EQ(a.sets[i].strategies, b.sets[i].strategies);
  }
}

void expect_same_summary(const core::EvaluationSummary& a,
                         const core::EvaluationSummary& b) {
  EXPECT_EQ(a.analytic.compute.count(), b.analytic.compute.count());
  EXPECT_EQ(a.analytic.intra_set.count(), b.analytic.intra_set.count());
  EXPECT_EQ(a.analytic.inter_set.count(), b.analytic.inter_set.count());
  EXPECT_EQ(a.analytic.host_io.count(), b.analytic.host_io.count());
  EXPECT_EQ(a.analytic_makespan.count(), b.analytic_makespan.count());
  EXPECT_EQ(a.simulated.count(), b.simulated.count());
  EXPECT_EQ(a.energy.count(), b.energy.count());
  EXPECT_EQ(a.memory_ok, b.memory_ok);
  EXPECT_EQ(a.worst_set_footprint.count(), b.worst_set_footprint.count());
}

class GaEngineTest : public ::testing::Test {
 protected:
  AdaptiveFixture fx_;
};

TEST_F(GaEngineTest, SearchProducesValidMapping) {
  const PlanResult result = GaEngine(fast_config()).search(fx_.problem);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
  EXPECT_GT(result.summary.simulated.count(), 0.0);
  EXPECT_TRUE(result.summary.memory_ok);
  EXPECT_GT(result.provenance.iterations, 0);
}

TEST_F(GaEngineTest, BeatsOrMatchesBaselineAnalytically) {
  const PlanResult result = GaEngine(fast_config()).search(fx_.problem);

  const accel::ProfileMatrix profile(fx_.designs, fx_.spine);
  const core::Mapping baseline = core::baseline_mapping(fx_.problem, profile);
  const core::MappingEvaluator evaluator(fx_.problem);
  const Seconds baseline_analytic =
      evaluator.analytical().evaluate(baseline).analytic_makespan;
  const Seconds mars_analytic = result.summary.analytic_makespan;
  // The baseline is seeded into the population: MARS can only improve.
  EXPECT_LE(mars_analytic.count(), baseline_analytic.count() * (1.0 + 1e-9));
}

TEST_F(GaEngineTest, DeterministicUnderSeed) {
  const PlanResult ra = GaEngine(fast_config()).search(fx_.problem);
  const PlanResult rb = GaEngine(fast_config()).search(fx_.problem);
  EXPECT_DOUBLE_EQ(ra.summary.simulated.count(), rb.summary.simulated.count());
  EXPECT_EQ(ra.mapping.sets.size(), rb.mapping.sets.size());
}

TEST_F(GaEngineTest, CacheIsExercised) {
  const Searched searched = search(fx_.problem, fast_config());
  EXPECT_GT(searched.memo_misses, 0);
  EXPECT_GT(searched.memo_hits, 0);  // GA revisits skeletons
}

TEST_F(GaEngineTest, FlatSingleLevelAblationRuns) {
  core::MarsConfig config = fast_config();
  config.two_level = false;
  const Searched searched = search(fx_.problem, config);
  EXPECT_NO_THROW(
      searched.plan.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
  EXPECT_EQ(searched.memo_misses, 0);  // no second-level calls
}

TEST_F(GaEngineTest, NoSsAblationProducesNoSharedShards) {
  core::MarsConfig config = fast_config();
  config.second.enable_ss = false;
  const PlanResult result = GaEngine(config).search(fx_.problem);
  for (const core::LayerAssignment& set : result.mapping.sets) {
    for (const parallel::Strategy& s : set.strategies) {
      EXPECT_FALSE(s.has_ss()) << s.to_string();
    }
  }
}

TEST_F(GaEngineTest, TrivialCandidateAblationRuns) {
  core::MarsConfig config = fast_config();
  config.heuristic_candidates = false;
  config.seed_baseline = false;  // baseline skeleton may not be encodable
  const PlanResult result = GaEngine(config).search(fx_.problem);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
}

TEST_F(GaEngineTest, ConvergenceHistoryIsMonotone) {
  const PlanResult result = GaEngine(fast_config()).search(fx_.problem);
  const std::vector<double>& history = result.history;
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_LE(history[i], history[i - 1] + 1e-15);
  }
}

TEST_F(GaEngineTest, FixedDesignModeSearches) {
  core::testing::FixedFixture fx;
  const PlanResult result = GaEngine(fast_config()).search(fx.problem);
  EXPECT_NO_THROW(result.mapping.validate(fx.spine, fx.topo, fx.designs,
                                          /*adaptive=*/false));
  EXPECT_GT(result.summary.simulated.count(), 0.0);
}

TEST(GaEngine, BudgetStoppedSearchSkipsThePolishPass) {
  // A search its budget stopped returns the completed winner unpolished:
  // exactly what the same search with refine_winner off returns. ResNet-34
  // is a problem where the polish pass changes the result.
  const AdaptiveFixture fx("resnet34");
  core::MarsConfig unpolished_config = fast_config();
  unpolished_config.refine_winner = false;
  // Stops after the initial population, before the polish pass.
  const Budget budget = Budget::evaluations(12);
  const PlanResult stopped = GaEngine(fast_config()).search(fx.problem, budget);
  const PlanResult unpolished =
      GaEngine(unpolished_config).search(fx.problem, budget);
  EXPECT_EQ(stopped.provenance.stopped, StopReason::kEvaluationBudget);
  expect_same_mapping(stopped.mapping, unpolished.mapping);
  expect_same_summary(stopped.summary, unpolished.summary);

  // Unstopped, the same pair differs by the polish pass.
  const PlanResult polished = GaEngine(fast_config()).search(fx.problem);
  const PlanResult plain = GaEngine(unpolished_config).search(fx.problem);
  EXPECT_LT(polished.summary.analytic_makespan.count(),
            plain.summary.analytic_makespan.count());
}

TEST_F(GaEngineTest, ThreadedSearchIsByteIdenticalToSerial) {
  // `threads` is an execution knob, not a search knob: the whole result —
  // mapping, history, evaluation and memo counters — must match the
  // serial run exactly (docs/PERFORMANCE.md).
  core::MarsConfig threaded_config = fast_config();
  threaded_config.threads = 4;

  const Searched serial = search(fx_.problem, fast_config());
  const Searched threaded = search(fx_.problem, threaded_config);

  expect_same_mapping(serial.plan.mapping, threaded.plan.mapping);
  EXPECT_EQ(serial.plan.history, threaded.plan.history);
  EXPECT_EQ(serial.plan.provenance.evaluations,
            threaded.plan.provenance.evaluations);
  EXPECT_EQ(serial.plan.provenance.iterations,
            threaded.plan.provenance.iterations);
  EXPECT_EQ(serial.memo_hits, threaded.memo_hits);
  EXPECT_EQ(serial.memo_misses, threaded.memo_misses);
  expect_same_summary(serial.plan.summary, threaded.plan.summary);
}

TEST_F(GaEngineTest, ThreadedFlatAblationIsByteIdenticalToSerial) {
  core::MarsConfig serial_config = fast_config();
  serial_config.two_level = false;
  core::MarsConfig threaded_config = serial_config;
  threaded_config.threads = 3;

  const PlanResult serial = GaEngine(serial_config).search(fx_.problem);
  const PlanResult threaded = GaEngine(threaded_config).search(fx_.problem);
  expect_same_mapping(serial.mapping, threaded.mapping);
  EXPECT_EQ(serial.history, threaded.history);
  expect_same_summary(serial.summary, threaded.summary);
}

TEST_F(GaEngineTest, NonPositiveThreadCountIsANamedError) {
  core::MarsConfig config = fast_config();
  config.threads = 0;
  try {
    const GaEngine engine(config);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
  }
}

}  // namespace
}  // namespace mars::plan
