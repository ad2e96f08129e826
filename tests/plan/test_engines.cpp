#include "mars/plan/engines.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/test_support.h"
#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/obs/trace.h"

namespace mars::plan {
namespace {

using core::testing::AdaptiveFixture;

core::MarsConfig tiny_tuning(std::uint64_t seed = 7) {
  core::MarsConfig config;
  config.seed = seed;
  config.first_ga.population = 8;
  config.first_ga.generations = 5;
  config.first_ga.stall_generations = 3;
  config.second.ga.population = 6;
  config.second.ga.generations = 3;
  return config;
}

class EnginesTest : public ::testing::Test {
 protected:
  AdaptiveFixture fx_;
};

TEST_F(EnginesTest, EveryEngineProducesAValidMapping) {
  for (const std::string& name : engine_names()) {
    const std::unique_ptr<SearchEngine> engine =
        make_engine(name, tiny_tuning());
    EXPECT_EQ(engine->name(), name);
    const PlanResult result = engine->search(fx_.problem);
    EXPECT_NO_THROW(
        result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true))
        << name;
    EXPECT_GT(result.summary.simulated.count(), 0.0) << name;
    EXPECT_FALSE(result.history.empty()) << name;
    EXPECT_EQ(result.provenance.engine, name);
    EXPECT_EQ(result.provenance.stopped, StopReason::kCompleted) << name;
  }
}

TEST_F(EnginesTest, SearchingEnginesNeverLoseToTheBaseline) {
  // All three searchers seed from the encoded baseline skeleton, so under
  // the analytic model their result can only match or improve it — the
  // quality gate that keeps "cheap" engines honest ablation floors.
  const accel::ProfileMatrix profile(fx_.designs, fx_.spine);
  const core::Mapping baseline =
      core::baseline_mapping(fx_.problem, profile);
  const core::MappingEvaluator evaluator(fx_.problem);
  const Seconds baseline_analytic =
      evaluator.analytical().evaluate(baseline).analytic_makespan;

  for (const std::string& name : engine_names()) {
    const PlanResult result =
        make_engine(name, tiny_tuning())->search(fx_.problem);
    EXPECT_LE(result.summary.analytic_makespan.count(),
              baseline_analytic.count() * (1.0 + 1e-9))
        << name;
  }
}

TEST_F(EnginesTest, ConvergenceHistoryIsMonotone) {
  for (const char* name : {"ga", "anneal", "random"}) {
    const PlanResult result =
        make_engine(name, tiny_tuning())->search(fx_.problem);
    for (std::size_t i = 1; i < result.history.size(); ++i) {
      EXPECT_LE(result.history[i], result.history[i - 1] + 1e-15) << name;
    }
  }
}

TEST_F(EnginesTest, EvaluationBudgetIsHonoured) {
  // Exact for the per-evaluation engines; the GA stops at the next
  // generation boundary, so allow one population of slack.
  for (const char* name : {"anneal", "random"}) {
    const PlanResult result = make_engine(name, tiny_tuning())
                                  ->search(fx_.problem, Budget::evaluations(9));
    EXPECT_LE(result.provenance.evaluations, 9) << name;
    EXPECT_EQ(result.provenance.stopped, StopReason::kEvaluationBudget)
        << name;
    EXPECT_NO_THROW(
        result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
  }
  const core::MarsConfig tuning = tiny_tuning();
  const PlanResult ga = make_engine("ga", tuning)
                            ->search(fx_.problem, Budget::evaluations(9));
  EXPECT_LE(ga.provenance.evaluations, 9 + tuning.first_ga.population);
  EXPECT_EQ(ga.provenance.stopped, StopReason::kEvaluationBudget);
}

TEST_F(EnginesTest, WallClockBudgetStopsWithAFakeClock) {
  double now = 100.0;
  Budget budget = Budget::wall(milliseconds(5.0));
  budget.clock = [&now] {
    now += 0.002;  // every poll advances 2 ms
    return Seconds(now);
  };
  const PlanResult result =
      make_engine("anneal", tiny_tuning())->search(fx_.problem, budget);
  EXPECT_EQ(result.provenance.stopped, StopReason::kWallClock);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
}

TEST_F(EnginesTest, PreCancelledSearchStillReturnsAValidMapping) {
  CancelToken token;
  token.cancel();
  for (const char* name : {"ga", "anneal", "random"}) {
    const PlanResult result = make_engine(name, tiny_tuning())
                                  ->search(fx_.problem,
                                           Budget::cancellable(token));
    EXPECT_EQ(result.provenance.stopped, StopReason::kCancelled) << name;
    EXPECT_NO_THROW(
        result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true))
        << name;
    EXPECT_GT(result.summary.simulated.count(), 0.0) << name;
  }
}

TEST_F(EnginesTest, BaselineEngineIgnoresBudgetsAndReportsZeroEvaluations) {
  CancelToken token;
  token.cancel();
  const PlanResult result =
      BaselineEngine{}.search(fx_.problem, Budget::cancellable(token));
  EXPECT_EQ(result.provenance.evaluations, 0);
  EXPECT_EQ(result.provenance.stopped, StopReason::kCompleted);
  EXPECT_FALSE(BaselineEngine{}.searches());
}

TEST_F(EnginesTest, ProgressIsReported) {
  long long calls = 0;
  long long last_evaluations = 0;
  const PlanResult result = make_engine("random", tiny_tuning())
                                ->search(fx_.problem, {},
                                         [&](const Progress& progress) {
                                           ++calls;
                                           last_evaluations =
                                               progress.evaluations;
                                         });
  EXPECT_GT(calls, 0);
  EXPECT_GT(last_evaluations, 0);
  EXPECT_LE(last_evaluations, result.provenance.evaluations);
}

TEST_F(EnginesTest, SpecStringsAreDistinctAndCoverTheSeed) {
  const core::MarsConfig tuning = tiny_tuning();
  std::vector<std::string> specs;
  for (const std::string& name : engine_names()) {
    specs.push_back(make_engine(name, tuning)->spec_string());
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i], specs[j]);
    }
  }
  for (const char* name : {"ga", "anneal", "random"}) {
    EXPECT_NE(make_engine(name, tiny_tuning(1))->spec_string(),
              make_engine(name, tiny_tuning(2))->spec_string())
        << name;
  }
}

TEST_F(EnginesTest, MarsIsAnAliasForGa) {
  EXPECT_EQ(make_engine("mars", tiny_tuning())->name(), "ga");
}

TEST_F(EnginesTest, UnknownEngineNamesTheValidSet) {
  try {
    (void)make_engine("gradient-descent");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gradient-descent"), std::string::npos);
    for (const std::string& name : engine_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST_F(EnginesTest, MultiChainAnnealHonoursTinyEvaluationBudgetsExactly) {
  // Even the start cohort clamps to the budget: chains=8 with a budget of
  // 4 starts only 4 chains (seed_baseline=false spends one evaluation
  // per started chain).
  AnnealConfig config;
  config.second = tiny_tuning().second;
  config.chains = 8;
  config.seed_baseline = false;
  config.iterations = 50;
  const PlanResult result =
      AnnealingEngine(config).search(fx_.problem, Budget::evaluations(4));
  EXPECT_LE(result.provenance.evaluations, 4);
  EXPECT_EQ(result.provenance.stopped, StopReason::kEvaluationBudget);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
}

TEST_F(EnginesTest, MultiChainAnnealIsByteIdenticalAcrossThreadCounts) {
  AnnealConfig serial;
  serial.second = tiny_tuning().second;
  serial.chains = 4;
  serial.iterations = 30;
  AnnealConfig threaded = serial;
  threaded.threads = 4;
  const PlanResult a = AnnealingEngine(serial).search(fx_.problem);
  const PlanResult b = AnnealingEngine(threaded).search(fx_.problem);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.provenance.evaluations, b.provenance.evaluations);
  EXPECT_DOUBLE_EQ(a.summary.simulated.count(), b.summary.simulated.count());
  // threads is execution-only; chains is spec-relevant.
  EXPECT_EQ(AnnealingEngine(serial).spec_string(),
            AnnealingEngine(threaded).spec_string());
  AnnealConfig other_chains = serial;
  other_chains.chains = 2;
  EXPECT_NE(AnnealingEngine(serial).spec_string(),
            AnnealingEngine(other_chains).spec_string());
}

TEST_F(EnginesTest, EngineConfigsAreValidatedAtConstruction) {
  // The satellite contract: bad knobs fail eagerly with named errors,
  // not as silent misbehaviour mid-search.
  core::MarsConfig bad_tournament = tiny_tuning();
  bad_tournament.first_ga.tournament = 0;
  EXPECT_THROW((void)GaEngine(bad_tournament), InvalidArgument);

  core::MarsConfig bad_rate = tiny_tuning();
  bad_rate.second.ga.mutation_rate = 1.5;
  EXPECT_THROW((void)GaEngine(bad_rate), InvalidArgument);

  AnnealConfig bad_anneal;
  bad_anneal.iterations = 0;
  EXPECT_THROW((void)AnnealingEngine(bad_anneal), InvalidArgument);
  bad_anneal = AnnealConfig{};
  bad_anneal.final_temperature = bad_anneal.initial_temperature * 2.0;
  EXPECT_THROW((void)AnnealingEngine(bad_anneal), InvalidArgument);

  RandomConfig bad_random;
  bad_random.samples = 0;
  EXPECT_THROW((void)RandomEngine(bad_random), InvalidArgument);
  bad_random = RandomConfig{};
  bad_random.profiled_fraction = -0.1;
  EXPECT_THROW((void)RandomEngine(bad_random), InvalidArgument);
}

TEST(EngineThreadsTest, WithThreadsKeepsTheSpecOfEveryEngineKind) {
  core::MarsConfig tuning = tiny_tuning();
  tuning.threads = 4;
  std::vector<std::string> names = engine_names();
  names.push_back("race:ga@3+random,250");
  for (const std::string& name : names) {
    const std::unique_ptr<SearchEngine> engine = make_engine(name, tuning);
    const int threads = name == "baseline" ? 1 : 4;
    EXPECT_EQ(engine->threads(), threads) << name;
    for (const int reduced : {1, 2}) {
      const std::unique_ptr<SearchEngine> copy = engine->with_threads(reduced);
      EXPECT_EQ(copy->spec_string(), engine->spec_string()) << name;
      EXPECT_EQ(copy->name(), engine->name()) << name;
      EXPECT_EQ(copy->threads(), name == "baseline" ? 1 : reduced) << name;
    }
    EXPECT_THROW((void)engine->with_threads(0), InvalidArgument) << name;
  }
}

TEST(EngineThreadsTest, PortfolioPassesTheCountToEveryMember) {
  core::MarsConfig tuning = tiny_tuning();
  tuning.threads = 3;
  const std::unique_ptr<SearchEngine> copy =
      make_engine("portfolio", tuning)->with_threads(2);
  const auto& members = dynamic_cast<const PortfolioEngine&>(*copy).members();
  ASSERT_EQ(members.size(), 3u);
  for (const std::unique_ptr<SearchEngine>& member : members) {
    EXPECT_EQ(member->threads(), 2) << member->name();
  }
}

TEST_F(EnginesTest, ReducedThreadEnginesReturnTheSameMapping) {
  core::MarsConfig tuning = tiny_tuning();
  tuning.threads = 3;
  for (const std::string& name : {"ga", "anneal", "random"}) {
    const std::unique_ptr<SearchEngine> engine = make_engine(name, tuning);
    const PlanResult full = engine->search(fx_.problem);
    const PlanResult reduced = engine->with_threads(1)->search(fx_.problem);
    EXPECT_EQ(reduced.summary.analytic_makespan.count(),
              full.summary.analytic_makespan.count())
        << name;
    EXPECT_EQ(reduced.history, full.history) << name;
    EXPECT_EQ(reduced.provenance.evaluations, full.provenance.evaluations)
        << name;
  }
}

TEST_F(EnginesTest, ConcurrentSearchesReportProgressOnLanesOfTheirOwn) {
  // Two GA searches on two threads: each thread's `ga evaluations` lane
  // carries one search's count, so it never drops. A lane shared by both
  // would drop where the second search's count restarts or interleaves.
  obs::TraceRecorder rec;
  obs::TraceRecorder* saved = obs::install_trace(&rec);
  std::vector<std::thread> threads;
  for (std::uint64_t seed : {7, 8}) {
    threads.emplace_back([this, seed] {
      (void)make_engine("ga", tiny_tuning(seed))->search(fx_.problem);
    });
  }
  for (std::thread& thread : threads) thread.join();
  obs::install_trace(saved);

  std::map<std::string, std::vector<double>> lanes;
  const JsonValue doc = rec.to_json();
  const JsonValue& events = doc.get("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string name = event.get("name").as_string();
    if (event.get("ph").as_string() == "C" &&
        name.starts_with("ga evaluations")) {
      lanes[name].push_back(event.get("args").get("value").as_number());
    }
  }
  ASSERT_EQ(lanes.size(), 2u);
  for (const auto& [name, values] : lanes) {
    EXPECT_TRUE(name == "ga evaluations (thread 1)" ||
                name == "ga evaluations (thread 2)")
        << name;
    EXPECT_GT(values.size(), 1u) << name;
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end())) << name;
  }
}

}  // namespace
}  // namespace mars::plan
