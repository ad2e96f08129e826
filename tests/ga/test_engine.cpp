#include "mars/ga/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "mars/util/error.h"

namespace mars::ga {
namespace {

GaConfig small_config() {
  GaConfig config;
  config.population = 24;
  config.generations = 40;
  config.stall_generations = 0;  // run full budget in tests
  return config;
}

double sphere(const Genome& genome) {
  double sum = 0.0;
  for (double g : genome) sum += (g - 0.7) * (g - 0.7);
  return sum;
}

/// A per-genome fitness as the cohort function minimize() prices with.
template <class Fn>
BatchFitnessFn batched(Fn fn) {
  return [fn](const std::vector<Genome>& genomes) {
    std::vector<double> values;
    for (const Genome& genome : genomes) values.push_back(fn(genome));
    return values;
  };
}

TEST(GaEngine, MinimisesSphereFunction) {
  GaEngine engine(small_config(), 6);
  Rng rng(1);
  const GaResult result = engine.minimize(batched(sphere), rng);
  EXPECT_LT(result.best_fitness, 0.05);
  for (double g : result.best) {
    EXPECT_NEAR(g, 0.7, 0.25);
  }
}

TEST(GaEngine, DeterministicUnderSeed) {
  GaEngine engine(small_config(), 4);
  Rng rng1(42);
  Rng rng2(42);
  const GaResult a = engine.minimize(batched(sphere), rng1);
  const GaResult b = engine.minimize(batched(sphere), rng2);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(GaEngine, SeedsEnterThePopulation) {
  // A perfect seed must survive through elitism: final best <= seed.
  GaEngine engine(small_config(), 4);
  Rng rng(3);
  const Genome perfect(4, 0.7);
  const GaResult result = engine.minimize(batched(sphere), rng, {perfect});
  EXPECT_LE(result.best_fitness, sphere(perfect) + 1e-12);
}

TEST(GaEngine, HistoryIsMonotoneNonIncreasing) {
  GaEngine engine(small_config(), 8);
  Rng rng(4);
  const GaResult result = engine.minimize(batched(sphere), rng);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1] + 1e-15);
  }
  EXPECT_EQ(result.generations_run,
            static_cast<int>(result.history.size()));
}

TEST(GaEngine, EarlyStopOnStall) {
  GaConfig config = small_config();
  config.stall_generations = 3;
  GaEngine engine(config, 2);
  Rng rng(5);
  // Constant fitness: stalls immediately.
  const GaResult result =
      engine.minimize(batched([](const Genome&) { return 1.0; }), rng);
  EXPECT_LE(result.generations_run, 5);
  EXPECT_DOUBLE_EQ(result.best_fitness, 1.0);
}

TEST(GaEngine, NonFiniteFitnessTreatedAsWorst) {
  GaConfig config = small_config();
  GaEngine engine(config, 2);
  Rng rng(6);
  // Everything below 0.5 is "invalid": the GA must still find the feasible
  // basin near 0.7.
  auto fitness = [](const Genome& genome) {
    for (double g : genome) {
      if (g < 0.4) return std::numeric_limits<double>::quiet_NaN();
    }
    return sphere(genome);
  };
  const GaResult result = engine.minimize(batched(fitness), rng);
  EXPECT_TRUE(std::isfinite(result.best_fitness));
  EXPECT_LT(result.best_fitness, 0.2);
}

TEST(GaEngine, EvaluationBudgetAccounting) {
  GaConfig config = small_config();
  config.generations = 5;
  GaEngine engine(config, 3);
  Rng rng(7);
  std::vector<std::size_t> cohorts;
  const GaResult result = engine.minimize(
      [&](const std::vector<Genome>& genomes) {
        cohorts.push_back(genomes.size());
        return std::vector<double>(genomes.size(), 1.0);
      },
      rng);
  // Priced as cohorts: the initial population, then each generation's
  // population - elite offspring (stall_generations = 0: no early stop).
  std::vector<std::size_t> expected(config.generations + 1,
                                    config.population - config.elite);
  expected.front() = config.population;
  EXPECT_EQ(cohorts, expected);
  EXPECT_EQ(result.evaluations,
            std::accumulate(expected.begin(), expected.end(), 0LL));
}

TEST(GaEngine, ConfigValidation) {
  EXPECT_THROW(GaEngine(GaConfig{.population = 1}, 4), InvalidArgument);
  EXPECT_THROW(GaEngine(GaConfig{.population = 4, .elite = 4}, 4),
               InvalidArgument);
  GaConfig bad_range;
  bad_range.gene_lo = 1.0;
  bad_range.gene_hi = 0.0;
  EXPECT_THROW(GaEngine(bad_range, 4), InvalidArgument);
  EXPECT_THROW(GaEngine(GaConfig{}, 0), InvalidArgument);
}

TEST(GaEngine, ValidateConfigNamesTheOffendingFieldAndValue) {
  const auto message_of = [](GaConfig config) {
    try {
      validate_config(config);
      return std::string();
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
  };
  GaConfig bad_tournament;
  bad_tournament.tournament = 0;
  EXPECT_NE(message_of(bad_tournament).find("tournament"), std::string::npos);
  EXPECT_NE(message_of(bad_tournament).find("got 0"), std::string::npos);

  GaConfig bad_crossover;
  bad_crossover.crossover_rate = 1.5;
  EXPECT_NE(message_of(bad_crossover).find("crossover_rate"),
            std::string::npos);
  EXPECT_NE(message_of(bad_crossover).find("1.5"), std::string::npos);

  GaConfig bad_mutation;
  bad_mutation.mutation_rate = -0.25;
  EXPECT_NE(message_of(bad_mutation).find("mutation_rate"), std::string::npos);
  EXPECT_NE(message_of(bad_mutation).find("-0.25"), std::string::npos);

  GaConfig bad_sigma;
  bad_sigma.mutation_sigma = 0.0;
  EXPECT_NE(message_of(bad_sigma).find("mutation_sigma"), std::string::npos);

  GaConfig bad_generations;
  bad_generations.generations = 0;
  EXPECT_NE(message_of(bad_generations).find("generations"),
            std::string::npos);

  EXPECT_NO_THROW(validate_config(GaConfig{}));
  // Boundary rates are legal.
  GaConfig extremes;
  extremes.crossover_rate = 0.0;
  extremes.mutation_rate = 1.0;
  EXPECT_NO_THROW(validate_config(extremes));
}

TEST(GaEngine, StopHookEndsTheSearchAtAGenerationBoundary) {
  GaConfig config = small_config();
  config.generations = 50;
  GaEngine engine(config, 4);
  Rng rng(11);
  long long stop_calls = 0;
  const GaResult result = engine.minimize(
      batched(sphere), rng, {},
      [&](long long evaluations, double best) {
        EXPECT_GT(evaluations, 0);
        EXPECT_TRUE(std::isfinite(best));
        return ++stop_calls >= 3;  // stop at the third poll
      });
  EXPECT_EQ(stop_calls, 3);
  EXPECT_EQ(result.generations_run, 3);
  EXPECT_FALSE(result.best.empty());
  // Stopping early costs quality but never validity.
  EXPECT_TRUE(std::isfinite(result.best_fitness));
}

TEST(GaEngine, StopHookAtFirstPollReturnsInitialBest) {
  GaEngine engine(small_config(), 4);
  Rng rng(12);
  const GaResult result = engine.minimize(
      batched(sphere), rng, {}, [](long long, double) { return true; });
  EXPECT_EQ(result.generations_run, 1);
  // Only the initial population was evaluated.
  EXPECT_EQ(result.evaluations, small_config().population);
  EXPECT_FALSE(result.best.empty());
}

TEST(GaEngine, RejectsMalformedSeeds) {
  GaEngine engine(small_config(), 4);
  Rng rng(8);
  EXPECT_THROW((void)engine.minimize(batched(sphere), rng, {Genome(3, 0.5)}),
               InvalidArgument);
}

TEST(GaEngine, MultimodalSearchFindsGoodBasin) {
  // Rastrigin-like: many local minima; the GA should land well below the
  // random-search expectation.
  auto rastrigin = [](const Genome& genome) {
    double sum = 0.0;
    for (double g : genome) {
      const double x = (g - 0.5) * 6.0;
      sum += x * x - 5.0 * std::cos(2.0 * 3.14159265 * x) + 5.0;
    }
    return sum;
  };
  GaConfig config = small_config();
  config.generations = 60;
  GaEngine engine(config, 4);
  Rng rng(9);
  const GaResult result = engine.minimize(batched(rastrigin), rng);
  EXPECT_LT(result.best_fitness, 8.0);
}

TEST(GaEngine, BatchEvaluatorSizeMismatchIsAnError) {
  const GaEngine engine(small_config(), 4);
  BatchFitnessFn bad = [](const std::vector<Genome>& genomes) {
    return std::vector<double>(genomes.size() + 1, 1.0);
  };
  Rng rng(3);
  EXPECT_THROW((void)engine.minimize(bad, rng), InternalError);
}

}  // namespace
}  // namespace mars::ga
