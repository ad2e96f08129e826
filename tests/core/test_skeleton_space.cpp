// The batch-evaluation contract of core::SkeletonSpace: fitness_batch
// returns the memo-free oracle's values and charges the memo as a serial
// sweep would, at any thread count (docs/PERFORMANCE.md).
#include "mars/core/skeleton_space.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/test_support.h"
#include "mars/util/error.h"
#include "mars/util/worker_pool.h"
#include "support/second_level_oracle.h"

namespace mars::core {
namespace {

using testing::AdaptiveFixture;
using testing::FixedFixture;

/// The encoded baseline (shared sets across samples exercise the dedupe
/// path) plus profiled-random genomes.
std::vector<ga::Genome> sample_genomes(const SkeletonSpace& space, int count,
                                       std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> scores = space.design_scores();
  std::vector<ga::Genome> genomes;
  genomes.reserve(static_cast<std::size_t>(count));
  genomes.push_back(space.codec().encode(space.baseline(), scores));
  for (int i = 1; i < count; ++i) {
    genomes.push_back(space.codec().profiled_random(scores, rng));
  }
  return genomes;
}

/// sample_genomes, decoded.
std::vector<Skeleton> sample_skeletons(const SkeletonSpace& space, int count,
                                       std::uint64_t seed) {
  std::vector<Skeleton> skeletons;
  for (const ga::Genome& genome : sample_genomes(space, count, seed)) {
    skeletons.push_back(space.codec().decode(genome));
  }
  return skeletons;
}

TEST(SkeletonSpaceBatchTest, BatchMatchesSerialFitnessBitForBit) {
  // Fitness is a pure function of the skeleton. On fresh caches the
  // skeleton batch and the genome batch return the memo-free oracle's
  // doubles and charge what a serial sweep over the sets would: a miss for
  // each distinct key, a hit for each repeat. On warm caches both return
  // those doubles again and charge only hits.
  AdaptiveFixture adaptive;
  FixedFixture fixed;
  util::WorkerPool caller(1);
  for (const Problem* problem : {&adaptive.problem, &fixed.problem}) {
    SCOPED_TRACE(problem->adaptive ? "adaptive" : "fixed");
    SkeletonSpace batch_space(*problem, {{}, true});
    SkeletonSpace genome_space(*problem, {{}, true});
    const std::vector<ga::Genome> genomes = sample_genomes(batch_space, 24, 5);
    const std::vector<Skeleton> skeletons =
        sample_skeletons(batch_space, 24, 5);
    std::vector<double> expected;
    for (const Skeleton& skeleton : skeletons) {
      expected.push_back(oracle::skeleton_fitness(
          batch_space.evaluator().analytical(), {}, skeleton));
    }
    std::set<SetKey> seen;
    const oracle::SweepCounts fresh = oracle::count_sweep(skeletons, seen);
    const oracle::SweepCounts warm = oracle::count_sweep(skeletons, seen);
    ASSERT_GT(fresh.hits, 0);  // the samples share sets: dedupe runs
    ASSERT_EQ(warm.misses, 0);

    // Bit-equal, not just close.
    EXPECT_EQ(batch_space.fitness_batch(skeletons, caller), expected);
    EXPECT_EQ(genome_space.fitness_batch(genomes, caller), expected);
    for (SkeletonSpace* space : {&batch_space, &genome_space}) {
      EXPECT_EQ(space->cache_hits(), fresh.hits);
      EXPECT_EQ(space->cache_misses(), fresh.misses);
      EXPECT_EQ(space->fitness_batch(skeletons, caller), expected);
      EXPECT_EQ(space->fitness_batch(genomes, caller), expected);
      EXPECT_EQ(space->cache_hits(), fresh.hits + 2 * warm.hits);
      EXPECT_EQ(space->cache_misses(), fresh.misses);
    }
  }
}

TEST(SkeletonSpaceBatchTest, FourThreadBatchIsByteIdenticalToSerial) {
  AdaptiveFixture fx;
  SkeletonSpace serial_space(fx.problem, {{}, true});
  SkeletonSpace threaded_space(fx.problem, {{}, true});
  util::WorkerPool caller(1);
  util::WorkerPool pool(4);

  const std::vector<double> serial = serial_space.fitness_batch(
      sample_skeletons(serial_space, 32, 11), caller);
  const std::vector<double> threaded = threaded_space.fitness_batch(
      sample_skeletons(threaded_space, 32, 11), pool);

  EXPECT_EQ(serial, threaded);  // std::vector<double> bitwise equality
  EXPECT_EQ(serial_space.cache_hits(), threaded_space.cache_hits());
  EXPECT_EQ(serial_space.cache_misses(), threaded_space.cache_misses());

  // A second batch over the same skeletons is all hits and still equal —
  // the warm path goes through the same aggregation.
  const std::vector<double> warm = threaded_space.fitness_batch(
      sample_skeletons(threaded_space, 32, 11), pool);
  EXPECT_EQ(serial, warm);
  EXPECT_EQ(threaded_space.cache_misses(), serial_space.cache_misses());
}

TEST(SkeletonSpaceBatchTest, EmptyBatchIsANoOp) {
  AdaptiveFixture fx;
  SkeletonSpace space(fx.problem, {{}, true});
  util::WorkerPool caller(1);
  EXPECT_TRUE(space.fitness_batch(std::vector<Skeleton>{}, caller).empty());
  EXPECT_EQ(space.cache_hits(), 0);
  EXPECT_EQ(space.cache_misses(), 0);
}

TEST(SkeletonSpaceBatchTest, BatchThenCompleteMatchesSerialSearchPath) {
  // complete() after a threaded batch fills in exactly the strategies the
  // memo-free greedy oracle picks, and charges each set as a memo hit.
  AdaptiveFixture fx;
  SkeletonSpace space(fx.problem, {{}, true});
  util::WorkerPool pool(3);

  const std::vector<Skeleton> baseline{space.baseline()};
  (void)space.fitness_batch(baseline, pool);
  std::set<SetKey> seen;
  const oracle::SweepCounts priced = oracle::count_sweep(baseline, seen);
  EXPECT_EQ(space.cache_hits(), priced.hits);
  EXPECT_EQ(space.cache_misses(), priced.misses);

  const Mapping mapping = space.complete(baseline.front());
  const std::vector<LayerAssignment>& sets = baseline.front().sets;
  ASSERT_EQ(mapping.sets.size(), sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(mapping.sets[i].strategies,
              oracle::greedy(space.evaluator().analytical(), {}, sets[i])
                  .strategies)
        << i;
  }
  EXPECT_EQ(space.cache_hits(),
            priced.hits + static_cast<long long>(sets.size()));
  EXPECT_EQ(space.cache_misses(), priced.misses);
}

/// Slices of the 8-accelerator F1 fleet, the full fleet (0) included.
const std::vector<topology::AccMask> kPlacements = {0, 0x0F, 0xF0, 0x3C, 0x81};

TEST(SetPriceTableTest, BorrowingSpacesMatchOwnPricingAcrossPlacements) {
  // One table lent to a space per placement, as comap lends one per
  // tenant to its slice searches. Each borrowing space must price, memo
  // and count exactly as a twin pricing its own misses; the table must
  // price each distinct key once. At 3 threads the spaces run their
  // batches concurrently, so lookups of shared keys race on the table.
  AdaptiveFixture fx;
  const SecondLevelConfig second{};
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetPriceTable table(fx.problem, second);
    std::vector<Problem> own(kPlacements.size(), fx.problem);
    std::vector<Problem> lent(kPlacements.size());
    std::vector<std::unique_ptr<SkeletonSpace>> own_spaces;
    std::vector<std::unique_ptr<SkeletonSpace>> lent_spaces;
    std::vector<std::vector<Skeleton>> skeletons;
    std::set<SetKey> distinct;
    for (std::size_t k = 0; k < kPlacements.size(); ++k) {
      own[k].placement = kPlacements[k];
      lent[k] = own[k];
      lent[k].set_prices = &table;
      own_spaces.push_back(
          std::make_unique<SkeletonSpace>(own[k], SkeletonSpace::Config{second}));
      lent_spaces.push_back(std::make_unique<SkeletonSpace>(
          lent[k], SkeletonSpace::Config{second}));
      skeletons.push_back(sample_skeletons(*own_spaces[k], 16, 3 + k));
      (void)oracle::count_sweep(skeletons[k], distinct);
    }

    std::vector<std::vector<double>> own_values(kPlacements.size());
    std::vector<std::vector<double>> lent_values(kPlacements.size());
    const auto run = [&](std::size_t k) {
      util::WorkerPool caller(1);
      // Twice: the second batch is all memo hits on both spaces.
      for (int pass = 0; pass < 2; ++pass) {
        own_values[k] = own_spaces[k]->fitness_batch(skeletons[k], caller);
        lent_values[k] = lent_spaces[k]->fitness_batch(skeletons[k], caller);
      }
    };
    util::WorkerPool pool(threads);
    pool.parallel_for(kPlacements.size(), run);

    long long lookups = 0;
    for (std::size_t k = 0; k < kPlacements.size(); ++k) {
      EXPECT_EQ(own_values[k], lent_values[k]) << k;  // bitwise
      EXPECT_EQ(own_spaces[k]->cache_hits(), lent_spaces[k]->cache_hits());
      EXPECT_EQ(own_spaces[k]->cache_misses(), lent_spaces[k]->cache_misses());
      lookups += lent_spaces[k]->cache_misses();
      // The values are the reference greedy's, aggregated.
      for (std::size_t i = 0; i < skeletons[k].size(); ++i) {
        EXPECT_EQ(lent_values[k][i],
                  oracle::skeleton_fitness(
                      lent_spaces[k]->evaluator().analytical(), second,
                      skeletons[k][i]))
            << k << '/' << i;
      }
    }
    // Every memo miss of a borrowing space is one table lookup, and each
    // distinct key is priced once, whatever the thread count.
    EXPECT_EQ(table.misses(), static_cast<long long>(distinct.size()));
    EXPECT_EQ(table.hits() + table.misses(), lookups);
    EXPECT_GT(table.hits(), 0);  // the slices do share keys
  }
}

TEST(SetPriceTableTest, RejectsAProblemOrConfigItIsNotBoundTo) {
  AdaptiveFixture fx;
  AdaptiveFixture other;  // equal content, but another spine and fleet
  const SecondLevelConfig second{};
  SetPriceTable table(fx.problem, second);
  Problem lent = fx.problem;
  lent.set_prices = &table;
  const auto space = [&](const Problem& problem,
                         const SecondLevelConfig& config) {
    return SkeletonSpace(problem, SkeletonSpace::Config{config});
  };

  Problem foreign = other.problem;
  foreign.set_prices = &table;
  EXPECT_THROW((void)space(foreign, second), InternalError);
  FixedFixture fixed_fx;
  SetPriceTable fixed_table(fixed_fx.problem, second);
  Problem adaptive = fixed_fx.problem;
  adaptive.set_prices = &fixed_table;
  EXPECT_NO_THROW((void)space(adaptive, second));
  adaptive.adaptive = true;
  EXPECT_THROW((void)space(adaptive, second), InternalError);
  Problem slow = lent;
  slow.sim_params.link_latency = microseconds(3.0);
  EXPECT_THROW((void)space(slow, second), InternalError);
  SecondLevelConfig no_ss = second;
  no_ss.enable_ss = false;
  EXPECT_THROW((void)space(lent, no_ss), InternalError);
  SecondLevelConfig two_dims = second;
  two_dims.max_es_dims = 2;
  EXPECT_THROW((void)space(lent, two_dims), InternalError);

  // Neither the placement nor the refine GA's knobs reach greedy().
  Problem sliced = lent;
  sliced.placement = 0x0F;
  EXPECT_NO_THROW((void)space(sliced, second));
  SecondLevelConfig small_ga = second;
  small_ga.ga.population = 8;
  EXPECT_NO_THROW((void)space(lent, small_ga));
}

}  // namespace
}  // namespace mars::core
