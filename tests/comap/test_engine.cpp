#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "mars/comap/engine.h"
#include "mars/obs/metrics.h"
#include "mars/topology/presets.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"

namespace mars::comap {
namespace {

TEST(PartitionDecode, EqualSharesSplitTheFleetEvenly) {
  const auto masks = decode_partition_genome({0.5, 0.5, 0.5}, 2, 4);
  ASSERT_EQ(masks.size(), 2u);
  EXPECT_EQ(masks[0], 0x3u);  // accelerators {0,1}
  EXPECT_EQ(masks[1], 0xCu);  // accelerators {2,3}
}

TEST(PartitionDecode, AllZeroGenomeDecaysToEqualShares) {
  EXPECT_EQ(decode_partition_genome({0.0, 0.0, 0.0}, 2, 4),
            decode_partition_genome({0.5, 0.5, 0.5}, 2, 4));
}

TEST(PartitionDecode, SharedPoolJoinsEveryTenantSlice) {
  const auto masks = decode_partition_genome({0.0, 0.0, 1.0}, 2, 4);
  // Own ranges {0} and {1}; shared pool {2,3} unioned into both.
  EXPECT_EQ(masks[0], 0xDu);
  EXPECT_EQ(masks[1], 0xEu);
  EXPECT_EQ(masks[0] & masks[1], 0xCu);
}

TEST(PartitionDecode, EveryTenantKeepsAtLeastOneAccelerator) {
  const auto masks = decode_partition_genome({1.0, 0.0, 0.0, 0.0}, 3, 4);
  ASSERT_EQ(masks.size(), 3u);
  for (const topology::AccMask mask : masks) {
    EXPECT_GE(topology::mask_count(mask), 1);
  }
  // Tenant ranges are disjoint when the shared pool is empty, and cover
  // the fleet.
  EXPECT_EQ(masks[0] | masks[1] | masks[2], 0xFu);
  EXPECT_EQ(masks[0] & masks[1], 0u);
  EXPECT_EQ(masks[1] & masks[2], 0u);
}

TEST(PartitionDecode, GenesOutsideUnitIntervalAreClamped) {
  EXPECT_EQ(decode_partition_genome({7.0, -3.0, 0.0}, 2, 4),
            decode_partition_genome({1.0, 0.0, 0.0}, 2, 4));
}

TEST(PartitionDecode, RejectsWrongArityAndTinyFleet) {
  EXPECT_THROW((void)decode_partition_genome({0.5, 0.5}, 2, 4),
               InvalidArgument);
  EXPECT_THROW((void)decode_partition_genome({0.5, 0.5, 0.5}, 2, 1),
               InvalidArgument);
}

TEST(EncodingSpec, ParsesNamedValuesAndRejectsOthers) {
  EXPECT_EQ(parse_encoding("partition"), Encoding::kPartition);
  EXPECT_EQ(parse_encoding("interleave"), Encoding::kInterleave);
  try {
    (void)parse_encoding("mixed");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bad comap encoding 'mixed'"),
              std::string::npos);
  }
}

TEST(EncodingSpec, SpecStringNamesTheSearchNotTheExecution) {
  CoMapConfig config;
  config.seed = 42;
  config.threads = 8;  // execution knob: must NOT appear
  const CoMapEngine engine(config);
  const std::string spec = engine.spec_string();
  EXPECT_NE(spec.find("comap:partition"), std::string::npos);
  EXPECT_NE(spec.find("seed=42"), std::string::npos);
  EXPECT_NE(spec.find(";inner=["), std::string::npos);
  EXPECT_EQ(spec.find("thread"), std::string::npos);
}

TEST(EncodingSpec, ValidateRejectsBadThreads) {
  CoMapConfig config;
  config.threads = 0;
  EXPECT_THROW(validate_config(config), InvalidArgument);
}

/// Search tests run a deliberately tiny schedule on the 4-accelerator
/// cloud — enough generations for the GA to move, small enough to stay
/// fast under sanitizers.
class EngineSearchTest : public ::testing::Test {
 protected:
  EngineSearchTest()
      : topo_(topology::h2h_cloud(4, gbps(4.0), 4)),
        designs_(accel::h2h_designs()) {
    problem_.tenants = {Tenant{"alexnet", 1.0, Seconds{}},
                        Tenant{"resnet18", 1.0, Seconds{}}};
    problem_.topo = &topo_;
    problem_.designs = &designs_;
    problem_.adaptive = false;
    problem_.rollout.rate = 120.0;
    problem_.rollout.duration = Seconds(0.3);
    problem_.rollout.seed = 7;
    problem_.rollout.default_slo = milliseconds(80.0);
  }

  [[nodiscard]] static CoMapConfig tiny(Encoding encoding, int threads = 1) {
    CoMapConfig config;
    config.encoding = encoding;
    config.seed = 7;
    config.threads = threads;
    config.ga.population = 6;
    config.ga.generations = 3;
    config.ga.stall_generations = 2;
    config.inner.seed = 7;
    config.inner.first_ga.population = 8;
    config.inner.first_ga.generations = 3;
    config.inner.first_ga.stall_generations = 2;
    config.inner.second.ga.population = 6;
    config.inner.second.ga.generations = 2;
    return config;
  }

  static void expect_identical(const CoMapResult& a, const CoMapResult& b) {
    EXPECT_EQ(a.score.fitness, b.score.fitness);
    EXPECT_EQ(a.independent_score.fitness, b.independent_score.fitness);
    EXPECT_EQ(a.joint_won, b.joint_won);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.provenance.evaluations, b.provenance.evaluations);
    EXPECT_EQ(a.rollout_hits, b.rollout_hits);
    EXPECT_EQ(a.rollout_misses, b.rollout_misses);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
      EXPECT_EQ(a.tenants[t].placement, b.tenants[t].placement);
    }
  }

  topology::Topology topo_;
  accel::DesignRegistry designs_;
  CoMapProblem problem_;
};

TEST_F(EngineSearchTest, SearchInvariantsHoldForBothEncodings) {
  for (const Encoding encoding :
       {Encoding::kPartition, Encoding::kInterleave}) {
    const CoMapEngine engine(tiny(encoding));
    const CoMapResult result = engine.search(problem_);
    ASSERT_EQ(result.mappings.size(), 2u) << to_string(encoding);
    ASSERT_EQ(result.tenants.size(), 2u);
    EXPECT_EQ(result.tenants[0].model, "alexnet");
    EXPECT_EQ(result.tenants[1].model, "resnet18");
    // The explicit independent candidate caps the joint fitness.
    EXPECT_LE(result.score.fitness, result.independent_score.fitness);
    EXPECT_EQ(result.joint_won,
              result.score.fitness < result.independent_score.fitness);
    EXPECT_GE(result.provenance.evaluations, 1);
    EXPECT_EQ(result.provenance.engine, "comap");
    EXPECT_EQ(result.provenance.spec, engine.spec_string());
    EXPECT_EQ(result.provenance.members.size(), 2u);
    EXPECT_FALSE(result.history.empty());
  }
}

TEST_F(EngineSearchTest, ResultsAreByteIdenticalAcrossThreadsAndRepeats) {
  for (const Encoding encoding :
       {Encoding::kPartition, Encoding::kInterleave}) {
    const CoMapEngine serial(tiny(encoding, /*threads=*/1));
    const CoMapEngine threaded(tiny(encoding, /*threads=*/4));
    const CoMapResult reference = serial.search(problem_);
    expect_identical(reference, threaded.search(problem_));
    expect_identical(reference, serial.search(problem_));
  }
}

TEST_F(EngineSearchTest, EvaluationBudgetOfOneReturnsIndependent) {
  const CoMapEngine engine(tiny(Encoding::kPartition));
  const CoMapResult result =
      engine.search(problem_, plan::Budget::evaluations(1));
  EXPECT_FALSE(result.joint_won);
  EXPECT_EQ(result.provenance.winner, "independent");
  EXPECT_EQ(result.provenance.evaluations, 1);
  EXPECT_EQ(result.provenance.stopped, plan::StopReason::kEvaluationBudget);
  EXPECT_EQ(result.score.fitness, result.independent_score.fitness);
  for (const TenantOutcome& tenant : result.tenants) {
    EXPECT_EQ(tenant.placement, 0u);  // full fleet
  }
}

TEST_F(EngineSearchTest, CancellationStillReturnsTheIndependentAnswer) {
  plan::CancelToken token;
  token.cancel();
  const CoMapEngine engine(tiny(Encoding::kPartition));
  const CoMapResult result =
      engine.search(problem_, plan::Budget::cancellable(token));
  EXPECT_EQ(result.provenance.stopped, plan::StopReason::kCancelled);
  EXPECT_FALSE(result.joint_won);
  ASSERT_EQ(result.mappings.size(), 2u);
}

TEST_F(EngineSearchTest, ProgressReportsMonotoneEvaluations) {
  std::vector<long long> evals;
  const CoMapEngine engine(tiny(Encoding::kPartition));
  (void)engine.search(problem_, {}, nullptr, [&](const plan::Progress& p) {
    evals.push_back(p.evaluations);
  });
  ASSERT_FALSE(evals.empty());
  EXPECT_EQ(evals.front(), 1);  // the independent candidate
  for (std::size_t i = 1; i < evals.size(); ++i) {
    EXPECT_GE(evals[i], evals[i - 1]);
  }
}

TEST_F(EngineSearchTest, MappingCacheComposesWithInnerSearches) {
  // At threads > 1 the inner searches run in parallel, while the cache's
  // loads and stores stay in the sweep's serial steps.
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("comap-cache-" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    const CoMapEngine engine(tiny(Encoding::kPartition, threads));

    const serve::MappingCache cold(dir.string());
    const CoMapResult first = engine.search(problem_, {}, &cold);
    EXPECT_EQ(cold.hits(), 0);
    EXPECT_GT(cold.stores(), 0);

    const serve::MappingCache warm(dir.string());
    const CoMapResult second = engine.search(problem_, {}, &warm);
    EXPECT_GT(warm.hits(), 0);
    EXPECT_EQ(warm.stores(), 0);
    expect_identical(first, second);
  }
}

TEST_F(EngineSearchTest, StoreFailureLeavesTheSearchUnchanged) {
  // The cache directory vanishes after the cache opens: every inner store
  // fails, and the search still returns what an uncached run returns.
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("comap-store-failure-" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    const CoMapEngine engine(tiny(Encoding::kPartition, threads));
    const CoMapResult uncached = engine.search(problem_);

    const serve::MappingCache cache(dir.string());
    std::filesystem::remove_all(dir);
    const LogLevel previous = set_log_level(LogLevel::kError);
    const CoMapResult result = engine.search(problem_, {}, &cache);
    set_log_level(previous);
    expect_identical(uncached, result);
    EXPECT_GT(cache.misses(), 0);
    EXPECT_EQ(cache.stores(), 0);
    EXPECT_FALSE(std::filesystem::exists(dir));
  }
}

TEST_F(EngineSearchTest, InnerCountersAreThreadInvariantAndCountSlices) {
  for (const Encoding encoding :
       {Encoding::kPartition, Encoding::kInterleave}) {
    SCOPED_TRACE(to_string(encoding));
    std::vector<CoMapResult> results;
    for (const int threads : {1, 4}) {
      // A cold cache sees exactly one load per distinct (tenant, slice)
      // key the search planned.
      const std::filesystem::path dir =
          std::filesystem::path(::testing::TempDir()) /
          ("comap-inner-" + to_string(encoding) + std::to_string(threads));
      std::filesystem::remove_all(dir);
      const serve::MappingCache cache(dir.string());
      obs::MetricsRegistry registry;
      obs::MetricsRegistry* previous = obs::install_metrics(&registry);
      results.push_back(
          CoMapEngine(tiny(encoding, threads)).search(problem_, {}, &cache));
      obs::install_metrics(previous);

      const CoMapResult& result = results.back();
      EXPECT_EQ(result.inner_misses, cache.misses());
      EXPECT_EQ(result.inner_misses, cache.stores());
      EXPECT_GE(result.inner_misses, 2);  // the full-fleet plans at least
      EXPECT_EQ(registry.counter_value("comap.inner.hits"), result.inner_hits);
      EXPECT_EQ(registry.counter_value("comap.inner.misses"),
                result.inner_misses);
    }
    EXPECT_EQ(results[0].inner_hits, results[1].inner_hits);
    EXPECT_EQ(results[0].inner_misses, results[1].inner_misses);
    if (encoding == Encoding::kPartition) {
      EXPECT_GT(results[0].inner_hits, 0);  // repeated slices are memoised
    } else {
      // Interleave plans only the two full-fleet independents.
      EXPECT_EQ(results[0].inner_misses, 2);
    }
  }
}

TEST_F(EngineSearchTest, SetCountersAreThreadInvariantAndCountDistinctKeys) {
  // Every inner-search memo miss is one lookup in its tenant's table
  // (`search.space.memo.misses` sums the inner spaces' misses).
  const auto run = [&](int threads, const plan::Budget& budget) {
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* previous = obs::install_metrics(&registry);
    const CoMapResult result =
        CoMapEngine(tiny(Encoding::kPartition, threads)).search(problem_, budget);
    obs::install_metrics(previous);
    EXPECT_EQ(registry.counter_value("comap.sets.hits"), result.set_hits);
    EXPECT_EQ(registry.counter_value("comap.sets.misses"), result.set_misses);
    EXPECT_EQ(result.set_hits + result.set_misses,
              registry.counter_value("search.space.memo.misses"));
    return result;
  };

  // One evaluation: each tenant's table serves a single full-fleet search,
  // whose memo misses are its distinct keys. So are the table's misses.
  const CoMapResult independent = run(1, plan::Budget::evaluations(1));
  EXPECT_EQ(independent.set_hits, 0);
  EXPECT_GT(independent.set_misses, 0);

  // The full search: slices of one tenant share keys, and the counts are
  // the same at any thread count.
  const CoMapResult serial = run(1, {});
  const CoMapResult threaded = run(4, {});
  EXPECT_EQ(serial.set_hits, threaded.set_hits);
  EXPECT_EQ(serial.set_misses, threaded.set_misses);
  EXPECT_GT(serial.set_hits, 0);
  EXPECT_GT(serial.set_misses, independent.set_misses);
}

/// The quality gate from the acceptance criterion: on the contended
/// two-tenant pair at 150 rps, the joint partition search strictly beats
/// independent per-model planning under the rollout objective.
TEST(CoMapQuality, JointBeatsIndependentOnContendedPair) {
  const topology::Topology topo = topology::h2h_cloud(8, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  CoMapProblem problem;
  problem.tenants = {Tenant{"facebagnet", 1.0, Seconds{}},
                     Tenant{"resnet50", 1.0, Seconds{}}};
  problem.topo = &topo;
  problem.designs = &designs;
  problem.adaptive = false;
  problem.rollout.rate = 150.0;
  problem.rollout.duration = Seconds(0.5);
  problem.rollout.seed = 1;
  problem.rollout.default_slo = milliseconds(100.0);

  CoMapConfig config;
  config.seed = 1;
  config.ga.population = 8;
  config.ga.generations = 6;
  config.ga.stall_generations = 4;
  config.inner.seed = 1;
  config.inner.first_ga.population = 12;
  config.inner.first_ga.generations = 8;
  config.inner.first_ga.stall_generations = 4;
  config.inner.second.ga.population = 8;
  config.inner.second.ga.generations = 6;

  const CoMapResult result = CoMapEngine(config).search(problem);
  EXPECT_TRUE(result.joint_won);
  EXPECT_LT(result.score.fitness, result.independent_score.fitness);
  EXPECT_GT(result.score.goodput_rps(problem.rollout.duration),
            result.independent_score.goodput_rps(problem.rollout.duration));
  // Partition winners carry their fleet slices for serve --shards.
  for (const TenantOutcome& tenant : result.tenants) {
    EXPECT_NE(tenant.placement, 0u);
  }
}

}  // namespace
}  // namespace mars::comap
