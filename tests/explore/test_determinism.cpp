// The explore determinism contract (docs/EXPLORE.md): exported fronts
// are byte-identical across thread counts, across repeat runs, and
// between cold and warm mapping caches. Anything that varies per run
// (wall clock, cache hit counts) is excluded from the exports by
// construction — these tests pin that the exclusion actually holds.
#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "mars/explore/engine.h"
#include "mars/serve/cache.h"
#include "mars/util/logging.h"

namespace mars::explore {
namespace {

ExploreConfig tiny_config(int threads = 1) {
  ExploreConfig config;
  config.model = "alexnet";
  config.space =
      DesignSpace::parse("families=clique,ring;accs=2,4;bw=8;menus=solo");
  config.tuning.first_ga.population = 4;
  config.tuning.first_ga.generations = 2;
  config.tuning.second.ga.population = 4;
  config.tuning.second.ga.generations = 2;
  config.search_evaluations = 64;
  config.population = 4;
  config.generations = 2;
  config.threads = threads;
  config.front_size = 4;
  return config;
}

struct Exports {
  std::string csv;
  std::string json;
  long long cache_hits = 0;
};

Exports run(const ExploreConfig& config,
            const serve::MappingCache* cache = nullptr) {
  const ExploreResult result = ExploreEngine(config).search(cache);
  return {front_csv(result, config), front_json(result, config),
          result.cache_hits};
}

TEST(ExploreDeterminism, ByteIdenticalAcrossThreadCounts) {
  const Exports one = run(tiny_config(1));
  const Exports four = run(tiny_config(4));
  EXPECT_EQ(one.csv, four.csv);
  EXPECT_EQ(one.json, four.json);
}

TEST(ExploreDeterminism, ByteIdenticalAcrossRepeatRuns) {
  const Exports a = run(tiny_config());
  const Exports b = run(tiny_config());
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);
}

TEST(ExploreDeterminism, ByteIdenticalColdVersusWarmCache) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mars-explore-cache";
  std::filesystem::remove_all(dir);
  {
    const serve::MappingCache cache(dir.string());
    const Exports cold = run(tiny_config(), &cache);
    EXPECT_EQ(cold.cache_hits, 0);

    const Exports warm = run(tiny_config(), &cache);
    EXPECT_GT(warm.cache_hits, 0);
    EXPECT_EQ(cold.csv, warm.csv);
    EXPECT_EQ(cold.json, warm.json);

    // Warm at a different thread count, against the uncached baseline.
    const Exports warm4 = run(tiny_config(4), &cache);
    EXPECT_EQ(cold.csv, warm4.csv);

    const Exports uncached = run(tiny_config());
    EXPECT_EQ(uncached.csv, cold.csv);
    EXPECT_EQ(uncached.json, cold.json);
  }
  std::filesystem::remove_all(dir);
}

TEST(ExploreDeterminism, StoreFailureKeepsTheUncachedFront) {
  // The cache directory vanishes after the cache opens: every point's
  // store fails inside its pool job, and the exports match an uncached
  // run.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mars-explore-store-failure";
  std::filesystem::remove_all(dir);
  const Exports uncached = run(tiny_config(2));

  const serve::MappingCache cache(dir.string());
  std::filesystem::remove_all(dir);
  const LogLevel previous = set_log_level(LogLevel::kError);
  const Exports failed = run(tiny_config(2), &cache);
  set_log_level(previous);
  EXPECT_EQ(failed.csv, uncached.csv);
  EXPECT_EQ(failed.json, uncached.json);
  EXPECT_EQ(failed.cache_hits, 0);
  EXPECT_GT(cache.misses(), 0);
  EXPECT_EQ(cache.stores(), 0);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ExploreDeterminism, FrontSizeTruncatesExportsOnly) {
  // front_size shapes the exports, not the search: the unbounded front
  // and the priced set are unchanged.
  ExploreConfig full = tiny_config();
  full.front_size = 0;
  ExploreConfig truncated = tiny_config();
  truncated.front_size = 1;
  const ExploreResult a = ExploreEngine(full).search();
  const ExploreResult b = ExploreEngine(truncated).search();
  EXPECT_EQ(a.front.size(), b.front.size());
  EXPECT_EQ(a.provenance.evaluations, b.provenance.evaluations);
  // One header line + one point line.
  const std::string csv = front_csv(b, truncated);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

}  // namespace
}  // namespace mars::explore
