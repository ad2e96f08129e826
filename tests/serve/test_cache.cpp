#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "mars/accel/registry.h"
#include "mars/core/evaluator.h"
#include "mars/core/serialize.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/serve/cache.h"
#include "mars/serve/service.h"
#include "mars/topology/presets.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"

namespace mars::serve {
namespace {

/// Smoke-sized search budget: the cache semantics do not depend on how
/// hard the search worked, only on what it returned.
core::MarsConfig tiny_config(std::uint64_t seed = 1) {
  core::MarsConfig config;
  config.seed = seed;
  config.first_ga.population = 6;
  config.first_ga.generations = 3;
  config.first_ga.stall_generations = 2;
  config.second.ga.population = 4;
  config.second.ga.generations = 2;
  return config;
}

plan::GaEngine tiny_ga(std::uint64_t seed = 1) {
  return plan::GaEngine(tiny_config(seed));
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : dir_(std::filesystem::path(::testing::TempDir()) /
             ("mars-cache-" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()))),
        topo_(topology::f1_16xlarge()),
        designs_(accel::table2_designs()) {
    std::filesystem::remove_all(dir_);
  }

  ~CacheTest() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::unique_ptr<ModelService> plan(
      const MappingCache* cache, const topology::Topology& topo,
      std::uint64_t seed = 1) const {
    return plan_alexnet(tiny_ga(seed), cache, topo);
  }

  /// A one-model fleet: alexnet on `topo`, adaptive.
  [[nodiscard]] std::unique_ptr<ModelService> plan_alexnet(
      const plan::SearchEngine& engine, const MappingCache* cache,
      const topology::Topology& topo, const plan::Budget& budget = {}) const {
    return std::move(plan_services({"alexnet"}, topo, designs_,
                                   /*adaptive=*/true, engine, cache, budget)
                         .front());
  }

  /// The fingerprint ModelService computes for tiny_ga under no budget.
  [[nodiscard]] std::string tiny_fingerprint(
      const topology::Topology& topo, std::uint64_t seed = 1) const {
    return MappingCache::fingerprint(topo, designs_, true,
                                     tiny_ga(seed).spec_string());
  }

  [[nodiscard]] std::size_t entries() const {
    if (!std::filesystem::exists(dir_)) return 0;
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      (void)entry;
      ++count;
    }
    return count;
  }

  std::filesystem::path dir_;
  topology::Topology topo_;
  accel::DesignRegistry designs_;
};

TEST_F(CacheTest, SecondConstructionHitsTheCacheWithIdenticalMapping) {
  const MappingCache cache(dir_.string());
  const auto cold = plan(&cache, topo_);
  EXPECT_EQ(cold->mapping_source(), ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 1u);

  const auto warm = plan(&cache, topo_);
  EXPECT_EQ(warm->mapping_source(), ModelService::MappingSource::kCacheHit);
  // The rehydrated mapping is the searched mapping, field for field, and
  // replays to the identical simulated makespan.
  EXPECT_EQ(core::to_json(warm->mapping(), *warm->problem().spine, designs_,
                          true)
                .dump(),
            core::to_json(cold->mapping(), *cold->problem().spine, designs_,
                          true)
                .dump());
  EXPECT_DOUBLE_EQ(warm->single_latency().count(),
                   cold->single_latency().count());
  const core::EvaluationSummary cold_eval =
      core::MappingEvaluator(cold->problem()).evaluate(cold->mapping());
  const core::EvaluationSummary warm_eval =
      core::MappingEvaluator(warm->problem()).evaluate(warm->mapping());
  EXPECT_DOUBLE_EQ(warm_eval.simulated.count(), cold_eval.simulated.count());
}

TEST_F(CacheTest, DirectStoreLoadRoundTrip) {
  const MappingCache cache(dir_.string());
  const auto service = plan(&cache, topo_);
  const MappingCache::Key key{"alexnet", tiny_fingerprint(topo_)};
  const std::optional<core::Mapping> loaded =
      cache.load(key, service->problem());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(core::to_json(*loaded, *service->problem().spine, designs_, true)
                .dump(),
            core::to_json(service->mapping(), *service->problem().spine,
                          designs_, true)
                .dump());
}

TEST_F(CacheTest, TopologyChangeInvalidates) {
  const MappingCache cache(dir_.string());
  (void)plan(&cache, topo_);
  // Same shape, different link bandwidth: a different system, so the
  // cached mapping must not be reused.
  const topology::Topology faster = topology::f1_16xlarge(gbps(16.0));
  const auto replanned = plan(&cache, faster);
  EXPECT_EQ(replanned->mapping_source(),
            ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 2u);  // both fingerprints now cached
  // And each system keeps hitting its own entry.
  EXPECT_EQ(plan(&cache, topo_)->mapping_source(),
            ModelService::MappingSource::kCacheHit);
  EXPECT_EQ(plan(&cache, faster)->mapping_source(),
            ModelService::MappingSource::kCacheHit);
}

TEST_F(CacheTest, SearchConfigChangeInvalidates) {
  const MappingCache cache(dir_.string());
  (void)plan(&cache, topo_, /*seed=*/1);
  EXPECT_EQ(plan(&cache, topo_, /*seed=*/2)->mapping_source(),
            ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 2u);
}

TEST_F(CacheTest, CrossEngineEntriesNeverAlias) {
  // The satellite bug this guards: engines sharing one tuning struct must
  // not share cache entries. Every engine's spec embeds its own name and
  // effective knobs, so a GA mapping is never served to an annealing run.
  const MappingCache cache(dir_.string());
  const core::MarsConfig tuning = tiny_config();
  const auto ga = plan::make_engine("ga", tuning);
  const auto anneal = plan::make_engine("anneal", tuning);
  const auto random = plan::make_engine("random", tuning);
  EXPECT_NE(MappingCache::fingerprint(topo_, designs_, true,
                                      ga->spec_string()),
            MappingCache::fingerprint(topo_, designs_, true,
                                      anneal->spec_string()));
  EXPECT_NE(MappingCache::fingerprint(topo_, designs_, true,
                                      anneal->spec_string()),
            MappingCache::fingerprint(topo_, designs_, true,
                                      random->spec_string()));

  const auto ga_service = plan_alexnet(*ga, &cache, topo_);
  EXPECT_EQ(ga_service->mapping_source(),
            ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 1u);
  // Same model, same cache, different engine: a fresh search, not a hit.
  const auto anneal_service = plan_alexnet(*anneal, &cache, topo_);
  EXPECT_EQ(anneal_service->mapping_source(),
            ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 2u);
  // Each engine then hits its own entry.
  EXPECT_EQ(plan_alexnet(*anneal, &cache, topo_)->mapping_source(),
            ModelService::MappingSource::kCacheHit);
}

TEST_F(CacheTest, BudgetIsPartOfTheCacheIdentity) {
  // A budget-truncated search returns a different mapping than an
  // unbudgeted one; serving the unbudgeted entry to a budgeted startup
  // (or vice versa) would misreport what was searched.
  const plan::GaEngine engine = tiny_ga();
  plan::Budget budget;
  budget.max_evaluations = 8;
  EXPECT_NE(search_spec(engine, {}), search_spec(engine, budget));

  const MappingCache cache(dir_.string());
  const auto unbudgeted = plan_alexnet(engine, &cache, topo_);
  EXPECT_EQ(entries(), 1u);
  const auto budgeted = plan_alexnet(engine, &cache, topo_, budget);
  EXPECT_EQ(budgeted->mapping_source(),
            ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 2u);
}

TEST_F(CacheTest, CancelledSearchIsNotStored) {
  // A cancel token is a runtime event the fingerprint cannot key, so a
  // truncated best-so-far mapping must never poison the complete-search
  // entry.
  const MappingCache cache(dir_.string());
  plan::CancelToken token;
  token.cancel();
  const auto service = plan_alexnet(tiny_ga(), &cache, topo_,
                                    plan::Budget::cancellable(token));
  EXPECT_EQ(service->mapping_source(), ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 0u);
  // The next (uncancelled) startup searches fully and stores as usual.
  EXPECT_EQ(plan(&cache, topo_)->mapping_source(),
            ModelService::MappingSource::kSearched);
  EXPECT_EQ(entries(), 1u);
}

TEST_F(CacheTest, FingerprintCoversDesignParameters) {
  // Two registries whose designs share names but differ in parameters
  // (table2 vs h2h both register a SuperLIP variant under a different
  // parameterisation) must not collide; spot-check directly that every
  // fingerprint input matters by perturbing the registry.
  const std::string spec = tiny_ga().spec_string();
  const std::string base =
      MappingCache::fingerprint(topo_, designs_, true, spec);
  EXPECT_NE(base,
            MappingCache::fingerprint(topo_, accel::h2h_designs(), true, spec));
  EXPECT_NE(base, MappingCache::fingerprint(topo_, designs_, false, spec));
  EXPECT_NE(base, MappingCache::fingerprint(topo_, designs_, true,
                                            plan::BaselineEngine{}.spec_string()));
  EXPECT_NE(base, MappingCache::fingerprint(topology::f1_16xlarge(gbps(16.0)),
                                            designs_, true, spec));
  EXPECT_NE(base, MappingCache::fingerprint(topo_, designs_, true,
                                            tiny_ga(/*seed=*/2).spec_string()));
  // The per-design cost/energy attributes the hardware search varies are
  // fingerprint inputs too: a registry with one perturbed design must not
  // collide with the stock menu.
  const auto perturbed = [&](double area, double picojoules_per_mac) {
    accel::DesignRegistry registry;
    for (const std::string& name : accel::table2_design_names()) {
      std::unique_ptr<accel::AcceleratorDesign> design =
          accel::make_table2_design(name);
      if (name == "SuperLIP") {
        if (area > 0.0) design->set_area_cost(area);
        if (picojoules_per_mac > 0.0) {
          design->set_energy_per_mac(picojoules(picojoules_per_mac));
        }
      }
      registry.add(std::move(design));
    }
    return MappingCache::fingerprint(topo_, registry, true, spec);
  };
  const std::string stock = perturbed(0.0, 0.0);
  EXPECT_EQ(stock, base);
  EXPECT_NE(perturbed(2.0, 0.0), base);
  EXPECT_NE(perturbed(0.0, 9.0), base);
  // And it is stable: same inputs, same hash.
  EXPECT_EQ(base, MappingCache::fingerprint(topo_, designs_, true, spec));
}

TEST_F(CacheTest, CorruptEntryIsAMissNotAnError) {
  const MappingCache cache(dir_.string());
  const auto cold = plan(&cache, topo_);
  const MappingCache::Key key{"alexnet", tiny_fingerprint(topo_)};
  {
    std::ofstream file(cache.path_for(key), std::ios::trunc);
    file << "{ not json";
  }
  const LogLevel previous = set_log_level(LogLevel::kError);
  const auto recovered = plan(&cache, topo_);
  set_log_level(previous);
  EXPECT_EQ(recovered->mapping_source(),
            ModelService::MappingSource::kSearched);
  // The re-search overwrote the corrupt entry; the next run hits again.
  EXPECT_EQ(plan(&cache, topo_)->mapping_source(),
            ModelService::MappingSource::kCacheHit);
}

TEST_F(CacheTest, ForeignEntryUnderTheRightNameIsAMiss) {
  const MappingCache cache(dir_.string());
  const auto cold = plan(&cache, topo_);
  const MappingCache::Key key{"alexnet", tiny_fingerprint(topo_)};
  // A well-formed file whose embedded key disagrees with the filename
  // (e.g. a copy from another cache directory) must not be trusted.
  std::string content;
  {
    std::ifstream file(cache.path_for(key));
    std::ostringstream os;
    os << file.rdbuf();
    content = os.str();
  }
  const std::size_t pos = content.find("\"fingerprint\":\"");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos + 15, 4, "zzzz");  // not hex: cannot collide
  {
    std::ofstream file(cache.path_for(key), std::ios::trunc);
    file << content;
  }
  const LogLevel previous = set_log_level(LogLevel::kError);
  EXPECT_FALSE(cache.load(key, cold->problem()).has_value());
  set_log_level(previous);
}

TEST_F(CacheTest, StoreFailureDoesNotBreakPlanning) {
  const MappingCache cache(dir_.string());
  // Yank the directory out from under the cache: the post-search store
  // fails, but the service must still come up with its searched mapping.
  std::filesystem::remove_all(dir_);
  const LogLevel previous = set_log_level(LogLevel::kError);
  const auto service = plan(&cache, topo_);
  set_log_level(previous);
  EXPECT_EQ(service->mapping_source(), ModelService::MappingSource::kSearched);
  EXPECT_GT(service->single_latency().count(), 0.0);
}

TEST_F(CacheTest, BaselineEngineBypassesTheCache) {
  const MappingCache cache(dir_.string());
  const auto service = plan_alexnet(plan::BaselineEngine{}, &cache, topo_);
  EXPECT_EQ(service->mapping_source(), ModelService::MappingSource::kBaseline);
  EXPECT_EQ(entries(), 0u);
}

TEST_F(CacheTest, PlanServicesThreadsTheCacheThrough) {
  const MappingCache cache(dir_.string());
  const plan::GaEngine engine = tiny_ga();
  const auto cold = plan_services({"alexnet", "resnet18"}, topo_, designs_,
                                  true, engine, &cache);
  const auto warm = plan_services({"alexnet", "resnet18"}, topo_, designs_,
                                  true, engine, &cache);
  for (const auto& service : warm) {
    EXPECT_EQ(service->mapping_source(),
              ModelService::MappingSource::kCacheHit)
        << service->name();
  }
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_DOUBLE_EQ(warm[i]->single_latency().count(),
                     cold[i]->single_latency().count());
  }
}

TEST_F(CacheTest, KeyIsTheFingerprintOfTheSearchSpec) {
  // key() is the one place the cache identity is assembled: the explicit
  // fingerprint formula over the engine spec plus its budget and
  // placement suffixes, in that order.
  const plan::GaEngine engine = tiny_ga();
  const std::string spec = engine.spec_string();
  const auto expected = [&](bool adaptive, const std::string& suffix) {
    return MappingCache::Key{
        "alexnet",
        MappingCache::fingerprint(topo_, designs_, adaptive, spec + suffix)};
  };
  const auto key = [&](const plan::Planner& planner,
                       const plan::Budget& budget) {
    return MappingCache::key("alexnet", planner.problem(), engine, budget);
  };
  const plan::Planner full = plan::Planner::for_model("alexnet", topo_, designs_);
  const plan::Planner fixed = plan::Planner::for_model(
      "alexnet", topo_, designs_, /*adaptive=*/false);
  const plan::Planner sliced = plan::Planner::for_model(
      "alexnet", topo_, designs_, /*adaptive=*/true, /*placement=*/0x35);
  plan::Budget both = plan::Budget::evaluations(8);
  both.wall_clock = Seconds(0.25);
  plan::CancelToken token;

  EXPECT_EQ(key(full, {}), expected(true, ""));
  EXPECT_EQ(key(fixed, {}), expected(false, ""));
  EXPECT_EQ(key(full, plan::Budget::evaluations(8)), expected(true, ";evals=8"));
  EXPECT_EQ(key(full, plan::Budget::wall(Seconds(0.25))),
            expected(true, ";wall_ms=250"));
  EXPECT_EQ(key(sliced, {}), expected(true, ";placement=35"));
  EXPECT_EQ(key(sliced, both),
            expected(true, ";evals=8;wall_ms=250;placement=35"));
  // A cancel token is a runtime event, not part of the identity.
  EXPECT_EQ(key(full, plan::Budget::cancellable(token)), expected(true, ""));
  // The baseline never searches, so it gets no key.
  EXPECT_FALSE(MappingCache::key("alexnet", full.problem(),
                                 plan::BaselineEngine{}, {})
                   .has_value());
}

TEST_F(CacheTest, StoreSearchedSkipsACancelledSearch) {
  const MappingCache cache(dir_.string());
  const auto service = plan(nullptr, topo_);
  const MappingCache::Key key =
      *MappingCache::key("alexnet", service->problem(), tiny_ga(), {});
  plan::Provenance cancelled = service->provenance();
  cancelled.stopped = plan::StopReason::kCancelled;
  cache.store_searched(key, service->mapping(), cancelled, service->problem());
  EXPECT_EQ(entries(), 0u);
  EXPECT_EQ(cache.stores(), 0);
  // The same mapping from a complete search is stored, and hits after.
  cache.store_searched(key, service->mapping(), service->provenance(),
                       service->problem());
  EXPECT_EQ(entries(), 1u);
  EXPECT_EQ(cache.stores(), 1);
  EXPECT_EQ(plan(&cache, topo_)->mapping_source(),
            ModelService::MappingSource::kCacheHit);
}

TEST_F(CacheTest, FailedStoreLogsOneWarningAndDoesNotThrow) {
  const MappingCache cache(dir_.string());
  const auto service = plan(nullptr, topo_);
  const MappingCache::Key key =
      *MappingCache::key("alexnet", service->problem(), tiny_ga(), {});
  std::filesystem::remove_all(dir_);
  std::ostringstream log;
  std::ostream* previous_sink = set_log_sink(&log);
  const LogLevel previous_level = set_log_level(LogLevel::kWarn);
  EXPECT_NO_THROW(cache.store_searched(key, service->mapping(),
                                       service->provenance(),
                                       service->problem()));
  set_log_level(previous_level);
  set_log_sink(previous_sink);
  EXPECT_EQ(cache.stores(), 0);
  EXPECT_FALSE(std::filesystem::exists(dir_));
  const std::string text = log.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
  EXPECT_NE(text.find("mapping cache store failed for 'alexnet'"),
            std::string::npos)
      << text;
}

TEST_F(CacheTest, RejectsUnusableDirectory) {
  EXPECT_THROW((void)MappingCache(""), InvalidArgument);
  const std::filesystem::path file = dir_.parent_path() / "cache-not-a-dir";
  std::filesystem::create_directories(dir_.parent_path());
  { std::ofstream out(file); }
  EXPECT_THROW((void)MappingCache(file.string()), InvalidArgument);
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace mars::serve
