// serve::plan_services plans a fleet's models side by side, splitting the
// engine's threads across them. These tests pin that the split changes
// nothing a caller can see: every service field, the cache traffic and
// the error a failing fleet throws match a one-thread (serial) run.
#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>

#include "mars/accel/registry.h"
#include "mars/core/serialize.h"
#include "mars/plan/engines.h"
#include "mars/serve/cache.h"
#include "mars/serve/service.h"
#include "mars/topology/presets.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"

namespace mars::serve {
namespace {

using Services = std::vector<std::unique_ptr<ModelService>>;

/// Three models, one of them named twice: the repeat shares its first
/// occurrence's cache key.
const std::vector<std::string> kFleet = {"alexnet", "resnet18", "alexnet"};

core::MarsConfig tiny_config(int threads) {
  core::MarsConfig config;
  config.seed = 3;
  config.threads = threads;
  config.first_ga.population = 6;
  config.first_ga.generations = 3;
  config.first_ga.stall_generations = 2;
  config.second.ga.population = 4;
  config.second.ga.generations = 2;
  return config;
}

/// Records the thread count of every engine copy it hands out and of every
/// search it runs, then searches like the GA engine it wraps.
class SpyEngine final : public plan::SearchEngine {
 public:
  struct Log {
    std::mutex mutex;
    std::vector<int> with_threads;  // arguments of with_threads calls
    std::vector<int> searched;      // threads() of each searching engine
  };

  SpyEngine(int threads, Log& log, bool fail = false)
      : inner_(tiny_config(threads)), log_(log), fail_(fail) {}

  [[nodiscard]] std::string name() const override { return "spy"; }
  [[nodiscard]] std::string spec_string() const override {
    return "spy:" + inner_.spec_string();
  }
  [[nodiscard]] int threads() const override { return inner_.threads(); }
  [[nodiscard]] std::unique_ptr<plan::SearchEngine> with_threads(
      int threads) const override {
    const std::lock_guard<std::mutex> lock(log_.mutex);
    log_.with_threads.push_back(threads);
    return std::make_unique<SpyEngine>(threads, log_, fail_);
  }
  [[nodiscard]] plan::PlanResult search(
      const core::Problem& problem, const plan::Budget& budget = {},
      const plan::ProgressFn& progress = {}) const override {
    {
      const std::lock_guard<std::mutex> lock(log_.mutex);
      log_.searched.push_back(threads());
    }
    MARS_CHECK_ARG(!fail_, "spy search failed");
    return inner_.search(problem, budget, progress);
  }

 private:
  plan::GaEngine inner_;
  Log& log_;
  bool fail_;
};

class PlanServicesTest : public ::testing::Test {
 protected:
  PlanServicesTest()
      : dir_(std::filesystem::path(::testing::TempDir()) /
             ("mars-plan-services-" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()))),
        topo_(topology::f1_16xlarge()),
        designs_(accel::table2_designs()) {
    std::filesystem::remove_all(dir_);
  }

  ~PlanServicesTest() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] Services plan(int threads,
                              const MappingCache* cache = nullptr) const {
    return plan_services(kFleet, topo_, designs_, /*adaptive=*/true,
                         plan::GaEngine(tiny_config(threads)), cache);
  }

  /// Every field of `actual` equals `expected`'s, timings aside.
  void expect_same(const Services& expected, const Services& actual) const {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const ModelService& a = *actual[i];
      const ModelService& e = *expected[i];
      SCOPED_TRACE("model " + std::to_string(i) + " " + e.name());
      EXPECT_EQ(a.name(), e.name());
      EXPECT_EQ(core::to_json(a.mapping(), *a.problem().spine, designs_, true)
                    .dump(),
                core::to_json(e.mapping(), *e.problem().spine, designs_, true)
                    .dump());
      EXPECT_EQ(a.mapping_source(), e.mapping_source());
      EXPECT_EQ(a.provenance().engine, e.provenance().engine);
      EXPECT_EQ(a.provenance().spec, e.provenance().spec);
      EXPECT_EQ(a.provenance().evaluations, e.provenance().evaluations);
      EXPECT_EQ(a.provenance().iterations, e.provenance().iterations);
      EXPECT_EQ(a.provenance().stopped, e.provenance().stopped);
      EXPECT_EQ(a.single_latency().count(), e.single_latency().count());
      const sim::FlatTaskGraph& af = a.flat_proto();
      const sim::FlatTaskGraph& ef = e.flat_proto();
      EXPECT_EQ(af.size, ef.size);
      EXPECT_EQ(af.kinds, ef.kinds);
      EXPECT_EQ(af.accs, ef.accs);
      ASSERT_EQ(af.durations.size(), ef.durations.size());
      for (std::size_t t = 0; t < af.durations.size(); ++t) {
        EXPECT_EQ(af.durations[t].count(), ef.durations[t].count());
      }
      EXPECT_EQ(af.srcs, ef.srcs);
      EXPECT_EQ(af.dsts, ef.dsts);
      ASSERT_EQ(af.bytes.size(), ef.bytes.size());
      for (std::size_t t = 0; t < af.bytes.size(); ++t) {
        EXPECT_EQ(af.bytes[t].count(), ef.bytes[t].count());
      }
      EXPECT_EQ(af.dep_counts, ef.dep_counts);
      EXPECT_EQ(af.dependent_offsets, ef.dependent_offsets);
      EXPECT_EQ(af.dependents, ef.dependents);
      EXPECT_EQ(af.roots, ef.roots);
    }
  }

  std::filesystem::path dir_;
  topology::Topology topo_;
  accel::DesignRegistry designs_;
};

TEST_F(PlanServicesTest, ThreadCountsPlanIdenticalServices) {
  const Services serial = plan(1);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_same(serial, plan(threads));
  }
  for (const auto& service : serial) {
    EXPECT_EQ(service->mapping_source(),
              ModelService::MappingSource::kSearched);
  }
}

TEST_F(PlanServicesTest, CacheTrafficMatchesTheSerialRun) {
  const LogLevel previous = set_log_level(LogLevel::kWarn);
  Services serial_cold;
  Services serial_warm;
  long long hits = 0;
  long long misses = 0;
  long long stores = 0;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::filesystem::path dir = dir_ / std::to_string(threads);
    const MappingCache cache(dir.string());
    Services cold = plan(threads, &cache);
    // The repeated model loads what its first occurrence stored.
    EXPECT_EQ(cold[0]->mapping_source(),
              ModelService::MappingSource::kSearched);
    EXPECT_EQ(cold[1]->mapping_source(),
              ModelService::MappingSource::kSearched);
    EXPECT_EQ(cold[2]->mapping_source(),
              ModelService::MappingSource::kCacheHit);
    Services warm = plan(threads, &cache);
    for (const auto& service : warm) {
      EXPECT_EQ(service->mapping_source(),
                ModelService::MappingSource::kCacheHit);
    }
    if (threads == 1) {
      hits = cache.hits();
      misses = cache.misses();
      stores = cache.stores();
      EXPECT_EQ(hits, 4);
      EXPECT_EQ(misses, 2);
      EXPECT_EQ(stores, 2);
      serial_cold = std::move(cold);
      serial_warm = std::move(warm);
      continue;
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
    EXPECT_EQ(cache.stores(), stores);
    expect_same(serial_cold, cold);
    expect_same(serial_warm, warm);
  }
  set_log_level(previous);
}

TEST_F(PlanServicesTest, ThreadsSplitAcrossModels) {
  {
    // A one-model fleet hands its engine over as is: all four threads.
    SpyEngine::Log log;
    const Services one = plan_services({"alexnet"}, topo_, designs_, true,
                                       SpyEngine(4, log));
    EXPECT_TRUE(log.with_threads.empty());
    EXPECT_EQ(log.searched, std::vector<int>{4});
  }
  {
    // Two models on four threads: two searches of two threads each.
    SpyEngine::Log log;
    const Services two = plan_services({"alexnet", "resnet18"}, topo_,
                                       designs_, true, SpyEngine(4, log));
    EXPECT_EQ(log.with_threads, std::vector<int>{2});
    EXPECT_EQ(log.searched, (std::vector<int>{2, 2}));
  }
  {
    // Three models on four threads: never more than four in all.
    SpyEngine::Log log;
    const Services three =
        plan_services(kFleet, topo_, designs_, true, SpyEngine(4, log));
    EXPECT_EQ(log.with_threads, std::vector<int>{1});
    EXPECT_EQ(log.searched, (std::vector<int>{1, 1, 1}));
  }
  {
    // One thread: the serial case, nothing to split.
    SpyEngine::Log log;
    const Services serial =
        plan_services(kFleet, topo_, designs_, true, SpyEngine(1, log));
    EXPECT_TRUE(log.with_threads.empty());
    EXPECT_EQ(log.searched, (std::vector<int>{1, 1, 1}));
  }
}

TEST_F(PlanServicesTest, ThrowsTheLowestFailingModelsError) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SpyEngine::Log log;
    // Model 0's search fails after model 1's planner has already failed
    // to build: a serial loop hits model 0's error first.
    try {
      (void)plan_services({"alexnet", "no-such-model", "resnet18"}, topo_,
                          designs_, true, SpyEngine(threads, log, true));
      ADD_FAILURE() << "expected a throw";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "spy search failed");
    }
    // Without the failing search, the unknown model is the lowest error.
    EXPECT_THROW((void)plan_services({"alexnet", "no-such-model"}, topo_,
                                     designs_, true,
                                     plan::GaEngine(tiny_config(threads))),
                 InvalidArgument);
  }
}

}  // namespace
}  // namespace mars::serve
