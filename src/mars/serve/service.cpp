#include "mars/serve/service.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <optional>

#include "mars/core/evaluator.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"
#include "mars/util/worker_pool.h"

namespace mars::serve {

namespace detail {

/// One model between the start-up steps below: everything its
/// ModelService will hold, plus the cache key its mapping loads from and
/// stores under (none when the search bypasses the cache).
struct ModelStart {
  std::string name;
  std::optional<plan::Planner> planner;
  std::optional<MappingCache::Key> key;
  core::Mapping mapping;
  plan::Provenance provenance;
  ModelService::MappingSource source = ModelService::MappingSource::kBaseline;
  sim::FlatTaskGraph flat_proto;
  Seconds single_latency{};
};

}  // namespace detail

namespace {

using detail::ModelStart;
using Source = ModelService::MappingSource;

/// Builds the planner and, when the search is cacheable, the cache key.
ModelStart begin(std::string name, const topology::Topology& topo,
                 const accel::DesignRegistry& designs, bool adaptive,
                 const plan::SearchEngine& engine, const MappingCache* cache,
                 const plan::Budget& budget, topology::AccMask placement) {
  ModelStart start;
  start.name = std::move(name);
  start.planner.emplace(plan::Planner::for_model(start.name, topo, designs,
                                                 adaptive, placement));
  if (cache != nullptr) {
    start.key = MappingCache::key(start.name, start.planner->problem(), engine,
                                  budget);
  }
  return start;
}

/// Takes the mapping from the cache on a hit.
void load(ModelStart& start, const MappingCache& cache,
          const plan::SearchEngine& engine, const plan::Budget& budget) {
  const core::Problem& problem = start.planner->problem();
  std::optional<core::Mapping> cached = cache.load(*start.key, problem);
  if (!cached) return;
  start.mapping = *std::move(cached);
  start.source = Source::kCacheHit;
  start.provenance.engine = engine.name();
  start.provenance.spec = search_spec(engine, budget, problem.placement);
}

/// Searches the mapping unless the cache supplied it, then compiles the
/// single-inference prototype the engine replays per admitted request.
void search_and_compile(ModelStart& start, const plan::SearchEngine& engine,
                        const plan::Budget& budget,
                        const topology::Topology& topo) {
  if (start.source != Source::kCacheHit) {
    plan::PlanResult result = start.planner->plan(engine, budget);
    start.mapping = std::move(result.mapping);
    start.provenance = std::move(result.provenance);
    start.source = engine.searches() ? Source::kSearched : Source::kBaseline;
  }
  const core::Problem& problem = start.planner->problem();
  const core::MappingEvaluator evaluator(problem);
  start.flat_proto =
      sim::FlatTaskGraph::from(evaluator.build_task_graph(start.mapping));
  start.single_latency =
      sim::Executor(topo, problem.sim_params).run(start.flat_proto).makespan;
}

}  // namespace

ModelService::ModelService(detail::ModelStart&& start)
    : name_(std::move(start.name)),
      planner_(*std::move(start.planner)),
      mapping_(std::move(start.mapping)),
      provenance_(std::move(start.provenance)),
      source_(start.source),
      flat_proto_(std::move(start.flat_proto)),
      single_latency_(start.single_latency) {}

std::string to_string(ModelService::MappingSource source) {
  switch (source) {
    case ModelService::MappingSource::kBaseline:
      return "baseline";
    case ModelService::MappingSource::kSearched:
      return "searched";
    case ModelService::MappingSource::kCacheHit:
      return "cache";
  }
  return "?";
}

std::vector<std::unique_ptr<ModelService>> plan_services(
    const std::vector<std::string>& model_names,
    const topology::Topology& topo, const accel::DesignRegistry& designs,
    bool adaptive, const plan::SearchEngine& engine, const MappingCache* cache,
    const plan::Budget& budget,
    const std::vector<topology::AccMask>& placements) {
  MARS_CHECK_ARG(!model_names.empty(), "a fleet serves at least one model");
  MARS_CHECK_ARG(placements.empty() || placements.size() == model_names.size(),
                 "one placement mask per model required");
  const std::size_t n = model_names.size();
  // The models plan side by side, each search on an equal share of the
  // engine's threads; a one-model fleet keeps the engine as it is.
  const int outer = static_cast<int>(
      std::min(static_cast<std::size_t>(engine.threads()), n));
  std::unique_ptr<plan::SearchEngine> share;
  if (outer > 1) share = engine.with_threads(engine.threads() / outer);
  const plan::SearchEngine& model_engine = share ? *share : engine;
  util::WorkerPool pool(outer);

  std::vector<ModelStart> starts(n);
  // A failing model keeps its error in its own slot and drops out, as do
  // the models above it: they cannot change which error is rethrown.
  std::vector<std::exception_ptr> errors(n);
  std::size_t failed = n;  // the lowest failing model so far
  // Runs `step(i)` for each model i of `models` in the pool. `failed` only
  // moves between rounds, so a round reads it without a race.
  const auto round = [&](const std::vector<std::size_t>& models,
                         const auto& step) {
    pool.parallel_for(models.size(), [&](std::size_t k) {
      const std::size_t i = models[k];
      if (i >= failed) return;
      try {
        step(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
    for (const std::size_t i : models) {
      if (errors[i]) failed = std::min(failed, i);
    }
  };

  std::vector<std::size_t> pending(n);
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  round(pending, [&](std::size_t i) {
    starts[i] =
        begin(model_names[i], topo, designs, adaptive, model_engine, cache,
              budget, placements.empty() ? topology::AccMask{0} : placements[i]);
  });
  // Waves: loads in model order, the wave's searches and compiles in the
  // pool, then its stores in model order. A repeated cache key waits for
  // the next wave, after the store of the model that first had it. (Loads
  // and stores report trouble as a miss, never by throwing.)
  while (!pending.empty()) {
    std::vector<std::size_t> wave;
    std::vector<std::size_t> later;
    std::vector<const MappingCache::Key*> keys;
    for (const std::size_t i : pending) {
      if (i >= failed) continue;
      const std::optional<MappingCache::Key>& key = starts[i].key;
      if (key) {
        const bool repeated = std::any_of(
            keys.begin(), keys.end(),
            [&](const MappingCache::Key* seen) { return *seen == *key; });
        if (repeated) {
          later.push_back(i);
          continue;
        }
        keys.push_back(&*key);
        load(starts[i], *cache, model_engine, budget);
      }
      wave.push_back(i);
    }
    round(wave, [&](std::size_t i) {
      search_and_compile(starts[i], model_engine, budget, topo);
    });
    for (const std::size_t i : wave) {
      const ModelStart& start = starts[i];
      if (i < failed && start.key && start.source == Source::kSearched) {
        cache->store_searched(*start.key, start.mapping, start.provenance,
                              start.planner->problem());
      }
    }
    pending = std::move(later);
  }
  if (failed < n) std::rethrow_exception(errors[failed]);

  std::vector<std::unique_ptr<ModelService>> services;
  services.reserve(n);
  for (ModelStart& start : starts) {
    services.push_back(
        std::unique_ptr<ModelService>(new ModelService(std::move(start))));
  }
  return services;
}

}  // namespace mars::serve
