#include "mars/serve/service.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <optional>
#include <sstream>

#include "mars/core/evaluator.h"
#include "mars/graph/models/models.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"
#include "mars/util/worker_pool.h"

namespace mars::serve {

std::string search_spec(const plan::SearchEngine& engine,
                        const plan::Budget& budget,
                        topology::AccMask placement) {
  std::ostringstream os;
  os << engine.spec_string();
  // A budget changes what the search returns, so it is part of the cache
  // identity. Wall-clock budgets are non-reproducible, but cache reuse of
  // one is exactly the point: search once under the time cap, reload after.
  if (budget.max_evaluations > 0) os << ";evals=" << budget.max_evaluations;
  if (budget.wall_clock.count() > 0.0) {
    os << ";wall_ms=" << budget.wall_clock.millis();
  }
  // Placement-confined searches (comap slices) get their own identity;
  // full-fleet searches keep their historical fingerprint unchanged.
  if (placement != 0) os << ";placement=" << std::hex << placement;
  return os.str();
}

namespace detail {

/// One model between the start-up steps below: everything its
/// ModelService will hold, plus the cache key its mapping loads from and
/// stores under (none when the search bypasses the cache).
struct ModelStart {
  std::string name;
  std::optional<plan::Planner> planner;
  std::optional<MappingCache::Key> key;
  std::string spec;  // search_spec() of the engine, budget and placement
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
  start.spec = search_spec(engine, budget, placement);
  // Closed-form engines bypass the cache: the baseline is cheaper than
  // reading and validating a cache entry.
  if (cache != nullptr && engine.searches()) {
    start.key = MappingCache::Key{
        start.name,
        MappingCache::fingerprint(topo, designs, adaptive, start.spec)};
  }
  return start;
}

/// Takes the mapping from the cache on a hit.
void load(ModelStart& start, const MappingCache& cache,
          const plan::SearchEngine& engine, const topology::Topology& topo,
          const accel::DesignRegistry& designs, bool adaptive) {
  std::optional<core::Mapping> cached = cache.load(
      *start.key, start.planner->spine(), topo, designs, adaptive);
  if (!cached) return;
  start.mapping = *std::move(cached);
  start.source = Source::kCacheHit;
  start.provenance.engine = engine.name();
  start.provenance.spec = start.spec;
  MARS_INFO << "mapping cache hit for '" << start.name << "' ("
            << cache.path_for(*start.key) << "), " << engine.name()
            << " search skipped";
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

/// Stores a searched mapping under the start's cache key.
void store(const ModelStart& start, const MappingCache& cache,
           const accel::DesignRegistry& designs, bool adaptive) {
  // Evaluation/wall budgets are part of the fingerprint, but a cancel
  // token is a runtime event no key can capture: storing a cancelled
  // search's truncated mapping would poison every later startup under
  // the complete-search fingerprint.
  if (start.source != Source::kSearched ||
      start.provenance.stopped == plan::StopReason::kCancelled) {
    return;
  }
  // A persistence failure (full disk, permissions) only costs the next
  // startup its cache hit; the searched mapping is in hand.
  try {
    cache.store(*start.key, start.mapping, start.planner->spine(), designs,
                adaptive);
    MARS_INFO << "mapping cache miss for '" << start.name << "'; stored "
              << cache.path_for(*start.key);
  } catch (const std::exception& e) {
    MARS_WARN << "mapping cache store failed for '" << start.name
              << "' (serving continues uncached): " << e.what();
  }
}

/// One model's start-up on the calling thread, steps in order.
ModelStart start_alone(std::string name, const topology::Topology& topo,
                       const accel::DesignRegistry& designs, bool adaptive,
                       const plan::SearchEngine& engine,
                       const MappingCache* cache, const plan::Budget& budget,
                       topology::AccMask placement) {
  ModelStart start = begin(std::move(name), topo, designs, adaptive, engine,
                           cache, budget, placement);
  if (start.key) load(start, *cache, engine, topo, designs, adaptive);
  search_and_compile(start, engine, budget, topo);
  if (start.key) store(start, *cache, designs, adaptive);
  return start;
}

}  // namespace

ModelService::ModelService(std::string model_name,
                           const topology::Topology& topo,
                           const accel::DesignRegistry& designs, bool adaptive,
                           const plan::SearchEngine& engine,
                           const MappingCache* cache,
                           const plan::Budget& budget,
                           topology::AccMask placement)
    : ModelService(start_alone(std::move(model_name), topo, designs, adaptive,
                               engine, cache, budget, placement)) {}

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
            keys.begin(), keys.end(), [&](const MappingCache::Key* seen) {
              return seen->model == key->model &&
                     seen->fingerprint == key->fingerprint;
            });
        if (repeated) {
          later.push_back(i);
          continue;
        }
        keys.push_back(&*key);
        load(starts[i], *cache, model_engine, topo, designs, adaptive);
      }
      wave.push_back(i);
    }
    round(wave, [&](std::size_t i) {
      search_and_compile(starts[i], model_engine, budget, topo);
    });
    for (const std::size_t i : wave) {
      if (i < failed && starts[i].key) {
        store(starts[i], *cache, designs, adaptive);
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
