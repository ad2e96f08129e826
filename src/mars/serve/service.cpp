#include "mars/serve/service.h"

#include <sstream>

#include "mars/core/evaluator.h"
#include "mars/graph/models/models.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"

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

ModelService::ModelService(std::string model_name,
                           const topology::Topology& topo,
                           const accel::DesignRegistry& designs, bool adaptive,
                           const plan::SearchEngine& engine,
                           const MappingCache* cache,
                           const plan::Budget& budget,
                           topology::AccMask placement)
    : name_(std::move(model_name)),
      planner_(plan::Planner::for_model(name_, topo, designs, adaptive,
                                        placement)) {
  // Closed-form engines bypass the cache: the baseline is cheaper than
  // reading and validating a cache entry.
  const bool cacheable = cache != nullptr && engine.searches();
  bool planned = false;
  std::optional<MappingCache::Key> key;
  if (cacheable) {
    key = MappingCache::Key{
        name_, MappingCache::fingerprint(
                   topo, designs, adaptive,
                   search_spec(engine, budget, placement))};
    if (std::optional<core::Mapping> cached =
            cache->load(*key, planner_.spine(), topo, designs, adaptive)) {
      mapping_ = *std::move(cached);
      source_ = MappingSource::kCacheHit;
      provenance_.engine = engine.name();
      provenance_.spec = search_spec(engine, budget, placement);
      planned = true;
      MARS_INFO << "mapping cache hit for '" << name_ << "' ("
                << cache->path_for(*key) << "), " << engine.name()
                << " search skipped";
    }
  }

  if (!planned) {
    plan::PlanResult result = planner_.plan(engine, budget);
    mapping_ = std::move(result.mapping);
    provenance_ = std::move(result.provenance);
    source_ = engine.searches() ? MappingSource::kSearched
                                : MappingSource::kBaseline;
    // Evaluation/wall budgets are part of the fingerprint, but a cancel
    // token is a runtime event no key can capture: storing a cancelled
    // search's truncated mapping would poison every later startup under
    // the complete-search fingerprint.
    const bool storable =
        provenance_.stopped != plan::StopReason::kCancelled;
    if (cacheable && storable) {
      // A persistence failure (full disk, permissions) only costs the
      // next startup its cache hit; the searched mapping is in hand.
      try {
        cache->store(*key, mapping_, planner_.spine(), designs, adaptive);
        MARS_INFO << "mapping cache miss for '" << name_ << "'; stored "
                  << cache->path_for(*key);
      } catch (const std::exception& e) {
        MARS_WARN << "mapping cache store failed for '" << name_
                  << "' (serving continues uncached): " << e.what();
      }
    }
  }

  const core::MappingEvaluator evaluator(planner_.problem());
  flat_proto_ = sim::FlatTaskGraph::from(evaluator.build_task_graph(mapping_));
  const sim::Executor executor(topo, planner_.problem().sim_params);
  single_latency_ = executor.run(flat_proto_).makespan;
}

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
  std::vector<std::unique_ptr<ModelService>> services;
  services.reserve(model_names.size());
  for (std::size_t i = 0; i < model_names.size(); ++i) {
    services.push_back(std::make_unique<ModelService>(
        model_names[i], topo, designs, adaptive, engine, cache, budget,
        placements.empty() ? topology::AccMask{0} : placements[i]));
  }
  return services;
}

}  // namespace mars::serve
