#include "mars/explore/objective.h"

#include <algorithm>

#include "mars/core/evaluator.h"
#include "mars/plan/planner.h"
#include "mars/util/error.h"
#include "mars/util/hash.h"
#include "mars/util/strings.h"

namespace mars::explore {
namespace {

constexpr Objective kAllObjectives[] = {Objective::kMakespan, Objective::kEnergy,
                                        Objective::kCost};

}  // namespace

std::string to_string(Objective objective) {
  switch (objective) {
    case Objective::kMakespan:
      return "makespan";
    case Objective::kEnergy:
      return "energy";
    case Objective::kCost:
      return "cost";
  }
  return "?";
}

std::vector<Objective> parse_objectives(const std::string& text) {
  MARS_CHECK_ARG(!text.empty(), "objectives list is empty");
  std::vector<Objective> out;
  for (const std::string& name : split(text, ',')) {
    bool known = false;
    for (const Objective objective : kAllObjectives) {
      if (name == to_string(objective)) {
        MARS_CHECK_ARG(std::find(out.begin(), out.end(), objective) == out.end(),
                       "objectives list names '" << name << "' twice");
        out.push_back(objective);
        known = true;
      }
    }
    MARS_CHECK_ARG(known, "objectives must be a comma-separated subset of "
                          "makespan, energy, cost, got '"
                              << name << "'");
  }
  MARS_CHECK_ARG(!out.empty(), "objectives list is empty");
  return out;
}

std::string objectives_spec(const std::vector<Objective>& objectives) {
  std::vector<std::string> names;
  names.reserve(objectives.size());
  for (const Objective objective : objectives) names.push_back(to_string(objective));
  return join(names, "+");
}

double hardware_cost(const BuiltPoint& built) {
  double cost = 0.0;
  double worst_area = 0.0;
  for (const accel::DesignId id : built.designs.ids()) {
    worst_area = std::max(worst_area, built.designs.design(id).area_cost());
  }
  cost += static_cast<double>(built.topo.size()) * (kCardBaseCost + worst_area);
  for (topology::AccId a = 0; a < built.topo.size(); ++a) {
    for (topology::AccId b = a + 1; b < built.topo.size(); ++b) {
      cost += kLinkCostPerGbps * built.topo.link(a, b).gbps();
    }
  }
  return cost;
}

double PointOutcome::objective(Objective objective) const {
  switch (objective) {
    case Objective::kMakespan:
      return makespan_s;
    case Objective::kEnergy:
      return energy_j;
    case Objective::kCost:
      return cost;
  }
  return 0.0;
}

FrontPoint PointOutcome::front_point(
    const std::vector<Objective>& objectives) const {
  FrontPoint fp;
  fp.key = point.spec();
  fp.objectives.reserve(objectives.size());
  for (const Objective o : objectives) fp.objectives.push_back(objective(o));
  return fp;
}

PointPricer::PointPricer(std::string model, const DesignSpace& space,
                         const plan::SearchEngine& inner,
                         plan::Budget inner_budget,
                         const serve::MappingCache* cache,
                         util::WorkerPool& pool)
    : model_(std::move(model)),
      space_(&space),
      inner_(&inner),
      inner_budget_(inner_budget),
      cache_(cache),
      pool_(pool) {
  MARS_CHECK_ARG(inner.searches(),
                 "PointPricer needs a searching inner engine, got '"
                     << inner.name() << "'");
}

PointOutcome PointPricer::price_one(const HardwarePoint& point) const {
  const BuiltPoint built = space_->build(point);
  const plan::Planner planner =
      plan::Planner::for_model(model_, built.topo, built.designs,
                               /*adaptive=*/true);
  PointOutcome out;
  out.point = point;
  out.cost = hardware_cost(built);
  out.engine = inner_->name();
  out.search_spec = serve::search_spec(*inner_, inner_budget_, 0);

  const core::Problem& problem = planner.problem();
  std::optional<serve::MappingCache::Key> key;
  std::optional<core::Mapping> cached;
  if (cache_ != nullptr) {
    key = serve::MappingCache::key(model_, problem, *inner_, inner_budget_);
    cached = cache_->load(*key, problem);
  }
  core::Mapping mapping;
  core::EvaluationSummary summary;
  if (cached) {
    mapping = *std::move(cached);
    // Same evaluation the search path runs (plan engines finish with
    // MappingEvaluator::evaluate), so warm outcomes are bit-identical to
    // cold ones.
    summary = core::MappingEvaluator(problem).evaluate(mapping);
    out.from_cache = true;
  } else {
    plan::PlanResult result = planner.plan(*inner_, inner_budget_);
    mapping = std::move(result.mapping);
    summary = result.summary;
    out.evaluations = result.provenance.evaluations;
    if (key) cache_->store_searched(*key, mapping, result.provenance, problem);
  }

  out.makespan_s = summary.analytic_makespan.count();
  out.energy_j = summary.energy.count();
  out.sets = static_cast<int>(mapping.sets.size());
  out.memory_ok = summary.memory_ok;
  out.mapping_digest = util::hex64(util::fnv1a(
      core::describe(mapping, planner.spine(), built.designs, /*adaptive=*/true),
      util::kLegacyFnvOffset));
  return out;
}

std::vector<const PointOutcome*> PointPricer::price(
    const std::vector<int>& indices) {
  // Keyed by spec, so distinct indices sharing a spec (e.g. a preset
  // mirrored in the grid) price once.
  Memo::Sweep sweep = memo_.sweep();
  std::vector<Memo::Ticket> tickets;
  tickets.reserve(indices.size());
  for (const int index : indices) {
    MARS_CHECK_ARG(index >= 0 &&
                       index < static_cast<int>(space_->points().size()),
                   "point index " << index << " out of range");
    const HardwarePoint& point =
        space_->points()[static_cast<std::size_t>(index)];
    tickets.push_back(sweep.probe(point.spec(), &point));
  }
  for (const PointOutcome* outcome :
       sweep.resolve(pool_, [this](const HardwarePoint* point) {
         return price_one(*point);
       })) {
    if (outcome->from_cache) ++cache_hits_;
    order_.push_back(outcome);
  }

  std::vector<const PointOutcome*> result;
  result.reserve(tickets.size());
  for (const Memo::Ticket& ticket : tickets) result.push_back(&sweep[ticket]);
  return result;
}

}  // namespace mars::explore
