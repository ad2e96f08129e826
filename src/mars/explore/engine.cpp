#include "mars/explore/engine.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "mars/plan/engines.h"
#include "mars/serve/cache.h"
#include "mars/util/error.h"
#include "mars/util/json.h"
#include "mars/util/rng.h"
#include "mars/util/strings.h"
#include "mars/util/worker_pool.h"

namespace mars::explore {
namespace {

/// Deterministic short float rendering for exports ("%.9g": enough to
/// order points, stable across platforms/libcs we build on).
std::string format_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

/// Fast non-dominated sorting (O(n^2) peeling — archives are small).
/// Returns the rank of each point (0 = the Pareto front).
std::vector<int> nondominated_ranks(const std::vector<FrontPoint>& points) {
  const std::size_t n = points.size();
  std::vector<int> rank(n, -1);
  int level = 0;
  std::size_t assigned = 0;
  std::vector<std::size_t> current;
  while (assigned < n) {
    current.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (rank[i] >= 0) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < n && !dominated; ++j) {
        dominated = j != i && rank[j] < 0 && dominates(points[j], points[i]);
      }
      if (!dominated) current.push_back(i);
    }
    for (const std::size_t i : current) rank[i] = level;  // assign after the sweep
    assigned += current.size();
    ++level;
  }
  return rank;
}

}  // namespace

ExploreEngine::ExploreEngine(ExploreConfig config) : config_(std::move(config)) {
  MARS_CHECK_ARG(!config_.model.empty(), "explore config needs a model");
  MARS_CHECK_ARG(!config_.objectives.empty(),
                 "explore config needs at least one objective");
  MARS_CHECK_ARG(config_.population >= 2, "explore population must be >= 2, got "
                                              << config_.population);
  MARS_CHECK_ARG(config_.generations >= 1,
                 "explore generations must be >= 1, got " << config_.generations);
  MARS_CHECK_ARG(config_.mutation_rate >= 0.0 && config_.mutation_rate <= 1.0,
                 "explore mutation rate must be in [0, 1], got "
                     << config_.mutation_rate);
  MARS_CHECK_ARG(config_.front_size >= 0,
                 "explore front size must be >= 0, got " << config_.front_size);
  MARS_CHECK_ARG(config_.threads >= 1,
                 "explore threads must be >= 1, got " << config_.threads);
  // Inner searches run single-threaded — explore parallelises across
  // points, and nested pools would oversubscribe nondeterministically in
  // wall-clock (results would still be byte-identical, just slower).
  config_.tuning.threads = 1;
  // Fails fast on an unknown mapper name.
  (void)plan::make_engine(config_.mapper, config_.tuning);
}

std::string ExploreEngine::spec_string() const {
  const std::unique_ptr<plan::SearchEngine> inner =
      plan::make_engine(config_.mapper, config_.tuning);
  const plan::Budget inner_budget =
      config_.search_evaluations > 0
          ? plan::Budget::evaluations(config_.search_evaluations)
          : plan::Budget{};
  std::ostringstream os;
  os << "explore:model=" << config_.model << ";space=" << config_.space.spec()
     << ";obj=" << objectives_spec(config_.objectives)
     << ";inner=" << serve::search_spec(*inner, inner_budget, 0)
     << ";pop=" << config_.population << ";gens=" << config_.generations
     << ";mut=" << format_double(config_.mutation_rate, 6)
     << ";seed=" << config_.seed << ";front=" << config_.front_size;
  return os.str();
}

ExploreResult ExploreEngine::search(const serve::MappingCache* cache,
                                    const plan::Budget& budget,
                                    const plan::ProgressFn& progress) const {
  const DesignSpace& space = config_.space;
  const std::array<int, 4> dims = space.dims();

  const std::unique_ptr<plan::SearchEngine> inner =
      plan::make_engine(config_.mapper, config_.tuning);
  const plan::Budget inner_budget =
      config_.search_evaluations > 0
          ? plan::Budget::evaluations(config_.search_evaluations)
          : plan::Budget{};
  util::WorkerPool pool(config_.threads);
  PointPricer pricer(config_.model, space, *inner, inner_budget, cache, pool);
  plan::BudgetMeter meter(budget);
  Rng rng(config_.seed);

  const auto random_coords = [&] {
    std::array<int, 4> coords;
    for (int axis = 0; axis < 4; ++axis) {
      coords[axis] =
          static_cast<int>(rng.index(static_cast<std::size_t>(dims[axis])));
    }
    return coords;
  };

  // The engine-side archive: one entry per distinct priced spec, in
  // publish order — (points() index, outcome). Parent selection and the
  // final front both walk this list.
  std::vector<std::pair<int, const PointOutcome*>> archive;
  std::vector<FrontPoint> archive_points;
  const auto publish = [&](const std::vector<int>& cohort) {
    const std::vector<const PointOutcome*> priced = pricer.price(cohort);
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      const bool seen = std::any_of(
          archive.begin(), archive.end(),
          [&](const auto& entry) { return entry.second == priced[i]; });
      if (!seen) {
        archive.emplace_back(cohort[i], priced[i]);
        archive_points.push_back(priced[i]->front_point(config_.objectives));
      }
    }
  };

  // Hypervolume reference: fixed after generation 0 (1.1x the worst seen
  // per objective), so the history is comparable across generations.
  std::vector<double> hv_ref;
  const auto record_history = [&](std::vector<double>& history) {
    const std::size_t arity = config_.objectives.size();
    if (arity == 2 || arity == 3) {
      if (hv_ref.empty()) {
        hv_ref.assign(arity, 0.0);
        for (std::size_t m = 0; m < arity; ++m) {
          double worst = 0.0;
          for (const FrontPoint& p : archive_points) {
            worst = std::max(worst, p.objectives[m]);
          }
          hv_ref[m] = worst * 1.1;
        }
      }
      history.push_back(hypervolume(archive_points, hv_ref));
    } else {
      double best = std::numeric_limits<double>::infinity();
      for (const FrontPoint& p : archive_points) {
        best = std::min(best, p.objectives[0]);
      }
      history.push_back(best);
    }
  };
  const auto report_progress = [&] {
    if (!progress) return;
    plan::Progress p;
    p.evaluations = pricer.priced_count();
    p.best_fitness = std::numeric_limits<double>::infinity();
    for (const auto& [index, outcome] : archive) {
      p.best_fitness = std::min(p.best_fitness, outcome->makespan_s);
    }
    p.elapsed = meter.elapsed();
    progress(p);
  };

  ExploreResult result{Front(static_cast<int>(config_.objectives.size())),
                       {}, {}, 0, {}};

  // Generation 0: every preset (the never-lose seeds, priced before the
  // budget is polled — same contract as the plan engines' seed points)
  // plus a random cohort.
  std::vector<int> cohort;
  for (int i = 0; i < space.num_presets(); ++i) cohort.push_back(i);
  for (int i = 0; i < config_.population; ++i) {
    cohort.push_back(space.index_of(random_coords()));
  }
  publish(cohort);
  record_history(result.history);
  report_progress();

  // Binary tournament on (non-domination rank asc, crowding desc,
  // publish order asc). Ranks/crowding are recomputed per generation
  // over the whole archive.
  int generations_run = 0;
  while (generations_run < config_.generations &&
         !meter.exhausted(pricer.priced_count())) {
    const std::vector<int> ranks = nondominated_ranks(archive_points);
    const std::vector<double> crowd = Front::crowding(archive_points);
    const auto tournament = [&] {
      const std::size_t a = rng.index(archive.size());
      const std::size_t b = rng.index(archive.size());
      if (ranks[a] != ranks[b]) return ranks[a] < ranks[b] ? a : b;
      if (crowd[a] != crowd[b]) return crowd[a] > crowd[b] ? a : b;
      return std::min(a, b);
    };
    const auto parent_coords = [&](std::size_t entry) {
      const int index = archive[entry].first;
      // Presets sit outside the cartesian grid; their offspring inherit
      // fresh random genes (drawn serially, deterministic).
      if (index < space.num_presets()) return random_coords();
      return space.coords_of(index);
    };

    cohort.clear();
    for (int child = 0; child < config_.population; ++child) {
      const std::array<int, 4> pa = parent_coords(tournament());
      const std::array<int, 4> pb = parent_coords(tournament());
      std::array<int, 4> genes;
      for (int axis = 0; axis < 4; ++axis) {
        genes[axis] = rng.chance(0.5) ? pa[axis] : pb[axis];
      }
      for (int axis = 0; axis < 4; ++axis) {
        if (rng.chance(config_.mutation_rate)) {
          genes[axis] =
              static_cast<int>(rng.index(static_cast<std::size_t>(dims[axis])));
        }
      }
      cohort.push_back(space.index_of(genes));
    }
    publish(cohort);
    ++generations_run;
    record_history(result.history);
    report_progress();
  }

  for (const FrontPoint& point : archive_points) {
    (void)result.front.insert(point);
  }
  for (const auto& [index, outcome] : archive) {
    result.outcomes.push_back(*outcome);
  }
  result.cache_hits = pricer.cache_hits();
  result.provenance.engine = "explore";
  result.provenance.spec = spec_string();
  result.provenance.evaluations = pricer.priced_count();
  result.provenance.iterations = generations_run;
  result.provenance.elapsed = meter.elapsed();
  result.provenance.stopped = meter.reason();
  return result;
}

namespace {

const PointOutcome* outcome_for(const ExploreResult& result,
                                const std::string& key) {
  for (const PointOutcome& outcome : result.outcomes) {
    if (outcome.point.spec() == key) return &outcome;
  }
  MARS_CHECK_ARG(false, "front point '" << key << "' has no priced outcome");
  return nullptr;
}

}  // namespace

std::string front_csv(const ExploreResult& result, const ExploreConfig& config) {
  std::ostringstream os;
  os << "point,family,accelerators,link_gbps,menu,makespan_ms,energy_mj,cost,"
        "sets,mapping,engine\n";
  for (const FrontPoint& fp : result.front.top(config.front_size)) {
    const PointOutcome& out = *outcome_for(result, fp.key);
    os << fp.key << ',' << out.point.family << ',' << out.point.accelerators
       << ',' << format_value(out.point.link_gbps) << ','
       << join(out.point.menu, "+") << ','
       << format_value(out.makespan_s * 1e3) << ','
       << format_value(out.energy_j * 1e3) << ',' << format_value(out.cost)
       << ',' << out.sets << ',' << out.mapping_digest << ',' << out.engine
       << '\n';
  }
  return os.str();
}

std::string front_json(const ExploreResult& result, const ExploreConfig& config) {
  JsonValue objectives = JsonValue::array();
  for (const Objective objective : config.objectives) {
    objectives.push(JsonValue::string(to_string(objective)));
  }
  JsonValue front = JsonValue::array();
  for (const FrontPoint& fp : result.front.top(config.front_size)) {
    const PointOutcome& out = *outcome_for(result, fp.key);
    JsonValue menu = JsonValue::array();
    for (const std::string& name : out.point.menu) {
      menu.push(JsonValue::string(name));
    }
    front.push(JsonValue::object()
                        .set("point", JsonValue::string(fp.key))
                        .set("family", JsonValue::string(out.point.family))
                        .set("accelerators",
                             JsonValue::integer(out.point.accelerators))
                        .set("link_gbps", JsonValue::number(out.point.link_gbps))
                        .set("menu", std::move(menu))
                        .set("makespan_ms",
                             JsonValue::number(out.makespan_s * 1e3))
                        .set("energy_mj", JsonValue::number(out.energy_j * 1e3))
                        .set("cost", JsonValue::number(out.cost))
                        .set("sets", JsonValue::integer(out.sets))
                        .set("mapping", JsonValue::string(out.mapping_digest))
                        .set("engine", JsonValue::string(out.engine)));
  }
  return JsonValue::object()
      .set("model", JsonValue::string(config.model))
      .set("space", JsonValue::string(config.space.spec()))
      .set("objectives", std::move(objectives))
      .set("front", std::move(front))
      .dump();
}

}  // namespace mars::explore
