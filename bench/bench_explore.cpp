// Experiment E1 — hardware–mapping co-search (mars::explore) vs the
// fixed fleets and blind sampling.
//
// Default mode runs the NSGA co-search per zoo model and compares three
// ways of spending the same pricing budget on (makespan, energy, cost)
// hypervolume:
//   * presets   — the fixed fleets the rest of the repo benchmarks
//                 against (F1 platform + Table IV cloud clique),
//   * random    — uniform blind sampling of the same number of distinct
//                 hardware points,
//   * explore   — the NSGA-II co-search.
// All three share one hypervolume reference (1.1x the per-objective
// worst over every outcome either method priced), so the numbers are
// directly comparable; explore >= presets is structural (the presets
// seed its archive), explore vs random is the headline.
//
// --smoke is the CI gate (ISSUE 10 acceptance): one small alexnet space,
// asserting
//   (a) the front weakly dominates every fixed preset (each preset is on
//       the front or dominated by a member),
//   (b) at least one explored (non-preset) front point strictly
//       dominates the best fixed preset on (makespan, cost),
//   (c) the front_csv digest is byte-identical at --threads 1 vs 4 and
//       across a repeat run.
// Any violation exits 1.
#include "bench_common.h"

#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "mars/explore/engine.h"
#include "mars/util/hash.h"
#include "mars/util/rng.h"
#include "mars/util/worker_pool.h"

namespace mars::bench {
namespace {

/// One tuning for every method: a small fixed-budget inner GA (the smoke
/// space mirrors tests/explore/test_golden_fronts.cpp; the full space
/// adds grouped2 and the 2 Gb/s tier).
explore::ExploreConfig make_config(const Options& options,
                                   const std::string& model, bool small,
                                   int threads) {
  explore::ExploreConfig config;
  config.model = model;
  config.space = explore::DesignSpace::parse(
      small ? "families=clique,ring;accs=2,4,8;bw=4,8;menus=full,solo"
            : "families=clique,ring,grouped2;accs=2,4,8;bw=2,4,8;"
              "menus=full,solo");
  config.tuning.seed = options.seed;
  if (small) {
    config.tuning.first_ga.population = 6;
    config.tuning.first_ga.generations = 3;
    config.tuning.first_ga.stall_generations = 2;
    config.tuning.second.ga.population = 4;
    config.tuning.second.ga.generations = 2;
    config.search_evaluations = 96;
    config.population = 8;
    config.generations = 4;
  } else {
    Options inner = options;
    inner.quick = true;  // the paper-sweep tuning is overkill per point
    config.tuning = mars_config(inner);
    config.search_evaluations = 512;
    config.population = 12;
    config.generations = 6;
  }
  config.seed = options.seed;
  config.threads = threads;
  return config;
}

explore::Front front_of(const std::vector<const explore::PointOutcome*>& priced,
                        const std::vector<explore::Objective>& objectives) {
  explore::Front front(static_cast<int>(objectives.size()));
  for (const explore::PointOutcome* outcome : priced) {
    (void)front.insert(outcome->front_point(objectives));
  }
  return front;
}

/// Blind sampling at the same budget: uniform draws over the whole space
/// (presets included — random gets a fair shot at them) until `target`
/// distinct points are priced.
struct Baseline {
  std::vector<explore::PointOutcome> outcomes;
  double wall_s = 0.0;
};

Baseline random_baseline(const explore::ExploreConfig& config,
                         long long target) {
  const auto start = std::chrono::steady_clock::now();
  core::MarsConfig tuning = config.tuning;
  tuning.threads = 1;  // parallelism lives across points, like explore
  const std::unique_ptr<plan::SearchEngine> engine =
      plan::make_engine(config.mapper, tuning);
  plan::Budget inner;
  if (config.search_evaluations > 0) {
    inner = plan::Budget::evaluations(config.search_evaluations);
  }
  util::WorkerPool pool(config.threads);
  explore::PointPricer pricer(config.model, config.space, *engine, inner,
                              /*cache=*/nullptr, pool);
  Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 1);
  const std::size_t universe = config.space.points().size();
  long long attempts = 0;
  while (pricer.priced_count() < target && attempts < 64 * target) {
    std::vector<int> batch;
    while (static_cast<long long>(batch.size()) <
               target - pricer.priced_count() &&
           attempts < 64 * target) {
      batch.push_back(static_cast<int>(rng.index(universe)));
      ++attempts;
    }
    (void)pricer.price(batch);
  }
  Baseline baseline;
  for (const explore::PointOutcome* outcome : pricer.priced()) {
    baseline.outcomes.push_back(*outcome);
  }
  baseline.wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return baseline;
}

/// Shared reference: 1.1x the per-objective worst over every outcome any
/// method priced — the same rule ExploreResult::history uses.
std::vector<double> shared_reference(
    const std::vector<const explore::PointOutcome*>& all,
    const std::vector<explore::Objective>& objectives) {
  std::vector<double> ref(objectives.size(), 0.0);
  for (const explore::PointOutcome* outcome : all) {
    for (std::size_t m = 0; m < objectives.size(); ++m) {
      ref[m] = std::max(ref[m], outcome->objective(objectives[m]));
    }
  }
  for (double& r : ref) r *= 1.1;
  return ref;
}

int run_experiment(const Options& options) {
  std::vector<std::string> models = {"alexnet", "resnet18"};
  if (options.quick) models = {"alexnet"};

  Table table({"Model", "Method", "Priced", "Front", "Hypervolume",
               "Best /ms", "Best cost", "Wall /s"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const std::string& model : models) {
    const explore::ExploreConfig config =
        make_config(options, model, options.quick, /*threads=*/4);

    const auto start = std::chrono::steady_clock::now();
    const explore::ExploreResult result =
        explore::ExploreEngine(config).search();
    const double explore_wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();

    const Baseline random =
        random_baseline(config, result.provenance.evaluations);

    struct Method {
      std::string name;
      std::vector<const explore::PointOutcome*> priced;
      double wall_s = 0.0;
    };
    std::vector<Method> methods(3);
    methods[0].name = "presets";
    methods[1].name = "random";
    methods[1].wall_s = random.wall_s;
    methods[2].name = "explore";
    methods[2].wall_s = explore_wall;
    for (const explore::PointOutcome& outcome : result.outcomes) {
      if (outcome.point.preset) methods[0].priced.push_back(&outcome);
      methods[2].priced.push_back(&outcome);
    }
    for (const explore::PointOutcome& outcome : random.outcomes) {
      methods[1].priced.push_back(&outcome);
    }

    std::vector<const explore::PointOutcome*> all = methods[2].priced;
    all.insert(all.end(), methods[1].priced.begin(), methods[1].priced.end());
    const std::vector<double> ref = shared_reference(all, config.objectives);

    for (const Method& method : methods) {
      const explore::Front front = front_of(method.priced, config.objectives);
      const std::vector<explore::FrontPoint> members = front.points();
      double best_makespan = 0.0;
      double best_cost = 0.0;
      for (const explore::PointOutcome* outcome : method.priced) {
        if (best_makespan == 0.0 || outcome->makespan_s < best_makespan) {
          best_makespan = outcome->makespan_s;
        }
        if (best_cost == 0.0 || outcome->cost < best_cost) {
          best_cost = outcome->cost;
        }
      }
      const double hv = explore::hypervolume(members, ref);
      table.add_row({model, method.name,
                     std::to_string(method.priced.size()),
                     std::to_string(members.size()), format_double(hv, 4),
                     format_double(best_makespan * 1e3, 3),
                     format_double(best_cost, 3),
                     format_double(method.wall_s, 2)});
      csv_rows.push_back({model, method.name,
                          std::to_string(method.priced.size()),
                          std::to_string(members.size()),
                          format_double(hv, 6),
                          format_double(best_makespan * 1e3, 6),
                          format_double(best_cost, 6),
                          format_double(method.wall_s, 3)});
    }
    table.add_separator();
  }
  std::cout << table;
  maybe_write_csv(options,
                  {"model", "method", "priced", "front_size", "hypervolume",
                   "best_makespan_ms", "best_cost", "wall_s"},
                  csv_rows);
  return 0;
}

/// The CI gate (see the file comment).
int run_smoke(const Options& options) {
  const std::string model = "alexnet";
  std::cout << "=== explore smoke gate (" << model << ") ===\n";

  const explore::ExploreConfig serial =
      make_config(options, model, /*small=*/true, /*threads=*/1);
  const explore::ExploreConfig threaded =
      make_config(options, model, /*small=*/true, /*threads=*/4);
  const explore::ExploreResult result = explore::ExploreEngine(serial).search();
  const auto digest = [](const std::string& csv) {
    return util::fnv1a(csv, util::kLegacyFnvOffset);
  };
  const std::uint64_t reference = digest(front_csv(result, serial));
  const std::uint64_t at4 =
      digest(front_csv(explore::ExploreEngine(threaded).search(), threaded));
  const std::uint64_t repeat =
      digest(front_csv(explore::ExploreEngine(serial).search(), serial));

  bool ok = true;
  const std::vector<explore::FrontPoint> members = result.front.points();
  std::unordered_map<std::string, const explore::PointOutcome*> by_key;
  for (const explore::PointOutcome& outcome : result.outcomes) {
    by_key.emplace(outcome.point.spec(), &outcome);
  }

  // (a) Every preset is on the front or dominated by a member.
  std::vector<const explore::PointOutcome*> presets;
  for (const explore::PointOutcome& outcome : result.outcomes) {
    if (outcome.point.preset) presets.push_back(&outcome);
  }
  for (const explore::PointOutcome* preset : presets) {
    const explore::FrontPoint fp = preset->front_point(serial.objectives);
    std::string verdict;
    for (const explore::FrontPoint& member : members) {
      if (member.key == fp.key) {
        verdict = "on front";
        break;
      }
      if (explore::dominates(member, fp)) {
        verdict = "dominated by " + member.key;
        break;
      }
    }
    std::cout << "preset " << fp.key << ": "
              << (verdict.empty() ? "NOT WEAKLY DOMINATED" : verdict) << '\n';
    if (verdict.empty()) {
      std::cerr << "EXPLORE SMOKE FAILED: preset " << fp.key
                << " is neither on the front nor dominated\n";
      ok = false;
    }
  }

  // (b) Some explored point strictly dominates the best fixed preset on
  // (makespan, cost). "Best" = lowest makespan, cost as the tie-break.
  const std::vector<explore::Objective> axes = {explore::Objective::kMakespan,
                                                explore::Objective::kCost};
  const explore::PointOutcome* best_preset = nullptr;
  for (const explore::PointOutcome* preset : presets) {
    if (best_preset == nullptr ||
        preset->makespan_s < best_preset->makespan_s ||
        (preset->makespan_s == best_preset->makespan_s &&
         preset->cost < best_preset->cost)) {
      best_preset = preset;
    }
  }
  if (best_preset == nullptr) {
    std::cerr << "EXPLORE SMOKE FAILED: space has no presets\n";
    return 1;
  }
  const explore::FrontPoint best2d = best_preset->front_point(axes);
  const explore::PointOutcome* dominator = nullptr;
  for (const explore::FrontPoint& member : members) {
    const explore::PointOutcome* outcome = by_key.at(member.key);
    if (outcome->point.preset) continue;
    if (explore::dominates(outcome->front_point(axes), best2d)) {
      dominator = outcome;
      break;
    }
  }
  if (dominator != nullptr) {
    std::cout << "co-search win: " << dominator->point.spec() << " ("
              << format_double(dominator->makespan_s * 1e3, 4) << " ms, cost "
              << format_double(dominator->cost, 4)
              << ") strictly dominates best preset "
              << best_preset->point.spec() << " ("
              << format_double(best_preset->makespan_s * 1e3, 4)
              << " ms, cost " << format_double(best_preset->cost, 4)
              << ") on (makespan, cost)\n";
  } else {
    std::cerr << "EXPLORE SMOKE FAILED: no explored point strictly "
                 "dominates best preset "
              << best_preset->point.spec() << " on (makespan, cost)\n";
    ok = false;
  }

  // (c) Byte-identical exports across thread counts and repeats.
  std::cout << "front digests " << (at4 == reference ? "match" : "DIVERGE")
            << " at --threads 4, repeat "
            << (repeat == reference ? "match" : "DIVERGE") << '\n';
  if (at4 != reference || repeat != reference) {
    std::cerr << "EXPLORE SMOKE FAILED: front_csv is not byte-identical "
                 "across threads/repeat\n";
    ok = false;
  }

  if (!ok) {
    std::cerr << "explore smoke gate FAILED\n";
    return 1;
  }
  std::cout << "explore smoke gate: front covers every preset, beats the "
               "best fixed fleet on (makespan, cost), byte-identical at "
               "--threads 1 vs 4 and across repeat runs\n";
  return 0;
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  const mars::bench::Options options =
      mars::bench::parse_options(argc, argv, {"--smoke"});
  if (options.switches.contains("--smoke")) {
    return mars::bench::run_smoke(options);
  }
  return mars::bench::run_experiment(options);
}
