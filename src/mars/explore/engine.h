// ExploreEngine: NSGA-II-style hardware-mapping co-search.
//
// The engine evolves *hardware points* (DesignSpace coordinates); pricing
// a point means running the inner plan::SearchEngine to find that
// hardware's best mapping, so the loop is a two-level search above the
// paper's own two-level GA. Differences from a textbook NSGA-II, all in
// service of determinism and the never-lose guarantee:
//   * The archive is the PointPricer memo — every point ever priced
//     stays, and the final Front is built from the whole archive, not
//     just the last generation. With an unbounded front this makes the
//     result a pure function of the set of priced points.
//   * Every DesignSpace preset (the fixed fleets the repo benchmarks
//     against) is priced in generation 0, before the budget is polled —
//     the emitted front always weakly dominates every preset.
//   * All RNG draws happen serially while breeding; pricing is the only
//     parallel stage (dedupe-then-parallel-price inside PointPricer), so
//     results are byte-identical at any `threads`.
//
// The budget counts *distinct hardware points priced* (each one inner
// search); it is polled between generations, like the plan engines poll
// between GA generations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mars/core/mars.h"
#include "mars/explore/front.h"
#include "mars/explore/objective.h"
#include "mars/explore/space.h"
#include "mars/plan/budget.h"
#include "mars/plan/engine.h"
#include "mars/serve/cache.h"

namespace mars::explore {

struct ExploreConfig {
  /// Zoo model whose mapping prices each hardware point.
  std::string model = "alexnet";
  DesignSpace space = DesignSpace::default_space();
  std::vector<Objective> objectives = {Objective::kMakespan, Objective::kEnergy,
                                       Objective::kCost};
  /// Inner mapper (plan::make_engine name) and its tuning. The tuning's
  /// `threads` is forced to 1 — explore parallelises across points.
  std::string mapper = "ga";
  core::MarsConfig tuning;
  /// Inner per-point search budget (0 = unbudgeted).
  long long search_evaluations = 0;
  /// Outer NSGA knobs.
  int population = 12;
  int generations = 6;
  double mutation_rate = 0.35;
  std::uint64_t seed = 1;
  /// Point-pricing threads (execution knob: byte-identical results at
  /// any value, excluded from spec_string).
  int threads = 1;
  /// Front truncation at read time (0 = unbounded). Note the never-lose
  /// guarantee is stated on the unbounded front: crowding truncation may
  /// drop non-dominated points, presets included.
  int front_size = 0;
};

struct ExploreResult {
  Front front;  // over config.objectives, unbounded
  /// Every priced outcome, in first-priced order (stable across thread
  /// counts and cache states).
  std::vector<PointOutcome> outcomes;
  /// engine="explore"; evaluations = distinct points priced; iterations =
  /// generations bred.
  plan::Provenance provenance;
  long long cache_hits = 0;
  /// Archive hypervolume after each generation, relative to a reference
  /// fixed by the generation-0 archive (1.1x its per-objective worst).
  std::vector<double> history;
};

class ExploreEngine {
 public:
  /// Validates the config (positive population/generations, mutation in
  /// [0,1], known mapper/model names resolve lazily in search).
  explicit ExploreEngine(ExploreConfig config);

  [[nodiscard]] const ExploreConfig& config() const { return config_; }

  /// Canonical identity: every result-affecting knob (threads excluded).
  [[nodiscard]] std::string spec_string() const;

  /// Runs the co-search. `cache` (optional) memoises inner searches
  /// across runs under MappingCache::key, the key serve, comap and warm
  /// use too.
  [[nodiscard]] ExploreResult search(const serve::MappingCache* cache = nullptr,
                                     const plan::Budget& budget = {},
                                     const plan::ProgressFn& progress = {}) const;

 private:
  ExploreConfig config_;
};

/// Deterministic front exporters: pure functions of the result's front
/// (truncated to config.front_size) and objective selection — no wall
/// clock, no cache provenance, byte-identical across threads, repeats
/// and cold/warm caches. Columns: the point identity axes, all three
/// measured objectives, the winner's set count and mapping digest, and
/// the inner engine name.
[[nodiscard]] std::string front_csv(const ExploreResult& result,
                                    const ExploreConfig& config);
[[nodiscard]] std::string front_json(const ExploreResult& result,
                                     const ExploreConfig& config);

}  // namespace mars::explore
