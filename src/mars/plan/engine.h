// The planning seam: mapping search as a swappable component.
//
// MAGMA-style head-to-head optimizer comparisons need every mapper behind
// one interface: SearchEngine takes a core::Problem, a Budget, and an
// optional progress callback, and returns a PlanResult — the mapping,
// both cost views, the convergence history, and a Provenance record
// (engine identity, evaluations, elapsed time, why it stopped). Concrete
// engines live in plan/engines.h; the Planner facade that owns the
// problem lifetimes is plan/planner.h.
//
// Engine identity matters beyond reporting: spec_string() is the
// canonical (engine name + every result-affecting knob, seed included)
// string the serving MappingCache hashes, so mappings searched by one
// engine or configuration are never served to another.
//
// Threading: an engine's thread count is execution-only. It sets how many
// threads one search() runs on, never what it returns, so it stays out of
// spec_string(). A caller that runs several searches at once (a serving
// fleet planning its models, serve::plan_services) reads threads() and
// splits it with with_threads(), keeping its total within the count it
// was given.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mars/core/mapping.h"
#include "mars/plan/budget.h"
#include "mars/util/json.h"

namespace mars::core {
struct Problem;
}

namespace mars::plan {

/// Periodic search telemetry (rate-limited by the engine).
struct Progress {
  long long evaluations = 0;
  /// Best penalized analytic makespan so far, in seconds.
  double best_fitness = 0.0;
  Seconds elapsed{};
};
using ProgressFn = std::function<void(const Progress&)>;

/// Where a mapping came from: everything needed to reproduce or audit it.
struct Provenance {
  std::string engine;  // "ga" | "anneal" | "random" | "baseline" | "portfolio"
  std::string spec;    // canonical engine + config identity (cache key)
  long long evaluations = 0;
  int iterations = 0;  // GA generations / SA steps / samples drawn
  Seconds elapsed{};
  StopReason stopped = StopReason::kCompleted;
  /// Composite engines only (portfolio): the member whose mapping won,
  /// and one provenance record per member raced, in racing order —
  /// evaluations/elapsed then sum over `members`. Empty for leaf engines.
  std::string winner;
  std::vector<Provenance> members;
};

[[nodiscard]] JsonValue to_json(const Provenance& provenance);

struct PlanResult {
  core::Mapping mapping;
  core::EvaluationSummary summary;
  /// Best fitness after each iteration (convergence curves).
  std::vector<double> history;
  Provenance provenance;
};

class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Canonical identity string: the name plus every configuration knob
  /// (seed included) that can change the returned mapping. Two engines
  /// whose spec_strings match are guaranteed to return identical mappings
  /// for the same problem and budget.
  [[nodiscard]] virtual std::string spec_string() const = 0;

  /// False for closed-form mappers (baseline): no search runs, so there
  /// is nothing worth caching and budgets are trivially met.
  [[nodiscard]] virtual bool searches() const { return true; }

  /// The threads one search() may run on (execution-only; see above).
  [[nodiscard]] virtual int threads() const = 0;

  /// This engine with its searches on `threads` threads: the same
  /// spec_string(), so the same results. Throws InvalidArgument when
  /// `threads` < 1.
  [[nodiscard]] virtual std::unique_ptr<SearchEngine> with_threads(
      int threads) const = 0;

  /// Runs the search on `problem` under `budget`. Always returns a valid
  /// mapping: engines evaluate their seed point before polling the budget,
  /// so even a pre-cancelled search yields the best candidate seen.
  [[nodiscard]] virtual PlanResult search(const core::Problem& problem,
                                          const Budget& budget = {},
                                          const ProgressFn& progress = {})
      const = 0;
};

}  // namespace mars::plan
