// Generic real-valued genetic algorithm.
//
// Both MARS levels encode their decisions as priority genes in [0, 1] and
// decode deterministically, so one engine serves both. Fitness is
// minimised (latency in seconds). Deterministic under a fixed Rng.
#pragma once

#include <functional>
#include <vector>

#include "mars/util/rng.h"

namespace mars::ga {

using Genome = std::vector<double>;
/// Lower is better. Return +inf (or any non-finite value) for invalid
/// genomes — the engine treats them as maximally unfit.
using FitnessFn = std::function<double(const Genome&)>;
/// Cooperative stop hook, polled once per generation (after the initial
/// population and after each evolved generation) with the running
/// evaluation count and best fitness so far. Returning true ends the
/// search; the engine still returns its best-so-far genome. Checking at
/// generation granularity keeps runs deterministic under evaluation
/// budgets (a run never stops mid-generation).
using StopFn = std::function<bool(long long evaluations, double best_fitness)>;
/// Optional batch evaluator: fitness for each genome, same order. When
/// provided, the engine hands it whole populations (the initial one and
/// each generation's offspring) instead of calling FitnessFn per genome —
/// the hook for parallel fitness evaluation. Must return exactly the
/// values the serial FitnessFn would: the engine's genome stream is
/// independent of evaluation (selection/mutation draw from the Rng,
/// evaluation does not), so equal values imply byte-identical searches.
using BatchFitnessFn =
    std::function<std::vector<double>(const std::vector<Genome>&)>;

struct GaConfig {
  int population = 32;
  int generations = 40;
  int elite = 2;            // genomes copied unchanged each generation
  int tournament = 3;       // tournament selection arity
  double crossover_rate = 0.9;
  double mutation_rate = 0.15;   // per-gene mutation probability
  double mutation_sigma = 0.25;  // gaussian step size
  double gene_lo = 0.0;
  double gene_hi = 1.0;
  /// Stop early after this many generations without improvement (<=0: off).
  int stall_generations = 12;
};

/// Throws InvalidArgument naming the offending field and value when
/// `config` cannot drive a search (population < 2, generations < 1,
/// elite outside [0, population), tournament < 1, crossover/mutation
/// rates outside [0, 1], mutation_sigma <= 0, empty gene range).
/// GaEngine's constructor calls this; front-ends (plan engines) call it
/// eagerly so a bad config fails at construction, not mid-search.
void validate_config(const GaConfig& config);

struct GaResult {
  Genome best;
  double best_fitness = 0.0;
  int generations_run = 0;
  long long evaluations = 0;
  /// Best fitness after each generation (convergence curves for Fig. 3).
  std::vector<double> history;
};

class GaEngine {
 public:
  GaEngine(GaConfig config, int genome_size);

  /// Runs the GA. `seeds` are injected into the initial population
  /// verbatim (heuristic warm starts); the rest is uniform random.
  /// `stop` (optional) is polled at generation boundaries for budget /
  /// cancellation enforcement. `batch` (optional) evaluates whole
  /// populations at once (parallel fitness); byte-identical to the serial
  /// path as long as it returns the same values as `fitness`.
  [[nodiscard]] GaResult minimize(const FitnessFn& fitness, Rng& rng,
                                  const std::vector<Genome>& seeds = {},
                                  const StopFn& stop = {},
                                  const BatchFitnessFn& batch = {}) const;

  [[nodiscard]] const GaConfig& config() const { return config_; }
  [[nodiscard]] int genome_size() const { return genome_size_; }

 private:
  GaConfig config_;
  int genome_size_;
};

}  // namespace mars::ga
