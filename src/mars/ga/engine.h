// Generic real-valued genetic algorithm.
//
// Both MARS levels encode their decisions as priority genes in [0, 1] and
// decode deterministically, so one engine serves both. Fitness is
// minimised (latency in seconds). Deterministic under a fixed Rng.
//
// Threading: the engine itself is serial. It hands whole cohorts to a
// BatchFitnessFn, and the caller decides where they are priced (the plan
// engines and comap price them on a util::WorkerPool).
#pragma once

#include <functional>
#include <vector>

#include "mars/util/rng.h"

namespace mars::ga {

using Genome = std::vector<double>;
/// Cooperative stop hook, polled once per generation (after the initial
/// population and after each evolved generation) with the running
/// evaluation count and best fitness so far. Returning true ends the
/// search; the engine still returns its best-so-far genome. Checking at
/// generation granularity keeps runs deterministic under evaluation
/// budgets (a run never stops mid-generation).
using StopFn = std::function<bool(long long evaluations, double best_fitness)>;
/// The fitness of each genome of a cohort, same order; lower is better.
/// Return +inf (or any non-finite value) for invalid genomes — the engine
/// treats them as maximally unfit. The engine hands it whole cohorts (the
/// initial population, then each generation's offspring). Its genome
/// stream is independent of evaluation (selection and mutation draw from
/// the Rng, evaluation does not), so equal values imply byte-identical
/// searches, however the batch is priced.
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

  /// Runs the GA, pricing every cohort through `batch`. `seeds` are
  /// injected into the initial population verbatim (heuristic warm
  /// starts); the rest is uniform random. `stop` (optional) is polled at
  /// generation boundaries for budget / cancellation enforcement.
  [[nodiscard]] GaResult minimize(const BatchFitnessFn& batch, Rng& rng,
                                  const std::vector<Genome>& seeds = {},
                                  const StopFn& stop = {}) const;

  [[nodiscard]] const GaConfig& config() const { return config_; }
  [[nodiscard]] int genome_size() const { return genome_size_; }

 private:
  GaConfig config_;
  int genome_size_;
};

}  // namespace mars::ga
