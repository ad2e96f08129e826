#include "mars/ga/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "mars/ga/operators.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"

namespace mars::ga {

void validate_config(const GaConfig& config) {
  MARS_CHECK_ARG(config.population >= 2,
                 "GA population must be >= 2, got " << config.population);
  MARS_CHECK_ARG(config.generations >= 1,
                 "GA generations must be >= 1, got " << config.generations);
  MARS_CHECK_ARG(config.elite >= 0 && config.elite < config.population,
                 "GA elite count must be in [0, population), got elite = "
                     << config.elite << " with population = "
                     << config.population);
  MARS_CHECK_ARG(config.tournament >= 1,
                 "GA tournament arity must be >= 1, got " << config.tournament);
  MARS_CHECK_ARG(
      config.crossover_rate >= 0.0 && config.crossover_rate <= 1.0,
      "GA crossover_rate must be in [0, 1], got " << config.crossover_rate);
  MARS_CHECK_ARG(
      config.mutation_rate >= 0.0 && config.mutation_rate <= 1.0,
      "GA mutation_rate must be in [0, 1], got " << config.mutation_rate);
  MARS_CHECK_ARG(config.mutation_sigma > 0.0,
                 "GA mutation_sigma must be > 0, got " << config.mutation_sigma);
  MARS_CHECK_ARG(config.gene_lo < config.gene_hi,
                 "GA gene range is empty: [" << config.gene_lo << ", "
                                             << config.gene_hi << ")");
}

GaEngine::GaEngine(GaConfig config, int genome_size)
    : config_(config), genome_size_(genome_size) {
  validate_config(config);
  MARS_CHECK_ARG(genome_size >= 1,
                 "GA genome must have at least one gene, got " << genome_size);
}

GaResult GaEngine::minimize(const BatchFitnessFn& batch, Rng& rng,
                            const std::vector<Genome>& seeds,
                            const StopFn& stop) const {
  const auto pop_size = static_cast<std::size_t>(config_.population);
  std::vector<Genome> population;
  population.reserve(pop_size);
  for (const Genome& seed : seeds) {
    MARS_CHECK_ARG(seed.size() == static_cast<std::size_t>(genome_size_),
                   "seed genome size mismatch");
    if (population.size() < pop_size) population.push_back(seed);
  }
  while (population.size() < pop_size) {
    population.push_back(
        random_genome(genome_size_, config_.gene_lo, config_.gene_hi, rng));
  }

  GaResult result;
  result.best_fitness = std::numeric_limits<double>::infinity();

  // Scores for a cohort. Non-finite values become +inf (maximally unfit),
  // and the evaluation budget advances per genome.
  auto evaluate_all = [&](const std::vector<Genome>& genomes) {
    std::vector<double> values = batch(genomes);
    MARS_CHECK(values.size() == genomes.size(),
               "batch fitness returned " << values.size() << " scores for "
                                         << genomes.size() << " genomes");
    for (double& value : values) {
      if (!std::isfinite(value)) value = std::numeric_limits<double>::infinity();
    }
    result.evaluations += static_cast<long long>(genomes.size());
    return values;
  };

  std::vector<double> scores = evaluate_all(population);

  int stall = 0;
  for (int generation = 0; generation < config_.generations; ++generation) {
    // Track the incumbent.
    const std::size_t arg_best = static_cast<std::size_t>(
        std::min_element(scores.begin(), scores.end()) - scores.begin());
    if (scores[arg_best] < result.best_fitness) {
      result.best_fitness = scores[arg_best];
      result.best = population[arg_best];
      stall = 0;
    } else {
      ++stall;
    }
    result.history.push_back(result.best_fitness);
    result.generations_run = generation + 1;
    if (stop && stop(result.evaluations, result.best_fitness)) {
      MARS_DEBUG << "GA stopped by budget/cancellation at generation "
                 << generation;
      break;
    }
    if (config_.stall_generations > 0 && stall >= config_.stall_generations) {
      MARS_DEBUG << "GA early stop at generation " << generation;
      break;
    }

    // Next generation: elites survive; the rest come from tournament
    // selection + crossover + mutation.
    std::vector<std::size_t> order(pop_size);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });

    std::vector<Genome> next;
    std::vector<double> next_scores;
    next.reserve(pop_size);
    next_scores.reserve(pop_size);
    for (int e = 0; e < config_.elite; ++e) {
      next.push_back(population[order[static_cast<std::size_t>(e)]]);
      next_scores.push_back(scores[order[static_cast<std::size_t>(e)]]);
    }
    // Breed the whole offspring cohort first, then evaluate it as one
    // batch: only breeding draws from the Rng, so the genome stream —
    // and with it the search — is identical to child-at-a-time
    // interleaving, while the evaluations become batchable.
    std::vector<Genome> offspring;
    offspring.reserve(pop_size - next.size());
    while (next.size() + offspring.size() < pop_size) {
      const Genome& parent_a =
          population[tournament_select(scores, config_.tournament, rng)];
      const Genome& parent_b =
          population[tournament_select(scores, config_.tournament, rng)];
      Genome child = rng.chance(config_.crossover_rate)
                         ? uniform_crossover(parent_a, parent_b, rng)
                         : parent_a;
      gaussian_mutate(child, config_.mutation_rate, config_.mutation_sigma,
                      config_.gene_lo, config_.gene_hi, rng);
      offspring.push_back(std::move(child));
    }
    const std::vector<double> offspring_scores = evaluate_all(offspring);
    for (std::size_t i = 0; i < offspring.size(); ++i) {
      next.push_back(std::move(offspring[i]));
      next_scores.push_back(offspring_scores[i]);
    }
    population = std::move(next);
    scores = std::move(next_scores);
  }

  // Final sweep (the loop records bests at generation entry).
  const std::size_t arg_best = static_cast<std::size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
  if (scores[arg_best] < result.best_fitness) {
    result.best_fitness = scores[arg_best];
    result.best = population[arg_best];
  }
  MARS_CHECK(!result.best.empty(), "GA produced no candidate");
  return result;
}

}  // namespace mars::ga
