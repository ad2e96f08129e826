// MARS search configuration: the knobs of the paper's two-level genetic
// mapping algorithm (Section V). The algorithm itself is plan::GaEngine
// (plan/engines.h); plan::make_engine derives every engine's tuning from
// this struct, and comap and explore configure their inner searches with
// it.
#pragma once

#include <cstdint>

#include "mars/core/second_level.h"

namespace mars::core {

struct MarsConfig {
  ga::GaConfig first_ga{.population = 32,
                        .generations = 40,
                        .elite = 2,
                        .tournament = 3,
                        .crossover_rate = 0.9,
                        .mutation_rate = 0.15,
                        .mutation_sigma = 0.25,
                        .stall_generations = 12};
  SecondLevelConfig second;
  /// Polish the winning skeleton's strategies with the second-level GA.
  bool refine_winner = true;
  /// Seed the population with the baseline mapping (guarantees MARS never
  /// loses to it under the analytic model).
  bool seed_baseline = true;
  /// Initialise design genes from profiled per-design scores (Section V).
  bool profiled_init = true;
  /// Use the edge-removal/bisection AccSet candidates; when false (ablation
  /// A3) only the trivial family {full system} u {singletons} is offered.
  bool heuristic_candidates = true;
  /// Single-level ablation (A1): decode strategies from one flat genome
  /// instead of running the second level per set.
  bool two_level = true;
  std::uint64_t seed = 1;
  /// Fitness-evaluation threads (a util::WorkerPool sized here). Purely
  /// an execution knob: results are byte-identical at any value, so it is
  /// deliberately NOT part of any engine spec_string / cache fingerprint.
  int threads = 1;
};

/// Throws InvalidArgument (naming the bad field and value) when either GA
/// level's config cannot drive a search.
void validate_config(const MarsConfig& config);

}  // namespace mars::core
