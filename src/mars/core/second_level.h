// Second-level search: parallelism strategies for one (LayerSet, AccSet)
// sub-problem (Section V, green/blue boxes of Fig. 3).
//
// Two engines:
//  * greedy()  — deterministic forward pass: per layer, pick the strategy
//    minimising that layer's cost given the activation layout left by the
//    previous layer. Fast enough to serve as the first level's fitness
//    oracle (results are memoised by the caller).
//  * refine()  — the paper's genetic algorithm over per-layer priority
//    genes, seeded with the greedy solution; used to polish the winning
//    skeleton and for the Fig. 3 convergence bench.
#pragma once

#include <memory>
#include <mutex>

#include "mars/core/cost_model.h"
#include "mars/ga/engine.h"

namespace mars::core {

struct SecondLevelConfig {
  ga::GaConfig ga{.population = 24,
                  .generations = 25,
                  .elite = 2,
                  .tournament = 3,
                  .crossover_rate = 0.9,
                  .mutation_rate = 0.2,
                  .mutation_sigma = 0.3,
                  .stall_generations = 8};
  bool enable_ss = true;  // ablation A2 switches SS off
  int max_es_dims = 3;
};

struct SecondLevelResult {
  std::vector<parallel::Strategy> strategies;
  SetCost cost;
};

class SecondLevelSearch {
 public:
  /// Genes per layer: [factorization selector, SS enable,
  ///                   6 ES priorities, 6 SS priorities].
  static constexpr int kGenesPerLayer = 14;

  SecondLevelSearch(const Problem& problem, SecondLevelConfig config);

  /// Deterministic decode of one layer's strategy from its gene block.
  [[nodiscard]] parallel::Strategy decode_layer(const graph::ConvShape& shape,
                                                int p,
                                                const double* genes) const;

  /// Forward-greedy strategy selection for `skeleton` (strategies ignored).
  /// Throws InvalidArgument unless the set has 1..topology-size members
  /// and a non-empty layer range inside the spine. Safe to call from
  /// several threads at once.
  [[nodiscard]] SecondLevelResult greedy(const LayerAssignment& skeleton) const;

  /// GA polish, seeded with `seed_strategies` when provided.
  [[nodiscard]] SecondLevelResult refine(
      const LayerAssignment& skeleton, Rng& rng,
      const std::vector<parallel::Strategy>* seed_strategies = nullptr,
      ga::GaResult* ga_out = nullptr) const;

  [[nodiscard]] const SecondLevelConfig& config() const { return config_; }
  [[nodiscard]] const AnalyticalCostModel& model() const { return model_; }

 private:
  [[nodiscard]] std::vector<parallel::Strategy> decode_all(
      const LayerAssignment& skeleton, const ga::Genome& genome) const;

  /// greedy()'s candidate strategies for spine layer `layer` on p
  /// accelerators: enumerate_strategies, minus SS when it is disabled.
  [[nodiscard]] const std::vector<parallel::Strategy>& strategy_options(
      int layer, int p) const;

  // Option table keyed by (p, shape class); layers with identical
  // ConvShapes share a class. The slot for p is filled on first use, once,
  // under its flag: greedy runs on worker-pool threads, and filling every
  // p up front would dominate construction on large topologies.
  struct OptionSlot {
    std::once_flag filled;
    std::vector<std::vector<parallel::Strategy>> by_class;
  };

  const Problem* problem_;
  SecondLevelConfig config_;
  AnalyticalCostModel model_;
  std::vector<int> shape_class_;        // spine layer -> shape class
  std::vector<int> class_layer_;        // shape class -> its first layer
  std::unique_ptr<OptionSlot[]> slots_;  // index p in [0, topology size]
};

}  // namespace mars::core
