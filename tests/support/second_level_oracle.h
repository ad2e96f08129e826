// Retained oracle for the second-level strategy search: the greedy forward
// pass (with its memory repair) and the per-set cost loop as they were
// before the set-invariant work moved out of them. This copy re-derives,
// for every (layer, strategy) pair, everything that depends only on the set
// or the layer shape: the set's internal bandwidth (a connectivity check
// plus a spanning-tree sweep), the strategy list (enumerate_strategies, SS
// filtered) and the spanning bytes (an O(edges) sum).
//
// Differential tests hold SecondLevelSearch::greedy and
// AnalyticalCostModel::set_cost to it bit for bit, and
// SkeletonSpace::fitness_batch to the memo-free skeleton_fitness and
// count_sweep below.
#pragma once

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "mars/core/second_level.h"
#include "mars/core/skeleton_space.h"
#include "mars/util/error.h"

namespace mars::core::oracle {

/// Spanning bytes of spine node `index`: the sum over the edges, in
/// storage order, with producer < index < consumer.
inline Bytes spanning_bytes(const graph::ConvSpine& spine, int index) {
  Bytes total{};
  for (const graph::SpineEdge& edge : spine.edges()) {
    if (edge.producer < index && edge.consumer > index) total += edge.bytes;
  }
  return total;
}

/// What layer_cost used to compute on every call with p > 1.
inline Bandwidth per_call_bandwidth(const Problem& problem,
                                    const LayerAssignment& set) {
  if (set.num_accs() <= 1) {
    return Bandwidth(std::numeric_limits<double>::infinity());
  }
  return problem.topo->min_internal_bandwidth(set.accs);
}

inline LayerCost layer_cost(
    const AnalyticalCostModel& model, const LayerAssignment& set, int layer,
    const parallel::Strategy& strategy,
    const std::optional<parallel::ActivationSharding>& upstream) {
  return model.layer_cost(set, layer, strategy, upstream,
                          per_call_bandwidth(model.problem(), set));
}

inline std::vector<parallel::Strategy> options(const Problem& problem,
                                               const SecondLevelConfig& config,
                                               int layer, int p) {
  std::vector<parallel::Strategy> options = parallel::enumerate_strategies(
      problem.spine->node(layer).shape, p, config.max_es_dims);
  if (!config.enable_ss) {
    options.erase(std::remove_if(options.begin(), options.end(),
                                 [](const parallel::Strategy& s) {
                                   return s.has_ss();
                                 }),
                  options.end());
  }
  return options;
}

inline SetCost set_cost(const AnalyticalCostModel& model,
                        const LayerAssignment& set) {
  const Problem& problem = model.problem();
  const graph::ConvSpine& spine = *problem.spine;
  const topology::Topology& topo = *problem.topo;
  const int p = set.num_accs();
  MARS_CHECK_ARG(p >= 1, "assignment with empty set");
  MARS_CHECK_ARG(static_cast<int>(set.strategies.size()) == set.num_layers(),
                 "strategy arity mismatch");

  SetCost cost;
  std::vector<parallel::ShardingPlan> plans;
  plans.reserve(static_cast<std::size_t>(set.num_layers()));

  std::optional<parallel::ActivationSharding> upstream;
  for (int layer = set.begin; layer < set.end; ++layer) {
    const parallel::Strategy& strategy =
        set.strategies[static_cast<std::size_t>(layer - set.begin)];
    const LayerCost lc = layer_cost(model, set, layer, strategy, upstream);
    cost.latency.compute += lc.compute;
    cost.latency.intra_set += lc.intra_set;
    upstream = lc.plan.produced;
    plans.push_back(lc.plan);
  }

  // parallel::footprint with the spanning bytes summed per layer.
  for (int layer = set.begin; layer < set.end; ++layer) {
    const parallel::ShardingPlan& plan =
        plans[static_cast<std::size_t>(layer - set.begin)];
    cost.footprint.weights += plan.weight_resident;
    const Bytes live =
        plan.input_live + plan.output_live + spanning_bytes(spine, layer);
    cost.footprint.peak_activation = std::max(cost.footprint.peak_activation, live);
  }
  const Bytes dram = [&] {
    Bytes smallest(std::numeric_limits<double>::infinity());
    for (topology::AccId acc : topology::mask_members(set.accs)) {
      smallest = std::min(smallest, topo.accelerator(acc).dram);
    }
    return smallest;
  }();
  constexpr double kMemoryPenaltyFactor = 10.0;
  cost.memory_ok = cost.footprint.fits(dram);
  cost.penalized = cost.latency.total();
  if (!cost.memory_ok) {
    const double overflow = cost.footprint.total() / dram;
    cost.penalized =
        cost.penalized * (1.0 + kMemoryPenaltyFactor * std::max(0.0, overflow - 1.0) +
                          kMemoryPenaltyFactor);
  }
  return cost;
}

/// `repaired`, when given, is set to whether the memory repair ran.
inline SecondLevelResult greedy(const AnalyticalCostModel& model,
                                const SecondLevelConfig& config,
                                const LayerAssignment& skeleton,
                                bool* repaired = nullptr) {
  const Problem& problem = model.problem();
  const int p = skeleton.num_accs();
  SecondLevelResult result;
  std::optional<parallel::ActivationSharding> upstream;

  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const std::vector<parallel::Strategy> candidates =
        options(problem, config, layer, p);
    MARS_CHECK(!candidates.empty(), "no valid strategy for layer " << layer);
    const parallel::Strategy* best = nullptr;
    Seconds best_time(0.0);
    LayerCost best_cost;
    for (const parallel::Strategy& option : candidates) {
      const LayerCost cost = layer_cost(model, skeleton, layer, option, upstream);
      if (best == nullptr || cost.total() < best_time) {
        best = &option;
        best_time = cost.total();
        best_cost = cost;
      }
    }
    result.strategies.push_back(*best);
    upstream = best_cost.plan.produced;
  }

  LayerAssignment full = skeleton;
  full.strategies = result.strategies;
  result.cost = set_cost(model, full);

  if (repaired != nullptr) *repaired = !result.cost.memory_ok && p > 1;
  if (!result.cost.memory_ok && p > 1) {
    std::vector<int> order(static_cast<std::size_t>(skeleton.num_layers()));
    std::iota(order.begin(), order.end(), 0);
    std::vector<parallel::ShardingPlan> plans;
    plans.reserve(order.size());
    for (int i = 0; i < skeleton.num_layers(); ++i) {
      plans.push_back(parallel::make_plan(
          problem.spine->node(skeleton.begin + i).shape, problem.spine->dtype(),
          result.strategies[static_cast<std::size_t>(i)], p));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return plans[static_cast<std::size_t>(a)].weight_resident >
             plans[static_cast<std::size_t>(b)].weight_resident;
    });
    for (int index : order) {
      const int layer = skeleton.begin + index;
      const graph::ConvShape& shape = problem.spine->node(layer).shape;
      const std::vector<parallel::Strategy> candidates =
          options(problem, config, layer, p);
      const parallel::Strategy* lightest = nullptr;
      Bytes lightest_bytes{};
      Seconds lightest_time{};
      for (const parallel::Strategy& option : candidates) {
        const parallel::ShardingPlan plan =
            parallel::make_plan(shape, problem.spine->dtype(), option, p);
        const Seconds time =
            layer_cost(model, skeleton, layer, option, std::nullopt).total();
        if (lightest == nullptr || plan.weight_resident < lightest_bytes ||
            (plan.weight_resident == lightest_bytes && time < lightest_time)) {
          lightest = &option;
          lightest_bytes = plan.weight_resident;
          lightest_time = time;
        }
      }
      result.strategies[static_cast<std::size_t>(index)] = *lightest;
      full.strategies = result.strategies;
      const SetCost repaired = set_cost(model, full);
      if (repaired.memory_ok) {
        result.cost = repaired;
        break;
      }
      result.cost = repaired;
    }
  }
  return result;
}

/// `skeleton`'s fitness, with every set priced afresh.
inline double skeleton_fitness(const AnalyticalCostModel& model,
                               const SecondLevelConfig& config,
                               const Skeleton& skeleton) {
  std::vector<Seconds> latencies;
  latencies.reserve(skeleton.sets.size());
  for (const LayerAssignment& set : skeleton.sets) {
    latencies.push_back(greedy(model, config, set).cost.penalized);
  }
  return model.aggregate_makespan(skeleton.sets, latencies).count();
}

struct SweepCounts {
  long long hits = 0;
  long long misses = 0;
};

/// The sweep's charges: a key's first appearance, counting the keys in
/// `seen` (which this updates) as earlier sweeps, is a miss; any other
/// appearance is a hit.
inline SweepCounts count_sweep(const std::vector<Skeleton>& skeletons,
                               std::set<SetKey>& seen) {
  SweepCounts counts;
  for (const Skeleton& skeleton : skeletons) {
    for (const LayerAssignment& set : skeleton.sets) {
      ++(seen.insert(SetKey::of(set)).second ? counts.misses : counts.hits);
    }
  }
  return counts;
}

}  // namespace mars::core::oracle
