#include "mars/core/second_level.h"

#include <algorithm>
#include <numeric>

#include "mars/util/error.h"

namespace mars::core {
namespace {

// Dims ordered by a 6-gene priority block, descending.
std::vector<parallel::Dim> dims_by_priority(const double* genes) {
  std::vector<int> order(parallel::kNumDims);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return genes[a] > genes[b]; });
  std::vector<parallel::Dim> dims;
  dims.reserve(order.size());
  for (int index : order) dims.push_back(parallel::kAllDims[static_cast<std::size_t>(index)]);
  return dims;
}

}  // namespace

SecondLevelSearch::SecondLevelSearch(const Problem& problem,
                                     SecondLevelConfig config)
    : problem_(&problem),
      config_(config),
      model_(problem),
      slots_(std::make_unique<OptionSlot[]>(
          static_cast<std::size_t>(problem.topo->size()) + 1)) {
  const graph::ConvSpine& spine = *problem.spine;
  shape_class_.reserve(static_cast<std::size_t>(spine.size()));
  for (int layer = 0; layer < spine.size(); ++layer) {
    const graph::ConvShape& shape = spine.node(layer).shape;
    const auto same = std::find_if(
        class_layer_.begin(), class_layer_.end(),
        [&](int first) { return spine.node(first).shape == shape; });
    shape_class_.push_back(static_cast<int>(same - class_layer_.begin()));
    if (same == class_layer_.end()) class_layer_.push_back(layer);
  }
}

const std::vector<parallel::Strategy>& SecondLevelSearch::strategy_options(
    int layer, int p) const {
  OptionSlot& slot = slots_[static_cast<std::size_t>(p)];
  std::call_once(slot.filled, [&] {
    std::vector<std::vector<parallel::Strategy>> by_class;
    by_class.reserve(class_layer_.size());
    for (int first : class_layer_) {
      std::vector<parallel::Strategy> list = parallel::enumerate_strategies(
          problem_->spine->node(first).shape, p, config_.max_es_dims);
      if (!config_.enable_ss) {
        std::erase_if(list, [](const parallel::Strategy& s) { return s.has_ss(); });
      }
      by_class.push_back(std::move(list));
    }
    slot.by_class = std::move(by_class);
  });
  return slot.by_class[static_cast<std::size_t>(
      shape_class_[static_cast<std::size_t>(layer)])];
}

parallel::Strategy SecondLevelSearch::decode_layer(const graph::ConvShape& shape,
                                                   int p,
                                                   const double* genes) const {
  if (p <= 1) return parallel::Strategy{};

  const std::vector<std::vector<int>> facts =
      parallel::factorizations(p, config_.max_es_dims);
  MARS_CHECK(!facts.empty(), "no factorization for p=" << p);
  const auto k = static_cast<int>(facts.size());
  const int preferred =
      std::min(static_cast<int>(genes[0] * k), k - 1);
  const std::vector<parallel::Dim> es_order = dims_by_priority(genes + 2);

  // Try factorizations starting at the gene-selected one; assign factors
  // (non-increasing) to the highest-priority dims that can hold them.
  std::vector<parallel::DimSplit> es;
  bool assigned = false;
  for (int attempt = 0; attempt < k && !assigned; ++attempt) {
    const std::vector<int>& factors =
        facts[static_cast<std::size_t>((preferred + attempt) % k)];
    es.clear();
    int used = 0;
    for (int factor : factors) {
      bool placed = false;
      for (parallel::Dim dim : es_order) {
        const int bit = 1 << static_cast<int>(dim);
        if ((used & bit) != 0) continue;
        if (parallel::dim_extent(shape, dim) < factor) continue;
        es.push_back({dim, factor});
        used |= bit;
        placed = true;
        break;
      }
      if (!placed) break;
    }
    assigned = es.size() == factors.size();
  }
  if (!assigned) {
    // Last resort: the whole split on the widest dim.
    parallel::Dim widest = parallel::Dim::kCout;
    for (parallel::Dim dim : parallel::kAllDims) {
      if (parallel::dim_extent(shape, dim) >
          parallel::dim_extent(shape, widest)) {
        widest = dim;
      }
    }
    MARS_CHECK(parallel::dim_extent(shape, widest) >= p,
               "layer " << graph::to_string(shape)
                        << " cannot be split across " << p << " accelerators");
    es = {{widest, p}};
  }

  parallel::Strategy base{es, std::nullopt};
  if (!config_.enable_ss || genes[1] <= 0.5) return base;

  // SS dim: highest SS-priority dim outside ES that can host p shards.
  for (parallel::Dim dim : dims_by_priority(genes + 8)) {
    if (base.ways_of(dim) > 1) continue;
    parallel::Strategy with_ss{es, dim};
    if (with_ss.fits(shape, p)) return with_ss;
  }
  return base;
}

std::vector<parallel::Strategy> SecondLevelSearch::decode_all(
    const LayerAssignment& skeleton, const ga::Genome& genome) const {
  const int p = skeleton.num_accs();
  std::vector<parallel::Strategy> strategies;
  strategies.reserve(static_cast<std::size_t>(skeleton.num_layers()));
  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const double* genes =
        genome.data() +
        static_cast<std::size_t>(layer - skeleton.begin) * kGenesPerLayer;
    strategies.push_back(
        decode_layer(problem_->spine->node(layer).shape, p, genes));
  }
  return strategies;
}

SecondLevelResult SecondLevelSearch::greedy(const LayerAssignment& skeleton) const {
  const int p = skeleton.num_accs();
  MARS_CHECK_ARG(p >= 1 && p <= problem_->topo->size(),
                 "skeleton set " << topology::mask_to_string(skeleton.accs)
                                 << " has " << p << " members; topology '"
                                 << problem_->topo->name() << "' has "
                                 << problem_->topo->size());
  MARS_CHECK_ARG(0 <= skeleton.begin && skeleton.begin < skeleton.end &&
                     skeleton.end <= problem_->spine->size(),
                 "skeleton layer range [" << skeleton.begin << ", "
                                          << skeleton.end << ") out of bounds");
  const Bandwidth internal_bw = model_.internal_bandwidth(skeleton);
  SecondLevelResult result;
  std::optional<parallel::ActivationSharding> upstream;

  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const std::vector<parallel::Strategy>& options = strategy_options(layer, p);
    MARS_CHECK(!options.empty(), "no valid strategy for layer "
                                     << problem_->spine->node(layer).name
                                     << " on " << p << " accelerators");
    const parallel::Strategy* best = nullptr;
    Seconds best_time(0.0);
    LayerCost best_cost;
    for (const parallel::Strategy& option : options) {
      const LayerCost cost =
          model_.layer_cost(skeleton, layer, option, upstream, internal_bw);
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
  result.cost = model_.set_cost(full);

  // Memory repair: the latency-greedy pass ignores DRAM residency. When
  // the set does not fit, re-pick strategies for the heaviest layers,
  // minimising per-accelerator weight residency (ties by latency) — this
  // is where shared shards earn their keep (Section IV: SS relieves the
  // memory burden by keeping only a rotating 1/p shard resident).
  if (!result.cost.memory_ok && p > 1) {
    std::vector<int> order(static_cast<std::size_t>(skeleton.num_layers()));
    std::iota(order.begin(), order.end(), 0);
    std::vector<parallel::ShardingPlan> plans;
    plans.reserve(order.size());
    for (int i = 0; i < skeleton.num_layers(); ++i) {
      plans.push_back(parallel::make_plan(
          problem_->spine->node(skeleton.begin + i).shape,
          problem_->spine->dtype(),
          result.strategies[static_cast<std::size_t>(i)], p));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return plans[static_cast<std::size_t>(a)].weight_resident >
             plans[static_cast<std::size_t>(b)].weight_resident;
    });
    for (int index : order) {
      const int layer = skeleton.begin + index;
      const graph::ConvShape& shape = problem_->spine->node(layer).shape;
      const parallel::Strategy* lightest = nullptr;
      Bytes lightest_bytes{};
      Seconds lightest_time{};
      for (const parallel::Strategy& option : strategy_options(layer, p)) {
        const parallel::ShardingPlan plan =
            parallel::make_plan(shape, problem_->spine->dtype(), option, p);
        const Seconds time =
            model_.layer_cost(skeleton, layer, option, std::nullopt, internal_bw)
                .total();
        if (lightest == nullptr || plan.weight_resident < lightest_bytes ||
            (plan.weight_resident == lightest_bytes && time < lightest_time)) {
          lightest = &option;
          lightest_bytes = plan.weight_resident;
          lightest_time = time;
        }
      }
      result.strategies[static_cast<std::size_t>(index)] = *lightest;
      full.strategies = result.strategies;
      const SetCost repaired = model_.set_cost(full);
      if (repaired.memory_ok) {
        result.cost = repaired;
        break;
      }
      result.cost = repaired;
    }
  }
  return result;
}

SecondLevelResult SecondLevelSearch::refine(
    const LayerAssignment& skeleton, Rng& rng,
    const std::vector<parallel::Strategy>* seed_strategies,
    ga::GaResult* ga_out) const {
  const int genome_size = kGenesPerLayer * skeleton.num_layers();
  ga::GaEngine engine(config_.ga, genome_size);

  const ga::BatchFitnessFn fitness = [&](const std::vector<ga::Genome>& genomes) {
    std::vector<double> values;
    for (const ga::Genome& genome : genomes) {
      LayerAssignment candidate = skeleton;
      candidate.strategies = decode_all(skeleton, genome);
      values.push_back(model_.set_cost(candidate).penalized.count());
    }
    return values;
  };

  // Seed: encode the provided strategies (or the greedy solution) as genes
  // that decode back to themselves.
  std::vector<parallel::Strategy> seed =
      seed_strategies != nullptr ? *seed_strategies : greedy(skeleton).strategies;
  ga::Genome seed_genome(static_cast<std::size_t>(genome_size), 0.1);
  const int p = skeleton.num_accs();
  const std::vector<std::vector<int>> facts =
      parallel::factorizations(std::max(p, 2), config_.max_es_dims);
  for (int layer = skeleton.begin; layer < skeleton.end; ++layer) {
    const std::size_t base =
        static_cast<std::size_t>(layer - skeleton.begin) * kGenesPerLayer;
    const parallel::Strategy& strategy =
        seed[static_cast<std::size_t>(layer - skeleton.begin)];
    // Factorization selector: find the multiset of ES ways.
    std::vector<int> ways;
    for (const parallel::DimSplit& split : strategy.es()) ways.push_back(split.ways);
    std::sort(ways.begin(), ways.end(), std::greater<>());
    for (std::size_t f = 0; f < facts.size(); ++f) {
      if (facts[f] == ways) {
        seed_genome[base] = (static_cast<double>(f) + 0.5) / facts.size();
        break;
      }
    }
    seed_genome[base + 1] = strategy.has_ss() ? 0.9 : 0.1;
    // ES priorities: rank split dims by ways (larger first).
    double priority = 1.0;
    std::vector<parallel::DimSplit> splits = strategy.es();
    std::sort(splits.begin(), splits.end(),
              [](const parallel::DimSplit& a, const parallel::DimSplit& b) {
                return a.ways > b.ways;
              });
    for (const parallel::DimSplit& split : splits) {
      seed_genome[base + 2 + static_cast<std::size_t>(split.dim)] = priority;
      priority -= 0.15;
    }
    if (strategy.has_ss()) {
      seed_genome[base + 8 + static_cast<std::size_t>(*strategy.ss())] = 1.0;
    }
  }

  const ga::GaResult ga_result = engine.minimize(fitness, rng, {seed_genome});
  if (ga_out != nullptr) *ga_out = ga_result;

  SecondLevelResult result;
  result.strategies = decode_all(skeleton, ga_result.best);
  LayerAssignment full = skeleton;
  full.strategies = result.strategies;
  result.cost = model_.set_cost(full);
  return result;
}

}  // namespace mars::core
