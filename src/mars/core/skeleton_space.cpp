#include "mars/core/skeleton_space.h"

#include <algorithm>
#include <utility>

#include "mars/core/baseline.h"
#include "mars/util/error.h"
#include "mars/util/worker_pool.h"

namespace mars::core {
namespace {

std::vector<topology::AccSetCandidate> trivial_candidates(
    const topology::Topology& topo, topology::AccMask within) {
  std::vector<topology::AccSetCandidate> out;
  for (topology::AccMask component : topo.components_above(within, Bandwidth(0.0))) {
    out.push_back({component, topo.min_internal_bandwidth(component)});
  }
  for (topology::AccId id = 0; id < topo.size(); ++id) {
    const topology::AccMask mask = topology::mask_of(id);
    if ((mask & within) == 0) continue;
    if (std::none_of(out.begin(), out.end(), [&](const auto& c) {
          return c.mask == mask;
        })) {
      out.push_back({mask, topo.min_internal_bandwidth(mask)});
    }
  }
  return out;
}

}  // namespace

SetPriceTable::SetPriceTable(const Problem& problem,
                             const SecondLevelConfig& config)
    : spine_(problem.spine),
      topo_(problem.topo),
      designs_(problem.designs),
      adaptive_(problem.adaptive),
      sim_params_(problem.sim_params),
      enable_ss_(config.enable_ss),
      max_es_dims_(config.max_es_dims) {}

void SetPriceTable::check_bound(const Problem& problem,
                                const SecondLevelConfig& config) const {
  MARS_CHECK(problem.spine == spine_ && problem.topo == topo_ &&
                 problem.designs == designs_,
             "SetPriceTable lent to a problem on another spine, topology "
             "or design registry");
  MARS_CHECK(problem.adaptive == adaptive_ &&
                 problem.sim_params == sim_params_,
             "SetPriceTable lent to a problem with other adaptive or "
             "simulation parameters");
  MARS_CHECK(config.enable_ss == enable_ss_ &&
                 config.max_es_dims == max_es_dims_,
             "SetPriceTable lent to a second level with other enable_ss or "
             "max_es_dims");
}

Seconds SetPriceTable::price(const LayerAssignment& set,
                             const SecondLevelSearch& second) {
  Slot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = slots_.try_emplace(SetKey::of(set));
    (inserted ? misses_ : hits_).add();
    slot = &it->second;
  }
  std::call_once(slot->priced, [&] {
    slot->value = second.greedy(set).cost.penalized;
  });
  return slot->value;
}

SkeletonSpace::SkeletonSpace(const Problem& problem, const Config& config)
    : problem_(&problem),
      config_(config),
      profile_(*problem.designs, *problem.spine),
      candidates_(config.heuristic_candidates
                      ? topology::accset_candidates(*problem.topo,
                                                    problem.placement_mask())
                      : trivial_candidates(*problem.topo, problem.placement_mask())),
      codec_(problem, candidates_),
      second_(problem, config.second),
      evaluator_(problem),
      memo_hits_(&metrics_.counter("search.space.memo.hits")),
      memo_misses_(&metrics_.counter("search.space.memo.misses")),
      memo_(memo_hits_, memo_misses_) {
  if (problem.set_prices != nullptr) {
    problem.set_prices->check_bound(problem, config.second);
  }
}

SkeletonSpace::~SkeletonSpace() {
  if (obs::MetricsRegistry* global = obs::metrics()) {
    metrics_.flush_to(*global);
  }
}

Seconds SkeletonSpace::price_miss(const LayerAssignment& set) const {
  if (problem_->set_prices != nullptr) {
    return problem_->set_prices->price(set, second_);
  }
  return second_.greedy(set).cost.penalized;
}

std::vector<double> SkeletonSpace::fitness_batch(
    const std::vector<Skeleton>& skeletons, util::WorkerPool& pool) {
  // One memo sweep over every set of every skeleton, in batch order.
  Memo::Sweep sweep = memo_.sweep();
  std::vector<std::vector<Seconds>> latencies(skeletons.size());
  std::vector<std::pair<Seconds*, Memo::Ticket>> pending;
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    const auto& sets = skeletons[i].sets;
    latencies[i].resize(sets.size());
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const Memo::Ticket ticket = sweep.probe(SetKey::of(sets[s]), &sets[s]);
      if (ticket.cached != nullptr) {
        latencies[i][s] = *ticket.cached;
      } else {
        pending.emplace_back(&latencies[i][s], ticket);
      }
    }
  }
  // greedy() is a pure const function of the key, so the sweep may price
  // the new keys on any thread.
  sweep.resolve(pool, [this](const LayerAssignment* set) {
    return price_miss(*set);
  });
  for (const auto& [latency, ticket] : pending) {
    *latency = sweep[ticket];
  }

  // Per-set penalized latencies aggregated over the set dependency DAG
  // (models branch overlap for multi-stream workloads).
  std::vector<double> fitnesses;
  fitnesses.reserve(skeletons.size());
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    fitnesses.push_back(evaluator_.analytical()
                            .aggregate_makespan(skeletons[i].sets, latencies[i])
                            .count());
  }
  return fitnesses;
}

std::vector<double> SkeletonSpace::fitness_batch(
    const std::vector<ga::Genome>& genomes, util::WorkerPool& pool) {
  std::vector<Skeleton> skeletons(genomes.size());
  pool.parallel_for(genomes.size(), [&](std::size_t i) {
    skeletons[i] = codec_.decode(genomes[i]);
  });
  return fitness_batch(skeletons, pool);
}

Mapping SkeletonSpace::complete(const Skeleton& skeleton) {
  Mapping mapping;
  for (const LayerAssignment& set : skeleton.sets) {
    SecondLevelResult second = second_.greedy(set);
    // Charged to the memo like any other lookup of the set.
    (void)memo_.get(SetKey::of(set), &set, [&](const LayerAssignment*) {
      return second.cost.penalized;
    });
    LayerAssignment full = set;
    full.strategies = std::move(second.strategies);
    mapping.sets.push_back(std::move(full));
  }
  return mapping;
}

void SkeletonSpace::polish(Mapping& mapping, Rng& rng) const {
  for (LayerAssignment& set : mapping.sets) {
    LayerAssignment skeleton = set;
    skeleton.strategies.clear();
    Rng child = rng.fork();
    const SecondLevelResult refined =
        second_.refine(skeleton, child, &set.strategies);
    // Keep the better of greedy and refined (the GA is seeded with the
    // greedy solution, so this only guards decode drift).
    LayerAssignment trial = set;
    trial.strategies = refined.strategies;
    if (evaluator_.analytical().set_cost(trial).penalized <=
        evaluator_.analytical().set_cost(set).penalized) {
      set.strategies = refined.strategies;
    }
  }
}

Skeleton SkeletonSpace::baseline() const {
  return baseline_skeleton(*problem_, profile_);
}

}  // namespace mars::core
