#include "mars/comap/engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "mars/core/first_level.h"
#include "mars/core/skeleton_space.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"
#include "mars/serve/service.h"
#include "mars/util/error.h"
#include "mars/util/hash.h"
#include "mars/util/logging.h"
#include "mars/util/memo_batch.h"
#include "mars/util/rng.h"
#include "mars/util/worker_pool.h"

namespace mars::comap {
namespace {

/// A mapping with its strategies dropped — the encodable first-level part.
core::Skeleton skeleton_of(const core::Mapping& mapping) {
  core::Skeleton skeleton;
  skeleton.sets.reserve(mapping.sets.size());
  for (const core::LayerAssignment& set : mapping.sets) {
    core::LayerAssignment bare = set;
    bare.strategies.clear();
    skeleton.sets.push_back(std::move(bare));
  }
  return skeleton;
}

/// One tenant's plan within one fleet slice, memoised per (tenant,
/// placement); placement 0 is the full fleet.
using InnerKey = std::pair<std::size_t, topology::AccMask>;
struct InnerKeyHash {
  std::size_t operator()(const InnerKey& key) const {
    return util::fnv1a_word(key.second,
                            util::fnv1a_word(key.first, util::kFnvOffset));
  }
};
struct InnerPlan {
  core::Mapping mapping;
  plan::Provenance provenance;
};
/// A new key's pricing input: its mapping-cache hit, when the probe found
/// one; otherwise the sweep searches the slice.
struct InnerJob {
  InnerKey key;
  std::optional<core::Mapping> cached;
};
using InnerMemo = util::MemoBatch<InnerKey, InnerPlan, InnerJob, InnerKeyHash>;

}  // namespace

Encoding parse_encoding(const std::string& spec) {
  if (spec == "partition") return Encoding::kPartition;
  if (spec == "interleave") return Encoding::kInterleave;
  throw InvalidArgument("bad comap encoding '" + spec +
                              "' (expected partition|interleave)");
}

std::string to_string(Encoding encoding) {
  switch (encoding) {
    case Encoding::kPartition:
      return "partition";
    case Encoding::kInterleave:
      return "interleave";
  }
  return "?";
}

void validate_config(const CoMapConfig& config) {
  ga::validate_config(config.ga);
  core::validate_config(config.inner);
  MARS_CHECK_ARG(config.threads >= 1,
                 "CoMapConfig.threads must be >= 1, got " << config.threads);
}

std::vector<topology::AccMask> decode_partition_genome(
    const std::vector<double>& genome, std::size_t num_tenants, int accs) {
  MARS_CHECK_ARG(genome.size() == num_tenants + 1,
                 "partition genome carries " << genome.size() << " genes for "
                                             << num_tenants << " tenants");
  MARS_CHECK_ARG(num_tenants >= 1 && accs >= static_cast<int>(num_tenants),
                 "partitioning " << num_tenants << " tenants needs at least "
                                 << num_tenants << " accelerators, fleet has "
                                 << accs);
  const std::size_t buckets = num_tenants + 1;  // tenants + shared pool
  const int spare = accs - static_cast<int>(num_tenants);

  // Largest-remainder split of the spare accelerators over the share
  // genes (every tenant already holds one). A degenerate all-zero genome
  // splits evenly — the decode must accept any point in [0, 1]^(T+1).
  std::vector<int> extra(buckets, 0);
  if (spare > 0) {
    std::vector<double> weight(buckets);
    double total = 0.0;
    for (std::size_t i = 0; i < buckets; ++i) {
      weight[i] = std::clamp(genome[i], 0.0, 1.0);
      total += weight[i];
    }
    if (total <= 1e-12) {
      weight.assign(buckets, 1.0);
      total = static_cast<double>(buckets);
    }
    extra = core::largest_remainder(spare, weight, total);
  }

  // Contiguous accelerator-id ranges in tenant order, shared pool last.
  int next = 0;
  const auto take = [&](int count) {
    topology::AccMask mask = 0;
    for (int k = 0; k < count; ++k) {
      mask |= topology::mask_of(static_cast<topology::AccId>(next++));
    }
    return mask;
  };
  std::vector<topology::AccMask> masks(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) masks[t] = take(1 + extra[t]);
  const topology::AccMask shared = take(extra[num_tenants]);
  for (topology::AccMask& mask : masks) mask |= shared;
  return masks;
}

CoMapEngine::CoMapEngine(CoMapConfig config) : config_(std::move(config)) {
  validate_config(config_);
}

std::string CoMapEngine::spec_string() const {
  std::ostringstream os;
  const ga::GaConfig& g = config_.ga;
  os << "comap:" << to_string(config_.encoding) << ";seed=" << config_.seed
     << ";pop=" << g.population << ";gens=" << g.generations
     << ";elite=" << g.elite << ";tour=" << g.tournament
     << ";cx=" << g.crossover_rate << ";mut=" << g.mutation_rate
     << ";sigma=" << g.mutation_sigma << ";stall=" << g.stall_generations
     << ";inner=[" << plan::GaEngine(config_.inner).spec_string() << "]";
  return os.str();
}

CoMapResult CoMapEngine::search(const CoMapProblem& problem,
                                const plan::Budget& budget,
                                const serve::MappingCache* cache,
                                const plan::ProgressFn& progress) const {
  problem.validate();
  const std::size_t num_tenants = problem.tenants.size();
  const topology::Topology& topo = *problem.topo;
  const topology::AccMask full = topo.full_mask();

  ServingObjective objective(problem);
  plan::BudgetMeter meter(budget);
  // One pool prices both the inner plans and the rollouts.
  std::unique_ptr<util::WorkerPool> pool;
  if (config_.threads > 1) {
    pool = std::make_unique<util::WorkerPool>(config_.threads);
  }

  // ---- per-(tenant, slice) inner plans, memoised and cache-composed ----
  // Each inner search runs single-threaded; a sweep fans its distinct
  // (tenant, slice) searches across the pool instead.
  core::MarsConfig inner_config = config_.inner;
  inner_config.threads = 1;
  const plan::GaEngine inner_engine(inner_config);
  obs::Counter inner_hits;
  obs::Counter inner_misses;
  InnerMemo inner(&inner_hits, &inner_misses);
  // Full-fleet slices use placement 0 so their cache identity is the
  // historical unsliced fingerprint.
  const auto key_of = [&](std::size_t t, topology::AccMask slice) {
    return InnerKey{t, slice == full ? 0 : slice};
  };
  const auto inner_spec = [&](topology::AccMask placement) {
    return serve::search_spec(inner_engine, plan::Budget{}, placement);
  };

  // Plans every key in one sweep; returns each key's plan, in order.
  // Mapping-cache loads run in the serial probe (once per new key), and
  // stores follow the parallel searches in first-seen key order.
  const auto plan_all = [&](const std::vector<InnerKey>& keys) {
    InnerMemo::Sweep sweep = inner.sweep();
    std::vector<InnerMemo::Ticket> tickets;
    tickets.reserve(keys.size());
    // Per new key, by slot: its tenant, and the cache key its plan is
    // stored under once searched (none without a cache or on a hit).
    struct Store {
      std::size_t tenant;
      std::optional<serve::MappingCache::Key> key;
    };
    std::vector<Store> stores;
    for (const InnerKey& key : keys) {
      tickets.push_back(sweep.probe_with(key, [&] {
        InnerJob job{key, std::nullopt};
        std::optional<serve::MappingCache::Key> store;
        if (cache != nullptr) {
          store = serve::MappingCache::Key{
              problem.tenants[key.first].model,
              serve::MappingCache::fingerprint(topo, *problem.designs,
                                               problem.adaptive,
                                               inner_spec(key.second))};
          job.cached =
              cache->load(*store, objective.planner(key.first).spine(), topo,
                          *problem.designs, problem.adaptive);
          if (job.cached.has_value()) store.reset();
        }
        stores.push_back({key.first, std::move(store)});
        return job;
      }));
    }
    const std::vector<const InnerPlan*>& planned =
        sweep.resolve(pool.get(), [&](const InnerJob& job) {
          if (job.cached.has_value()) {
            plan::Provenance provenance;
            provenance.engine = inner_engine.name();
            provenance.spec = inner_spec(job.key.second);
            return InnerPlan{*job.cached, std::move(provenance)};
          }
          core::Problem sliced = objective.planner(job.key.first).problem();
          sliced.placement = job.key.second;
          plan::PlanResult searched = inner_engine.search(sliced);
          return InnerPlan{std::move(searched.mapping),
                           std::move(searched.provenance)};
        });
    for (std::size_t slot = 0; slot < stores.size(); ++slot) {
      // Same rule as ModelService: a cancelled search's truncated mapping
      // must never poison the complete-search fingerprint. (Inner searches
      // here are unbudgeted, so this only guards future config changes.)
      if (!stores[slot].key.has_value() ||
          planned[slot]->provenance.stopped == plan::StopReason::kCancelled) {
        continue;
      }
      const std::size_t t = stores[slot].tenant;
      try {
        cache->store(*stores[slot].key, planned[slot]->mapping,
                     objective.planner(t).spine(), *problem.designs,
                     problem.adaptive);
      } catch (const std::exception& e) {
        MARS_WARN << "mapping cache store failed for '"
                  << problem.tenants[t].model
                  << "' (comap continues uncached): " << e.what();
      }
    }
    std::vector<const InnerPlan*> plans;
    plans.reserve(tickets.size());
    for (const InnerMemo::Ticket& ticket : tickets) {
      plans.push_back(&sweep[ticket]);
    }
    return plans;
  };

  // ---- encoding: genome size, decode, seeds ----------------------------
  // Interleave state (unused by partition): one SkeletonSpace per tenant,
  // second level memoised across the whole outer search.
  std::vector<std::unique_ptr<core::SkeletonSpace>> spaces;
  std::vector<int> slice_offset;  // gene offset per tenant, interleave
  int genome_size = 0;
  if (config_.encoding == Encoding::kPartition) {
    genome_size = static_cast<int>(num_tenants) + 1;
  } else {
    const core::SkeletonSpace::Config space_config{
        config_.inner.second, config_.inner.heuristic_candidates};
    for (std::size_t t = 0; t < num_tenants; ++t) {
      spaces.push_back(std::make_unique<core::SkeletonSpace>(
          objective.planner(t).problem(), space_config));
      slice_offset.push_back(genome_size);
      genome_size += spaces.back()->codec().genome_size();
    }
  }

  // The (tenant, slice) keys of partition genomes, genome-major.
  const auto slice_keys = [&](std::span<const ga::Genome> genomes) {
    std::vector<InnerKey> keys;
    keys.reserve(genomes.size() * num_tenants);
    for (const ga::Genome& genome : genomes) {
      const std::vector<topology::AccMask> masks =
          decode_partition_genome(genome, num_tenants, topo.size());
      for (std::size_t t = 0; t < num_tenants; ++t) {
        keys.push_back(key_of(t, masks[t]));
      }
    }
    return keys;
  };

  // Decode + materialise genomes into candidates: partition plans the
  // whole batch's (tenant, slice) keys in one sweep; interleave completes
  // each tenant's skeleton through its memoised second level (serial).
  const auto materialize = [&](std::span<const ga::Genome> genomes) {
    std::vector<CandidatePlan> plans(genomes.size(),
                                     CandidatePlan(num_tenants));
    if (config_.encoding == Encoding::kPartition) {
      const std::vector<const InnerPlan*> planned =
          plan_all(slice_keys(genomes));
      for (std::size_t g = 0; g < genomes.size(); ++g) {
        for (std::size_t t = 0; t < num_tenants; ++t) {
          plans[g][t] = planned[g * num_tenants + t]->mapping;
        }
      }
      return plans;
    }
    for (std::size_t g = 0; g < genomes.size(); ++g) {
      for (std::size_t t = 0; t < num_tenants; ++t) {
        const auto slice = genomes[g].begin() + slice_offset[t];
        const ga::Genome genes(slice,
                               slice + spaces[t]->codec().genome_size());
        plans[g][t] = spaces[t]->complete(spaces[t]->codec().decode(genes));
      }
    }
    return plans;
  };

  // ---- evaluation #1: the independent answer ---------------------------
  std::vector<InnerKey> full_keys;
  for (std::size_t t = 0; t < num_tenants; ++t) {
    full_keys.push_back(key_of(t, full));
  }
  const std::vector<const InnerPlan*> independent_plans = plan_all(full_keys);
  CandidatePlan independent;
  for (const InnerPlan* plan : independent_plans) {
    independent.push_back(plan->mapping);
  }
  const ServingObjective::Score independent_score =
      objective.score(independent);
  constexpr long long kBaseEvals = 1;
  if (progress) {
    progress({kBaseEvals, independent_score.fitness, meter.elapsed()});
  }

  const auto independent_result = [&](std::vector<double> history) {
    CoMapResult out;
    out.mappings = independent;
    out.score = independent_score;
    out.independent_score = independent_score;
    out.joint_won = false;
    out.history = std::move(history);
    out.provenance.winner = "independent";
    for (std::size_t t = 0; t < num_tenants; ++t) {
      out.tenants.push_back(TenantOutcome{problem.tenants[t].model, 0,
                                          independent_plans[t]->provenance});
    }
    return out;
  };

  CoMapResult out;
  long long evaluations = kBaseEvals;
  int generations = 0;
  if (meter.exhausted(kBaseEvals)) {
    out = independent_result({independent_score.fitness});
  } else {
    // ---- the outer GA over the composite genome ------------------------
    std::vector<ga::Genome> seeds;
    if (config_.encoding == Encoding::kPartition) {
      // Balanced split with and without a shared pool, and a
      // shared-everything split (the closest expressible point to
      // independent planning).
      seeds.push_back(ga::Genome(num_tenants + 1, 0.5));
      ga::Genome own_only(num_tenants + 1, 1.0);
      own_only.back() = 0.0;
      seeds.push_back(std::move(own_only));
      ga::Genome all_shared(num_tenants + 1, 0.0);
      all_shared.back() = 1.0;
      seeds.push_back(std::move(all_shared));
    } else {
      // The independently searched skeletons (so the joint search starts
      // from the independent answer) and the per-tenant baselines.
      const auto concat_seed =
          [&](const std::function<core::Skeleton(std::size_t)>& skeleton_for) {
            ga::Genome seed;
            seed.reserve(static_cast<std::size_t>(genome_size));
            for (std::size_t t = 0; t < num_tenants; ++t) {
              const ga::Genome part = spaces[t]->codec().encode(
                  skeleton_for(t), spaces[t]->design_scores());
              seed.insert(seed.end(), part.begin(), part.end());
            }
            return seed;
          };
      try {
        seeds.push_back(concat_seed(
            [&](std::size_t t) { return skeleton_of(independent[t]); }));
      } catch (const std::exception& e) {
        MARS_WARN << "comap: independent skeletons not encodable as a seed ("
                  << e.what() << "); starting from the baseline only";
      }
      seeds.push_back(
          concat_seed([&](std::size_t t) { return spaces[t]->baseline(); }));
    }

    const ga::BatchFitnessFn batch = [&](const std::vector<ga::Genome>& genomes) {
      return objective.score_batch(materialize(genomes), pool.get());
    };
    const ga::FitnessFn fitness_one = [&](const ga::Genome& genome) {
      return batch({genome}).front();
    };
    const ga::StopFn stop = [&](long long evals, double best) {
      if (progress) {
        progress({kBaseEvals + evals,
                  std::min(best, independent_score.fitness), meter.elapsed()});
      }
      return meter.exhausted(kBaseEvals + evals);
    };

    const ga::GaEngine outer(config_.ga, genome_size);
    Rng rng(config_.seed);
    const ga::GaResult ga_result =
        outer.minimize(fitness_one, rng, seeds, stop, batch);
    evaluations += ga_result.evaluations;
    generations = ga_result.generations_run;

    if (ga_result.best_fitness < independent_score.fitness) {
      const std::span<const ga::Genome> best(&ga_result.best, 1);
      out.mappings = std::move(materialize(best).front());
      out.score = objective.score(out.mappings);
      out.independent_score = independent_score;
      out.joint_won = true;
      out.history = ga_result.history;
      out.provenance.winner = to_string(config_.encoding);
      // Memo hits: the winner's plans were made when it was priced.
      const std::vector<InnerKey> keys =
          config_.encoding == Encoding::kPartition ? slice_keys(best)
                                                   : std::vector<InnerKey>{};
      const std::vector<const InnerPlan*> planned = plan_all(keys);
      for (std::size_t t = 0; t < num_tenants; ++t) {
        TenantOutcome tenant;
        tenant.model = problem.tenants[t].model;
        if (config_.encoding == Encoding::kPartition) {
          tenant.placement = keys[t].second;
          tenant.provenance = planned[t]->provenance;
        } else {
          // Interleaved skeletons have no inner engine run to cite; the
          // outer search is their provenance.
          tenant.provenance.engine = "comap:interleave";
          tenant.provenance.spec = spec_string();
        }
        out.tenants.push_back(std::move(tenant));
      }
    } else {
      // The explicit independent candidate is part of the search: the
      // joint answer never loses to it, by construction.
      out = independent_result(ga_result.history);
    }
  }

  out.provenance.engine = name();
  out.provenance.spec = spec_string();
  out.provenance.evaluations = evaluations;
  out.provenance.iterations = generations;
  out.provenance.elapsed = meter.elapsed();
  out.provenance.stopped = meter.reason();
  for (const TenantOutcome& tenant : out.tenants) {
    out.provenance.members.push_back(tenant.provenance);
  }
  out.rollout_hits = objective.rollout_hits();
  out.rollout_misses = objective.rollout_misses();
  out.inner_hits = inner_hits.value();
  out.inner_misses = inner_misses.value();
  if (obs::MetricsRegistry* global = obs::metrics()) {
    global->counter("comap.inner.hits").add(out.inner_hits);
    global->counter("comap.inner.misses").add(out.inner_misses);
  }
  return out;
}

}  // namespace mars::comap
