#include "mars/comap/engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "mars/core/first_level.h"
#include "mars/core/skeleton_space.h"
#include "mars/plan/engines.h"
#include "mars/serve/service.h"
#include "mars/util/error.h"
#include "mars/util/logging.h"
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
  const plan::GaEngine inner_engine(config_.inner);
  plan::BudgetMeter meter(budget);
  std::unique_ptr<util::WorkerPool> pool;
  if (config_.threads > 1) {
    pool = std::make_unique<util::WorkerPool>(config_.threads);
  }

  // ---- per-(tenant, slice) inner plans, memoised and cache-composed ----
  struct InnerPlan {
    core::Mapping mapping;
    plan::Provenance provenance;
  };
  std::map<std::pair<std::size_t, topology::AccMask>, InnerPlan> inner;
  const auto plan_within = [&](std::size_t t,
                               topology::AccMask slice) -> const InnerPlan& {
    // Full-fleet slices use placement 0 so their cache identity is the
    // historical unsliced fingerprint.
    const topology::AccMask placement = slice == full ? 0 : slice;
    const auto key = std::make_pair(t, placement);
    if (const auto it = inner.find(key); it != inner.end()) return it->second;

    InnerPlan result;
    std::optional<serve::MappingCache::Key> cache_key;
    if (cache != nullptr) {
      const std::string spec =
          serve::search_spec(inner_engine, plan::Budget{}, placement);
      cache_key = serve::MappingCache::Key{
          problem.tenants[t].model,
          serve::MappingCache::fingerprint(topo, *problem.designs,
                                           problem.adaptive, spec)};
      if (std::optional<core::Mapping> cached =
              cache->load(*cache_key, objective.planner(t).spine(), topo,
                          *problem.designs, problem.adaptive)) {
        result.mapping = *std::move(cached);
        result.provenance.engine = inner_engine.name();
        result.provenance.spec = spec;
        return inner.emplace(key, std::move(result)).first->second;
      }
    }

    core::Problem sliced = objective.planner(t).problem();
    sliced.placement = placement;
    plan::PlanResult planned = inner_engine.search(sliced);
    result.mapping = std::move(planned.mapping);
    result.provenance = std::move(planned.provenance);
    // Same rule as ModelService: a cancelled search's truncated mapping
    // must never poison the complete-search fingerprint. (Inner searches
    // here are unbudgeted, so this only guards future config changes.)
    if (cache_key.has_value() &&
        result.provenance.stopped != plan::StopReason::kCancelled) {
      try {
        cache->store(*cache_key, result.mapping, objective.planner(t).spine(),
                     *problem.designs, problem.adaptive);
      } catch (const std::exception& e) {
        MARS_WARN << "mapping cache store failed for '"
                  << problem.tenants[t].model
                  << "' (comap continues uncached): " << e.what();
      }
    }
    return inner.emplace(key, std::move(result)).first->second;
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

  // Decode + materialise one genome into a candidate (serial, memoised —
  // inner plans for partition, the per-tenant second level for
  // interleave). Returns the per-tenant slice masks alongside (full fleet
  // for interleave).
  const auto materialize = [&](const ga::Genome& genome)
      -> std::pair<CandidatePlan, std::vector<topology::AccMask>> {
    CandidatePlan plan(num_tenants);
    std::vector<topology::AccMask> masks(num_tenants, full);
    if (config_.encoding == Encoding::kPartition) {
      masks = decode_partition_genome(genome, num_tenants, topo.size());
      for (std::size_t t = 0; t < num_tenants; ++t) {
        plan[t] = plan_within(t, masks[t]).mapping;
      }
    } else {
      for (std::size_t t = 0; t < num_tenants; ++t) {
        const int begin = slice_offset[t];
        const int size = spaces[t]->codec().genome_size();
        const ga::Genome slice(genome.begin() + begin,
                               genome.begin() + begin + size);
        plan[t] = spaces[t]->complete(spaces[t]->codec().decode(slice));
      }
    }
    return {std::move(plan), std::move(masks)};
  };

  // ---- evaluation #1: the independent answer ---------------------------
  CandidatePlan independent(num_tenants);
  for (std::size_t t = 0; t < num_tenants; ++t) {
    independent[t] = plan_within(t, full).mapping;
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
                                          plan_within(t, full).provenance});
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
      std::vector<CandidatePlan> plans;
      plans.reserve(genomes.size());
      for (const ga::Genome& genome : genomes) {
        plans.push_back(materialize(genome).first);
      }
      return objective.score_batch(plans, pool.get());
    };
    const ga::FitnessFn fitness_one = [&](const ga::Genome& genome) {
      return objective.score(materialize(genome).first).fitness;
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
      auto [plan, masks] = materialize(ga_result.best);
      out.mappings = std::move(plan);
      out.score = objective.score(out.mappings);
      out.independent_score = independent_score;
      out.joint_won = true;
      out.history = ga_result.history;
      out.provenance.winner = to_string(config_.encoding);
      for (std::size_t t = 0; t < num_tenants; ++t) {
        TenantOutcome tenant;
        tenant.model = problem.tenants[t].model;
        if (config_.encoding == Encoding::kPartition) {
          tenant.placement = masks[t] == full ? 0 : masks[t];
          tenant.provenance = plan_within(t, masks[t]).provenance;
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
  return out;
}

}  // namespace mars::comap
