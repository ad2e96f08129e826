#include "mars/plan/engines.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "mars/core/baseline.h"
#include "mars/core/skeleton_space.h"
#include "mars/ga/operators.h"
#include "mars/obs/trace.h"
#include "mars/util/error.h"
#include "mars/util/strings.h"
#include "mars/util/worker_pool.h"

namespace mars::plan {
namespace {

/// How often the skeleton-sampling engines report progress (steps), and
/// how many samples the random engine draws per evaluation batch. Fixed —
/// never derived from the thread count — so results are independent of
/// `threads` by construction.
constexpr int kProgressStride = 32;

/// Wall-domain search progress: evaluation-count and best-fitness counter
/// lanes named after the engine. No-op without an installed recorder;
/// search results never depend on whether tracing is on.
void trace_progress(const char* engine, long long evaluations, double best) {
  obs::TraceRecorder* rec = obs::trace();
  if (rec == nullptr) return;
  const Seconds now = rec->wall_now();
  rec->counter(obs::Clock::kWall, std::string(engine) + " evaluations", now,
               static_cast<double>(evaluations));
  if (std::isfinite(best)) {
    rec->counter(obs::Clock::kWall, std::string(engine) + " best_fitness", now,
                 best);
  }
}

void append_ga(std::ostream& os, const ga::GaConfig& config) {
  os << "pop=" << config.population << ",gen=" << config.generations
     << ",elite=" << config.elite << ",tour=" << config.tournament
     << ",cx=" << config.crossover_rate << ",mut=" << config.mutation_rate
     << ",sigma=" << config.mutation_sigma
     << ",stall=" << config.stall_generations << ",lo=" << config.gene_lo
     << ",hi=" << config.gene_hi;
}

void append_second(std::ostream& os, const core::SecondLevelConfig& config) {
  os << "second{";
  append_ga(os, config.ga);
  os << ",ss=" << config.enable_ss << ",esdims=" << config.max_es_dims << '}';
}

/// A leaf engine's provenance record (winner/members stay empty).
Provenance leaf_provenance(std::string engine, std::string spec,
                           long long evaluations, int iterations,
                           StopReason stopped) {
  Provenance provenance;
  provenance.engine = std::move(engine);
  provenance.spec = std::move(spec);
  provenance.evaluations = evaluations;
  provenance.iterations = iterations;
  provenance.stopped = stopped;
  return provenance;
}

/// Shared tail of the skeleton engines: optionally polish the completed
/// winning mapping, evaluate it, and assemble the PlanResult.
PlanResult finish(core::SkeletonSpace& space, core::Mapping mapping,
                  bool refine_winner, Rng& rng, std::vector<double> history,
                  Provenance provenance, const BudgetMeter& meter) {
  PlanResult result;
  result.mapping = std::move(mapping);
  // A search stopped by its budget returns without the polish pass, so
  // cancellation and exhausted budgets take effect promptly.
  if (refine_winner && provenance.stopped == StopReason::kCompleted) {
    space.polish(result.mapping, rng);
  }
  result.summary = space.evaluator().evaluate(result.mapping);
  result.history = std::move(history);
  provenance.elapsed = meter.elapsed();
  result.provenance = std::move(provenance);
  return result;
}

}  // namespace

// ----------------------------------------------------------------- GaEngine

GaEngine::GaEngine(core::MarsConfig config) : config_(config) {
  core::validate_config(config_);
}

std::string GaEngine::spec_string() const {
  std::ostringstream os;
  os << "ga[";
  append_ga(os, config_.first_ga);
  os << ',';
  append_second(os, config_.second);
  os << ",refine=" << config_.refine_winner
     << ",seedbase=" << config_.seed_baseline
     << ",profinit=" << config_.profiled_init
     << ",heur=" << config_.heuristic_candidates
     << ",two=" << config_.two_level << ",seed=" << config_.seed << ']';
  return os.str();
}

std::unique_ptr<SearchEngine> GaEngine::with_threads(int threads) const {
  core::MarsConfig config = config_;
  config.threads = threads;
  return std::make_unique<GaEngine>(config);
}

PlanResult GaEngine::search(const core::Problem& problem, const Budget& budget,
                            const ProgressFn& progress) const {
  BudgetMeter meter(budget);
  const obs::ScopedWallSpan span("plan", "search ga");
  core::SkeletonSpace space(problem,
                            {config_.second, config_.heuristic_candidates});
  const core::FirstLevelCodec& codec = space.codec();
  Rng rng(config_.seed);
  const std::vector<double> scores = space.design_scores();
  // Shared by both GA arrangements; one thread is the serial case.
  util::WorkerPool pool(config_.threads);

  ga::StopFn stop;
  long long last_reported = -1;
  if (!budget.unlimited() || progress || obs::trace() != nullptr) {
    // The two-level search re-polls the hook after the GA to decide on the
    // polish pass; dedupe by evaluation count so callers see each
    // generation once.
    stop = [&](long long evaluations, double best) {
      if (evaluations != last_reported) {
        trace_progress("ga", evaluations, best);
        if (progress) progress({evaluations, best, meter.elapsed()});
        last_reported = evaluations;
      }
      return meter.exhausted(evaluations);
    };
  }

  ga::GaResult searched;
  core::Mapping mapping;
  bool refine = false;
  if (config_.two_level) {
    ga::GaEngine engine(config_.first_ga, codec.genome_size());
    std::vector<ga::Genome> seeds;
    if (config_.seed_baseline) {
      seeds.push_back(codec.encode(space.baseline(), scores));
    }
    if (config_.profiled_init) {
      const int extra = std::max(1, config_.first_ga.population / 4);
      for (int i = 0; i < extra; ++i) {
        seeds.push_back(codec.profiled_random(scores, rng));
      }
    }
    // Cohorts go through the one batch primitive. Its values do not
    // depend on the pool, so the search is byte-identical at any thread
    // count.
    const ga::BatchFitnessFn batch = [&](const std::vector<ga::Genome>& genomes) {
      return space.fitness_batch(genomes, pool);
    };
    searched = engine.minimize(batch, rng, seeds, stop);
    mapping = space.complete(codec.decode(searched.best));
    // One more poll, so a budget the last generation spent skips polish.
    if (stop) (void)stop(searched.evaluations, searched.best_fitness);
    refine = config_.refine_winner;
  } else {
    // Flat single-level ablation: one genome decides sets AND strategies.
    const int skeleton_genes = codec.genome_size();
    const int strategy_genes =
        core::SecondLevelSearch::kGenesPerLayer * problem.spine->size();
    ga::GaEngine engine(config_.first_ga, skeleton_genes + strategy_genes);

    auto decode_flat = [&](const ga::Genome& genome) {
      const ga::Genome head(genome.begin(), genome.begin() + skeleton_genes);
      const core::Skeleton skeleton = codec.decode(head);
      core::Mapping decoded;
      for (const core::LayerAssignment& set : skeleton.sets) {
        core::LayerAssignment full = set;
        for (int l = set.begin; l < set.end; ++l) {
          const double* genes = genome.data() + skeleton_genes +
                                static_cast<std::size_t>(l) *
                                    core::SecondLevelSearch::kGenesPerLayer;
          full.strategies.push_back(space.second().decode_layer(
              problem.spine->node(l).shape, set.num_accs(), genes));
        }
        decoded.sets.push_back(std::move(full));
      }
      return decoded;
    };
    const core::AnalyticalCostModel& analytical =
        space.evaluator().analytical();
    // Flat fitness touches no shared mutable state (no memo cache), so
    // the batch is a plain parallel map over the cohort.
    const ga::BatchFitnessFn batch = [&](const std::vector<ga::Genome>& genomes) {
      std::vector<double> values(genomes.size());
      pool.parallel_for(genomes.size(), [&](std::size_t i) {
        const core::Mapping decoded = decode_flat(genomes[i]);
        std::vector<Seconds> latencies;
        latencies.reserve(decoded.sets.size());
        for (const core::LayerAssignment& set : decoded.sets) {
          latencies.push_back(analytical.set_cost(set).penalized);
        }
        values[i] =
            analytical.aggregate_makespan(decoded.sets, latencies).count();
      });
      return values;
    };
    // The flat genome carries its own strategies: no polish pass.
    searched = engine.minimize(batch, rng, {}, stop);
    mapping = decode_flat(searched.best);
  }
  return finish(space, std::move(mapping), refine, rng,
                std::move(searched.history),
                leaf_provenance(name(), spec_string(), searched.evaluations,
                                searched.generations_run, meter.reason()),
                meter);
}

// ---------------------------------------------------------- AnnealingEngine

AnnealingEngine::AnnealingEngine(AnnealConfig config)
    : config_(std::move(config)) {
  ga::validate_config(config_.second.ga);
  MARS_CHECK_ARG(config_.iterations >= 1,
                 "annealing iterations must be >= 1, got "
                     << config_.iterations);
  MARS_CHECK_ARG(config_.initial_temperature > 0.0,
                 "annealing initial_temperature must be > 0, got "
                     << config_.initial_temperature);
  MARS_CHECK_ARG(config_.final_temperature > 0.0 &&
                     config_.final_temperature <= config_.initial_temperature,
                 "annealing final_temperature must be in (0, initial], got "
                     << config_.final_temperature << " with initial "
                     << config_.initial_temperature);
  MARS_CHECK_ARG(config_.step_sigma > 0.0,
                 "annealing step_sigma must be > 0, got " << config_.step_sigma);
  MARS_CHECK_ARG(config_.moves_per_step >= 1,
                 "annealing moves_per_step must be >= 1, got "
                     << config_.moves_per_step);
  MARS_CHECK_ARG(config_.chains >= 1,
                 "annealing chains must be >= 1, got " << config_.chains);
  MARS_CHECK_ARG(config_.threads >= 1,
                 "annealing threads must be >= 1, got " << config_.threads);
}

std::string AnnealingEngine::spec_string() const {
  std::ostringstream os;
  os << "anneal[iters=" << config_.iterations
     << ",t0=" << config_.initial_temperature
     << ",tend=" << config_.final_temperature
     << ",sigma=" << config_.step_sigma << ",moves=" << config_.moves_per_step
     << ",chains=" << config_.chains << ",seedbase=" << config_.seed_baseline
     << ",refine=" << config_.refine_winner
     << ",heur=" << config_.heuristic_candidates << ',';
  append_second(os, config_.second);
  os << ",seed=" << config_.seed << ']';
  return os.str();
}

std::unique_ptr<SearchEngine> AnnealingEngine::with_threads(
    int threads) const {
  AnnealConfig config = config_;
  config.threads = threads;
  return std::make_unique<AnnealingEngine>(config);
}

PlanResult AnnealingEngine::search(const core::Problem& problem,
                                   const Budget& budget,
                                   const ProgressFn& progress) const {
  BudgetMeter meter(budget);
  const obs::ScopedWallSpan span("plan", "search anneal");
  core::SkeletonSpace space(problem,
                            {config_.second, config_.heuristic_candidates});
  const core::FirstLevelCodec& codec = space.codec();
  util::WorkerPool pool(config_.threads);
  Rng master(config_.seed);
  const std::vector<double> scores = space.design_scores();

  // One independent Metropolis chain per config_.chains, each with its
  // own forked RNG stream — so a chain's draws never depend on how its
  // siblings' evaluations were scheduled, which is what keeps results
  // byte-identical at any thread count. Under an evaluation budget
  // smaller than the chain count, only the first `budget` chains start
  // (the profiled-random start cohort is one evaluation per chain), so
  // even initialisation never overdraws.
  int chains = config_.chains;
  if (!config_.seed_baseline && budget.max_evaluations > 0) {
    chains = static_cast<int>(std::min<long long>(
        chains, std::max<long long>(1, budget.max_evaluations)));
  }
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(chains));
  for (int c = 0; c < chains; ++c) rngs.push_back(master.fork());

  std::vector<ga::Genome> current(static_cast<std::size_t>(chains));
  std::vector<double> current_fitness(static_cast<std::size_t>(chains));
  long long evaluations = 0;
  if (config_.seed_baseline) {
    // All chains start from the baseline skeleton: one evaluation, shared.
    const ga::Genome start = codec.encode(space.baseline(), scores);
    const double fitness =
        space.fitness_batch(std::vector<ga::Genome>{start}, pool).front();
    evaluations = 1;
    for (int c = 0; c < chains; ++c) {
      current[static_cast<std::size_t>(c)] = start;
      current_fitness[static_cast<std::size_t>(c)] = fitness;
    }
  } else {
    std::vector<ga::Genome> starts;
    starts.reserve(static_cast<std::size_t>(chains));
    for (int c = 0; c < chains; ++c) {
      starts.push_back(
          codec.profiled_random(scores, rngs[static_cast<std::size_t>(c)]));
    }
    current_fitness = space.fitness_batch(starts, pool);
    current = std::move(starts);
    evaluations = chains;
  }

  std::size_t best_chain = 0;
  for (std::size_t c = 1; c < current_fitness.size(); ++c) {
    if (current_fitness[c] < current_fitness[best_chain]) best_chain = c;
  }
  ga::Genome best = current[best_chain];
  double best_fitness = current_fitness[best_chain];
  std::vector<double> history{best_fitness};

  int step = 0;
  for (; step < config_.iterations; ++step) {
    if (meter.exhausted(evaluations)) break;
    // Geometric cooling from t0 to tend across the configured schedule.
    const double fraction =
        config_.iterations > 1
            ? static_cast<double>(step) / (config_.iterations - 1)
            : 1.0;
    const double temperature =
        config_.initial_temperature *
        std::pow(config_.final_temperature / config_.initial_temperature,
                 fraction);

    // This step's cohort: one proposal per chain, truncated to the first
    // k chains when the evaluation budget has fewer than `chains` left
    // (keeps the budget exact, like the serial engine).
    std::size_t active = static_cast<std::size_t>(chains);
    if (budget.max_evaluations > 0) {
      active = static_cast<std::size_t>(
          std::min<long long>(static_cast<long long>(active),
                              budget.max_evaluations - evaluations));
    }
    // Each proposal is its chain's current genome plus moves_per_step
    // clamped gaussian gene edits.
    std::vector<ga::Genome> proposals;
    proposals.reserve(active);
    for (std::size_t c = 0; c < active; ++c) {
      ga::Genome proposal = current[c];
      for (int m = 0; m < config_.moves_per_step; ++m) {
        const std::size_t gene = rngs[c].index(proposal.size());
        proposal[gene] = std::clamp(
            proposal[gene] + rngs[c].gaussian(0.0, config_.step_sigma), 0.0,
            1.0);
      }
      proposals.push_back(std::move(proposal));
    }
    const std::vector<double> proposal_fitness =
        space.fitness_batch(proposals, pool);
    evaluations += static_cast<long long>(active);

    for (std::size_t c = 0; c < active; ++c) {
      // Metropolis on the relative regression: scale-free across models.
      const double delta = (proposal_fitness[c] - current_fitness[c]) /
                           std::max(current_fitness[c], 1e-30);
      if (proposal_fitness[c] <= current_fitness[c] ||
          rngs[c].chance(std::exp(-delta / temperature))) {
        current[c] = std::move(proposals[c]);
        current_fitness[c] = proposal_fitness[c];
      }
      if (current_fitness[c] < best_fitness) {
        best = current[c];
        best_fitness = current_fitness[c];
      }
    }
    history.push_back(best_fitness);
    if (step % kProgressStride == 0) {
      trace_progress("anneal", evaluations, best_fitness);
      if (obs::TraceRecorder* rec = obs::trace()) {
        // Per-chain current-fitness lanes: shows which chains are stuck
        // at which temperature.
        const Seconds now = rec->wall_now();
        for (std::size_t c = 0; c < current_fitness.size(); ++c) {
          rec->counter(obs::Clock::kWall, "anneal chain " + std::to_string(c),
                       now, current_fitness[c]);
        }
      }
      if (progress) progress({evaluations, best_fitness, meter.elapsed()});
    }
  }

  return finish(space, space.complete(codec.decode(best)),
                config_.refine_winner, master, std::move(history),
                leaf_provenance(name(), spec_string(), evaluations, step,
                                meter.reason()),
                meter);
}

// ------------------------------------------------------------- RandomEngine

RandomEngine::RandomEngine(RandomConfig config) : config_(std::move(config)) {
  ga::validate_config(config_.second.ga);
  MARS_CHECK_ARG(config_.samples >= 1,
                 "random-search samples must be >= 1, got " << config_.samples);
  MARS_CHECK_ARG(
      config_.profiled_fraction >= 0.0 && config_.profiled_fraction <= 1.0,
      "random-search profiled_fraction must be in [0, 1], got "
          << config_.profiled_fraction);
  MARS_CHECK_ARG(config_.threads >= 1,
                 "random-search threads must be >= 1, got "
                     << config_.threads);
}

std::string RandomEngine::spec_string() const {
  std::ostringstream os;
  os << "random[samples=" << config_.samples
     << ",profiled=" << config_.profiled_fraction
     << ",seedbase=" << config_.seed_baseline
     << ",refine=" << config_.refine_winner
     << ",heur=" << config_.heuristic_candidates << ',';
  append_second(os, config_.second);
  os << ",seed=" << config_.seed << ']';
  return os.str();
}

std::unique_ptr<SearchEngine> RandomEngine::with_threads(int threads) const {
  RandomConfig config = config_;
  config.threads = threads;
  return std::make_unique<RandomEngine>(config);
}

PlanResult RandomEngine::search(const core::Problem& problem,
                                const Budget& budget,
                                const ProgressFn& progress) const {
  BudgetMeter meter(budget);
  const obs::ScopedWallSpan span("plan", "search random");
  core::SkeletonSpace space(problem,
                            {config_.second, config_.heuristic_candidates});
  const core::FirstLevelCodec& codec = space.codec();
  util::WorkerPool pool(config_.threads);
  Rng rng(config_.seed);
  const std::vector<double> scores = space.design_scores();

  ga::Genome best;
  double best_fitness = std::numeric_limits<double>::infinity();
  long long evaluations = 0;
  std::vector<double> history;

  // Samples are drawn serially (one RNG stream, same order as a serial
  // sweep) but priced in batches of kProgressStride. The batch size is
  // clamped to the remaining evaluation budget — never derived from the
  // thread count — so budget honouring stays exact and results are
  // byte-identical at any `threads`. The first batch is the seed point
  // alone: a pre-cancelled search still returns a valid mapping having
  // spent exactly one evaluation.
  int drawn = 0;
  while (drawn < config_.samples) {
    if (drawn > 0 && meter.exhausted(evaluations)) break;
    long long batch_size =
        std::min<long long>(kProgressStride, config_.samples - drawn);
    if (drawn == 0) batch_size = 1;
    if (budget.max_evaluations > 0) {
      batch_size =
          std::min(batch_size, budget.max_evaluations - evaluations);
    }
    MARS_CHECK(batch_size >= 1, "random-search batch underflow");

    std::vector<ga::Genome> samples;
    samples.reserve(static_cast<std::size_t>(batch_size));
    for (long long i = 0; i < batch_size; ++i) {
      if (drawn + i == 0 && config_.seed_baseline) {
        samples.push_back(codec.encode(space.baseline(), scores));
      } else if (rng.chance(config_.profiled_fraction)) {
        samples.push_back(codec.profiled_random(scores, rng));
      } else {
        samples.push_back(
            ga::random_genome(codec.genome_size(), 0.0, 1.0, rng));
      }
    }
    const std::vector<double> fitnesses = space.fitness_batch(samples, pool);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ++evaluations;
      if (fitnesses[i] < best_fitness) {
        best = std::move(samples[i]);
        best_fitness = fitnesses[i];
      }
      history.push_back(best_fitness);
    }
    drawn += static_cast<int>(batch_size);
    trace_progress("random", evaluations, best_fitness);
    if (progress) {
      progress({evaluations, best_fitness, meter.elapsed()});
    }
  }

  return finish(space, space.complete(codec.decode(best)),
                config_.refine_winner, rng, std::move(history),
                leaf_provenance(name(), spec_string(), evaluations, drawn,
                                meter.reason()),
                meter);
}

// ----------------------------------------------------------- BaselineEngine

std::unique_ptr<SearchEngine> BaselineEngine::with_threads(int threads) const {
  MARS_CHECK_ARG(threads >= 1, "threads must be >= 1, got " << threads);
  return std::make_unique<BaselineEngine>();
}

PlanResult BaselineEngine::search(const core::Problem& problem,
                                  const Budget& budget,
                                  const ProgressFn& progress) const {
  BudgetMeter meter(budget);
  const obs::ScopedWallSpan span("plan", "search baseline");
  const accel::ProfileMatrix profile(*problem.designs, *problem.spine);
  PlanResult result;
  result.mapping = core::baseline_mapping(problem, profile);
  result.summary = core::MappingEvaluator(problem).evaluate(result.mapping);
  result.history = {result.summary.analytic_makespan.count()};
  if (progress) {
    progress({0, result.summary.analytic_makespan.count(), meter.elapsed()});
  }
  result.provenance =
      leaf_provenance(name(), spec_string(), 0, 0, StopReason::kCompleted);
  result.provenance.elapsed = meter.elapsed();
  return result;
}

// ---------------------------------------------------------- PortfolioEngine

PortfolioEngine::PortfolioEngine(
    std::vector<std::unique_ptr<SearchEngine>> members, Seconds member_wall)
    : members_(std::move(members)), member_wall_(member_wall) {
  MARS_CHECK_ARG(members_.size() >= 2,
                 "portfolio needs >= 2 member engines, got "
                     << members_.size());
  for (const std::unique_ptr<SearchEngine>& member : members_) {
    MARS_CHECK_ARG(member != nullptr, "portfolio member engine is null");
  }
}

std::string PortfolioEngine::spec_string() const {
  std::ostringstream os;
  os << "portfolio[";
  if (member_wall_.count() > 0.0) {
    os << "member_wall_ms=" << member_wall_.count() * 1e3 << ',';
  }
  os << "members=";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    os << (i > 0 ? ";" : "") << members_[i]->spec_string();
  }
  os << ']';
  return os.str();
}

int PortfolioEngine::threads() const {
  int most = 1;
  for (const std::unique_ptr<SearchEngine>& member : members_) {
    most = std::max(most, member->threads());
  }
  return most;
}

std::unique_ptr<SearchEngine> PortfolioEngine::with_threads(int threads) const {
  std::vector<std::unique_ptr<SearchEngine>> members;
  members.reserve(members_.size());
  for (const std::unique_ptr<SearchEngine>& member : members_) {
    members.push_back(member->with_threads(threads));
  }
  return std::make_unique<PortfolioEngine>(std::move(members), member_wall_);
}

PlanResult PortfolioEngine::search(const core::Problem& problem,
                                   const Budget& budget,
                                   const ProgressFn& progress) const {
  BudgetMeter meter(budget);
  const obs::ScopedWallSpan span("plan", "search portfolio");
  Provenance provenance;
  provenance.engine = name();
  provenance.spec = spec_string();

  PlanResult best;
  bool have_result = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    // The first member always races (its engine returns a valid mapping
    // even pre-cancelled); later members only start while budget remains.
    if (i > 0 && meter.exhausted(provenance.evaluations)) break;

    // This member's slice: the remaining budget, divided evenly over the
    // members not yet raced — a member that finishes under its slice
    // donates the leftovers to those after it.
    const auto remaining_members =
        static_cast<long long>(members_.size() - i);
    Budget slice;
    slice.cancel = budget.cancel;
    slice.clock = budget.clock;
    if (budget.max_evaluations > 0) {
      slice.max_evaluations =
          std::max<long long>(1, (budget.max_evaluations -
                                  provenance.evaluations) /
                                     remaining_members);
    }
    if (budget.wall_clock.count() > 0.0) {
      const double remaining_s =
          std::max(0.0, (budget.wall_clock - meter.elapsed()).count());
      // Keep the limit armed even when overdrawn (0 would mean "off").
      slice.wall_clock = Seconds(
          std::max(remaining_s / static_cast<double>(remaining_members),
                   1e-9));
    }
    if (member_wall_.count() > 0.0 &&
        (slice.wall_clock.count() <= 0.0 || member_wall_ < slice.wall_clock)) {
      slice.wall_clock = member_wall_;
    }

    ProgressFn member_progress;
    if (progress) {
      const long long offset = provenance.evaluations;
      member_progress = [&, offset](const Progress& update) {
        progress({offset + update.evaluations, update.best_fitness,
                  meter.elapsed()});
      };
    }
    obs::TraceRecorder* rec = obs::trace();
    const Seconds member_start =
        rec != nullptr ? rec->wall_now() : Seconds(0.0);
    PlanResult raced = members_[i]->search(problem, slice, member_progress);
    if (rec != nullptr) {
      // One wall span per raced member on the thread's "plan" track, so
      // a portfolio run renders as back-to-back member slices.
      rec->complete(obs::Clock::kWall,
                    rec->thread_track(obs::Clock::kWall, "plan"),
                    "member " + raced.provenance.engine, member_start,
                    rec->wall_now() - member_start,
                    {{"evaluations",
                      JsonValue::integer(raced.provenance.evaluations)}});
    }
    provenance.evaluations += raced.provenance.evaluations;
    provenance.iterations += raced.provenance.iterations;
    provenance.members.push_back(raced.provenance);
    if (!have_result ||
        raced.summary.analytic_makespan < best.summary.analytic_makespan) {
      provenance.winner = provenance.members.back().engine;
      best = std::move(raced);
      have_result = true;
    }
  }

  // The overall stop reason: whichever shared limit (if any) has fired by
  // the end of the race — members stopping at their own slices is normal
  // completion, visible per member under provenance.members.
  (void)meter.exhausted(provenance.evaluations);
  provenance.stopped = meter.reason();
  provenance.elapsed = meter.elapsed();
  best.provenance = std::move(provenance);
  return best;
}

// ---------------------------------------------------------------- factory

namespace {

/// A leaf (non-composite) engine by name; nullptr when `name` is unknown.
std::unique_ptr<SearchEngine> make_leaf_engine(
    const std::string& name, const core::MarsConfig& tuning) {
  // Evaluation-fair schedules: anneal/random get the GA's worst-case
  // evaluation count (population x generations) so a budgetless
  // engine-comparison sweep compares equals.
  const long long ga_evaluations =
      static_cast<long long>(std::max(1, tuning.first_ga.population)) *
      std::max(1, tuning.first_ga.generations);
  if (name == "ga" || name == "mars") {
    return std::make_unique<GaEngine>(tuning);
  }
  if (name == "anneal") {
    AnnealConfig config;
    config.second = tuning.second;
    config.heuristic_candidates = tuning.heuristic_candidates;
    config.refine_winner = tuning.refine_winner;
    config.seed_baseline = tuning.seed_baseline;
    config.iterations = static_cast<int>(
        std::min<long long>(ga_evaluations, 1 << 20));
    config.seed = tuning.seed;
    config.threads = tuning.threads;
    return std::make_unique<AnnealingEngine>(config);
  }
  if (name == "random") {
    RandomConfig config;
    config.second = tuning.second;
    config.heuristic_candidates = tuning.heuristic_candidates;
    config.refine_winner = tuning.refine_winner;
    config.seed_baseline = tuning.seed_baseline;
    config.samples = static_cast<int>(
        std::min<long long>(ga_evaluations, 1 << 20));
    config.seed = tuning.seed;
    config.threads = tuning.threads;
    return std::make_unique<RandomEngine>(config);
  }
  if (name == "baseline") {
    return std::make_unique<BaselineEngine>();
  }
  return nullptr;
}

/// "race:<m>[@seed]+<m>[@seed][+...][,MS]" -> a PortfolioEngine over named
/// leaf members with an optional per-member wall-clock cap. A member may
/// pin its own RNG seed with `@<seed>` (e.g. race:ga@7+anneal@9,250):
/// members without one inherit the session seed. The seed lands in the
/// member's spec_string(), so two races differing only in member seeds
/// get distinct serve-cache fingerprints.
std::unique_ptr<SearchEngine> make_race_engine(
    const std::string& spec, const core::MarsConfig& tuning) {
  const std::string body = spec.substr(std::string("race:").size());
  std::vector<std::string> parts = split(body, ',');
  MARS_CHECK_ARG(!parts.empty() && parts.size() <= 2,
                 "bad race spec '"
                     << spec << "' (use race:<m>[@seed]+<m>[@seed][+...][,MS])");
  Seconds member_wall(0.0);
  if (parts.size() == 2) {
    const std::optional<double> ms = parse_double(parts[1]);
    MARS_CHECK_ARG(ms && *ms > 0.0,
                   "race per-member budget must be a positive ms count, got '"
                       << parts[1] << "' in '" << spec << "'");
    member_wall = milliseconds(*ms);
  }
  std::vector<std::unique_ptr<SearchEngine>> members;
  for (const std::string& member : split(parts[0], '+')) {
    std::string leaf = member;
    core::MarsConfig member_tuning = tuning;
    const std::size_t at = member.find('@');
    if (at != std::string::npos) {
      leaf = member.substr(0, at);
      const std::string seed_text = member.substr(at + 1);
      const std::optional<std::uint64_t> seed = parse_u64(seed_text);
      MARS_CHECK_ARG(seed.has_value(),
                     "race member seed must be a non-negative integer, got '"
                         << seed_text << "' in member '" << member << "' of '"
                         << spec << "'");
      member_tuning.seed = *seed;
    }
    std::unique_ptr<SearchEngine> engine = make_leaf_engine(leaf, member_tuning);
    MARS_CHECK_ARG(engine != nullptr,
                   "unknown race member '"
                       << leaf << "' in '" << spec
                       << "' (members are leaf engines: ga | anneal | "
                          "random | baseline)");
    members.push_back(std::move(engine));
  }
  MARS_CHECK_ARG(members.size() >= 2, "race spec '"
                                          << spec
                                          << "' needs >= 2 members, got "
                                          << members.size());
  return std::make_unique<PortfolioEngine>(std::move(members), member_wall);
}

}  // namespace

const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {"ga", "anneal", "random",
                                                 "baseline", "portfolio"};
  return names;
}

std::unique_ptr<SearchEngine> make_engine(const std::string& name,
                                          const core::MarsConfig& tuning) {
  if (name == "portfolio") {
    // The default race: every searching engine under one budget.
    std::vector<std::unique_ptr<SearchEngine>> members;
    for (const char* member : {"ga", "anneal", "random"}) {
      members.push_back(make_leaf_engine(member, tuning));
    }
    return std::make_unique<PortfolioEngine>(std::move(members));
  }
  if (name.rfind("race:", 0) == 0) {
    return make_race_engine(name, tuning);
  }
  if (std::unique_ptr<SearchEngine> engine = make_leaf_engine(name, tuning)) {
    return engine;
  }
  std::ostringstream os;
  os << "unknown search engine '" << name << "' (use ";
  for (std::size_t i = 0; i < engine_names().size(); ++i) {
    os << (i > 0 ? " | " : "") << engine_names()[i];
  }
  os << " | race:<m>[@seed]+<m>[@seed][+...][,MS])";
  throw InvalidArgument(os.str());
}

}  // namespace mars::plan
