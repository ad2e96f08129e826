#include "mars/comap/objective.h"

#include <utility>

#include "mars/core/evaluator.h"
#include "mars/serve/metrics.h"
#include "mars/serve/workload.h"
#include "mars/sim/executor.h"
#include "mars/util/error.h"
#include "mars/util/hash.h"

namespace mars::comap {

ServingObjective::ServingObjective(const CoMapProblem& problem)
    : problem_(&problem),
      rollout_hits_(&metrics_.counter("comap.rollout.hits")),
      rollout_misses_(&metrics_.counter("comap.rollout.misses")),
      proto_hits_(&metrics_.counter("comap.proto.hits")),
      proto_misses_(&metrics_.counter("comap.proto.misses")),
      artifacts_(proto_hits_, proto_misses_),
      rollouts_(rollout_hits_, rollout_misses_) {
  problem.validate();
  planners_.reserve(problem.tenants.size());
  slos_.reserve(problem.tenants.size());
  for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
    planners_.push_back(plan::Planner::for_model(problem.tenants[t].model,
                                                 *problem.topo,
                                                 *problem.designs,
                                                 problem.adaptive));
    slos_.push_back(problem.slo_of(t));
  }
  arrivals_ = serve::poisson_arrivals(problem.weights(), problem.rollout.rate,
                                      problem.rollout.duration,
                                      problem.rollout.seed);
  sched_options_.policy = problem.rollout.policy.batch;
  sched_options_.admission = problem.rollout.policy.admission;
  // slo: admission holds each tenant to its own objective, exactly as the
  // real fleet configured from the same tenant specs would.
  sched_options_.admission.per_model_slo = slos_;
  sched_options_.sim = planners_.front().problem().sim_params;
  sched_options_.quiet = true;
}

ServingObjective::~ServingObjective() {
  if (obs::MetricsRegistry* global = obs::metrics()) {
    metrics_.flush_to(*global);
  }
}

const plan::Planner& ServingObjective::planner(std::size_t t) const {
  MARS_CHECK_ARG(t < planners_.size(),
                 "tenant index " << t << " outside the tenant set");
  return planners_[t];
}

Seconds ServingObjective::slo(std::size_t t) const {
  MARS_CHECK_ARG(t < slos_.size(),
                 "tenant index " << t << " outside the tenant set");
  return slos_[t];
}

std::uint64_t ServingObjective::mapping_signature(
    std::size_t t, const core::Mapping& mapping) const {
  // Bytewise FNV-1a over fixed-width fields, with every list prefixed by
  // its length, so the byte stream encodes the mapping unambiguously.
  // Fixed-design fleets ignore the design id, as the serialised form does.
  const auto field = [](auto value, std::uint64_t h) {
    return util::fnv1a_le(static_cast<std::uint32_t>(value), h);
  };
  std::uint64_t h = field(t, util::kLegacyFnvOffset);
  h = field(mapping.sets.size(), h);
  for (const core::LayerAssignment& set : mapping.sets) {
    h = util::fnv1a_le(set.accs, h);
    h = field(problem_->adaptive ? set.design : accel::kInvalidDesign, h);
    h = field(set.begin, h);
    h = field(set.end, h);
    h = field(set.strategies.size(), h);
    for (const parallel::Strategy& strategy : set.strategies) {
      h = field(strategy.es().size(), h);
      for (const parallel::DimSplit& split : strategy.es()) {
        h = field(split.dim, h);
        h = field(split.ways, h);
      }
      // 0 for no SS dim, else the dim + 1.
      h = field(strategy.has_ss() ? static_cast<int>(*strategy.ss()) + 1 : 0,
                h);
    }
  }
  return h;
}

const ServingObjective::Artifact& ServingObjective::artifact(
    std::size_t t, const core::Mapping& mapping, std::uint64_t signature) {
  return artifacts_.get({t, signature}, &mapping, [&](const core::Mapping* m) {
    const core::Problem& problem = planners_[t].problem();
    sim::FlatTaskGraph flat = sim::FlatTaskGraph::from(
        core::MappingEvaluator(problem).build_task_graph(*m));
    const sim::Executor executor(*problem_->topo, problem.sim_params);
    const Seconds single_latency = executor.run(flat).makespan;
    return Artifact{std::move(flat), single_latency};
  });
}

ServingObjective::Score ServingObjective::rollout(
    const std::vector<const Artifact*>& artifacts) const {
  std::vector<serve::ServedModel> models;
  models.reserve(artifacts.size());
  for (std::size_t t = 0; t < artifacts.size(); ++t) {
    models.push_back(serve::ServedModel{problem_->tenants[t].model,
                                        &artifacts[t]->flat,
                                        artifacts[t]->single_latency});
  }
  const serve::OnlineScheduler scheduler(*problem_->topo, std::move(models),
                                         sched_options_);
  const serve::ServeResult result = scheduler.run(arrivals_);

  Score score;
  score.offered = result.offered();
  score.completed = static_cast<int>(result.completed.size());
  score.rejected = static_cast<int>(result.rejected.size());
  std::vector<Seconds> latencies;
  latencies.reserve(result.completed.size());
  for (const serve::CompletedRequest& done : result.completed) {
    const Seconds latency = done.latency();
    latencies.push_back(latency);
    const auto m = static_cast<std::size_t>(done.request.model);
    if (m < slos_.size() && latency <= slos_[m]) ++score.good;
  }
  score.p99 = serve::LatencyStats::from_samples(std::move(latencies)).p99;
  // Integer-major objective: every request that missed its tenant's SLO
  // (shed ones included) costs 1; the p99 transform is bounded below 1,
  // so it only ever breaks goodput ties.
  const double tail =
      score.completed > 0 ? score.p99.count() / (1.0 + score.p99.count()) : 1.0;
  score.fitness = static_cast<double>(score.offered - score.good) + tail;
  return score;
}

ServingObjective::Score ServingObjective::score(const CandidatePlan& plan) {
  util::WorkerPool caller(1);
  return *score_all({&plan, 1}, caller).front();
}

std::vector<double> ServingObjective::score_batch(
    const std::vector<CandidatePlan>& plans, util::WorkerPool& pool) {
  std::vector<double> fitness;
  fitness.reserve(plans.size());
  for (const Score* score : score_all(plans, pool)) {
    fitness.push_back(score->fitness);
  }
  return fitness;
}

std::vector<const ServingObjective::Score*> ServingObjective::score_all(
    std::span<const CandidatePlan> plans, util::WorkerPool& pool) {
  // Signatures and artifacts are materialised during the serial probe (the
  // artifact memo mutates); the rollouts are the sweep's parallel step.
  RolloutMemo::Sweep sweep = rollouts_.sweep();
  std::vector<RolloutMemo::Ticket> tickets;
  tickets.reserve(plans.size());
  for (const CandidatePlan& plan : plans) {
    MARS_CHECK_ARG(plan.size() == planners_.size(),
                   "candidate carries " << plan.size() << " mappings for "
                                        << planners_.size() << " tenants");
    std::vector<const Artifact*> parts(plan.size());
    std::uint64_t combined = util::kLegacyFnvOffset;
    for (std::size_t t = 0; t < plan.size(); ++t) {
      const std::uint64_t sig = mapping_signature(t, plan[t]);
      parts[t] = &artifact(t, plan[t], sig);
      combined = util::fnv1a_le(sig, combined);
    }
    tickets.push_back(sweep.probe(combined, std::move(parts)));
  }
  sweep.resolve(pool, [this](const std::vector<const Artifact*>& parts) {
    return rollout(parts);
  });
  std::vector<const Score*> scores;
  scores.reserve(tickets.size());
  for (const RolloutMemo::Ticket& ticket : tickets) {
    scores.push_back(&sweep[ticket]);
  }
  return scores;
}

}  // namespace mars::comap
