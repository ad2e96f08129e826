// The serving-objective fitness: score a candidate co-mapping by rolling
// out the shared request stream against it.
//
// A candidate is one core::Mapping per tenant (however the engine encoded
// it — fleet partition or interleaved skeletons). ServingObjective turns
// the candidate into serve::ServedModel views (flat prototype graph +
// uncontended latency, built through the same MappingEvaluator /
// FlatTaskGraph path ModelService uses), replays the problem's seeded
// Poisson stream through a quiet serve::OnlineScheduler, and scores
//
//   fitness = (offered - slo_good) + p99 / (1 + p99)      (minimised)
//
// — the integer count of requests that missed their tenant's objective
// (shed requests included), tie-broken by a bounded-[0, 1) transform of
// the fleet p99 so equal-goodput candidates prefer the lower tail.
//
// Determinism contract: score_batch is one util::MemoBatch sweep keyed by
// candidate signature. Per-tenant artifacts are materialised during the
// serial probe; the deduped missing rollouts (each a pure function of its
// candidate + the shared arrival stream) are priced on the caller's
// util::WorkerPool and published in first-seen order, and score() is the
// same sweep over one candidate, priced on the calling thread. Fitness
// values AND the hit/miss counters are byte-identical at any thread count.
// Candidate identity combines each tenant's mapping_signature: an FNV-1a
// hash of the tenant and, per set, its accelerators, design, layer range and
// every strategy's ES (dim, ways) list and SS dim — the fields the lossless
// core/serialize.* form carries that vary within one tenant. Two
// structurally equal mappings therefore always share one rollout, and any
// differing field gives a different signature (modulo a 64-bit collision).
//
// Rollouts run with SchedulerOptions::quiet — a search replays thousands
// of candidate fleets; none of them may leak into the user's trace or
// metrics. The objective's own counters (comap.rollout.*, comap.proto.*)
// live in an instance registry flushed into the installed global registry
// on destruction, like SkeletonSpace and MappingCache.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mars/comap/problem.h"
#include "mars/obs/metrics.h"
#include "mars/plan/planner.h"
#include "mars/serve/scheduler.h"
#include "mars/sim/task_graph.h"
#include "mars/util/hash.h"
#include "mars/util/memo_batch.h"

namespace mars::comap {

/// One candidate co-mapping: mapping per tenant, in tenant order.
using CandidatePlan = std::vector<core::Mapping>;

class ServingObjective {
 public:
  /// Builds one plan::Planner per tenant (the graph -> spine -> Problem
  /// chain the rollout artifacts are evaluated against) and materialises
  /// the shared arrival stream once. `problem` must outlive this object.
  explicit ServingObjective(const CoMapProblem& problem);
  /// Flushes the instance metrics into the installed global registry.
  ~ServingObjective();

  ServingObjective(const ServingObjective&) = delete;
  ServingObjective& operator=(const ServingObjective&) = delete;

  /// What one rollout measured. `fitness` is the minimised objective
  /// above; the counts let reports speak goodput instead of raw fitness.
  struct Score {
    double fitness = 0.0;
    int offered = 0;
    int completed = 0;
    int good = 0;      // completions within their tenant's objective
    int rejected = 0;  // shed by rollout admission control
    Seconds p99{};     // fleet-wide completed-latency p99
    /// SLO-good completions per second of rollout duration.
    [[nodiscard]] double goodput_rps(Seconds duration) const {
      return duration.count() > 0.0 ? good / duration.count() : 0.0;
    }
  };

  /// Memoised single-candidate score (charges one rollout hit or miss),
  /// priced on the calling thread.
  [[nodiscard]] Score score(const CandidatePlan& plan);

  /// Memoised batch pricing: fitness per candidate, same order, with the
  /// missing rollouts priced across `pool`. See the determinism contract
  /// above.
  [[nodiscard]] std::vector<double> score_batch(
      const std::vector<CandidatePlan>& plans, util::WorkerPool& pool);

  [[nodiscard]] std::size_t num_tenants() const { return planners_.size(); }
  [[nodiscard]] const plan::Planner& planner(std::size_t t) const;
  [[nodiscard]] const std::vector<serve::Request>& arrivals() const {
    return arrivals_;
  }
  [[nodiscard]] Seconds slo(std::size_t t) const;

  /// The identity of tenant `t`'s mapping: equal mappings share it, and
  /// changing any field it hashes changes it (see the contract above).
  [[nodiscard]] std::uint64_t mapping_signature(
      std::size_t t, const core::Mapping& mapping) const;

  /// Rollout memo counters (`comap.rollout.*`): the batch contract is
  /// stated in terms of these two values.
  [[nodiscard]] long long rollout_hits() const { return rollout_hits_->value(); }
  [[nodiscard]] long long rollout_misses() const {
    return rollout_misses_->value();
  }
  /// Per-tenant artifact (prototype graph) memo counters (`comap.proto.*`).
  [[nodiscard]] long long proto_hits() const { return proto_hits_->value(); }
  [[nodiscard]] long long proto_misses() const {
    return proto_misses_->value();
  }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  /// The serving-side compile of one tenant mapping: what a ServedModel
  /// view points at. Memoised values never move, so the flat graph's
  /// address is stable across memo growth.
  struct Artifact {
    sim::FlatTaskGraph flat;
    Seconds single_latency{};
  };

  /// Artifact for (tenant, mapping), built on first use (charges a proto
  /// hit/miss). Serial-phase only: the memo mutates.
  [[nodiscard]] const Artifact& artifact(std::size_t t,
                                         const core::Mapping& mapping,
                                         std::uint64_t signature);
  /// The pure rollout: replays arrivals_ against the artifact set.
  [[nodiscard]] Score rollout(const std::vector<const Artifact*>& artifacts) const;
  /// One memo sweep over `plans`: the score of each, in order.
  [[nodiscard]] std::vector<const Score*> score_all(
      std::span<const CandidatePlan> plans, util::WorkerPool& pool);

  const CoMapProblem* problem_;
  std::vector<plan::Planner> planners_;
  std::vector<Seconds> slos_;
  std::vector<serve::Request> arrivals_;
  serve::SchedulerOptions sched_options_;

  obs::MetricsRegistry metrics_;
  obs::Counter* rollout_hits_;
  obs::Counter* rollout_misses_;
  obs::Counter* proto_hits_;
  obs::Counter* proto_misses_;

  /// (tenant, mapping-signature) -> compiled artifact.
  using ArtifactKey = std::pair<std::size_t, std::uint64_t>;
  struct ArtifactKeyHash {
    std::size_t operator()(const ArtifactKey& k) const {
      return util::fnv1a_word(k.first, k.second);
    }
  };
  util::MemoBatch<ArtifactKey, Artifact, const core::Mapping*, ArtifactKeyHash>
      artifacts_;
  /// Combined candidate signature -> rollout score, priced from the
  /// candidate's artifacts.
  using RolloutMemo =
      util::MemoBatch<std::uint64_t, Score, std::vector<const Artifact*>>;
  RolloutMemo rollouts_;
};

}  // namespace mars::comap
