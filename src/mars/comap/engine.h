// CoMapEngine: joint co-mapping search over the tenant set.
//
// The engine keeps the plan::SearchEngine interface *shape* — a name, a
// canonical spec_string, and a search(problem, Budget, progress) that
// honours evaluation/wall/cancel budgets cooperatively and reports
// Provenance — but takes a CoMapProblem (the tenant set) instead of one
// core::Problem, and returns one mapping per tenant. Budgets,
// cancellation, provenance, and MappingCache fingerprinting therefore
// compose exactly as they do for the single-model engines.
//
// Two composite genome encodings, both priced by the same
// ServingObjective rollout fitness:
//
//   partition   T + 1 genes. Largest-remainder split of the fleet into
//               contiguous accelerator-id ranges — one per tenant (at
//               least one accelerator each) plus an optional trailing
//               shared pool every tenant may also use. Each tenant's
//               mapping is then planned *within* its slice (own range u
//               shared pool) by the inner plan::GaEngine through
//               core::Problem::placement; inner plans are memoised per
//               (tenant, slice) in a util::MemoBatch and composed with the
//               MappingCache under the ";placement=<hex>" search-spec
//               identity.
//
//   interleave  Concatenation of the tenants' first-level skeleton
//               genomes on the full fleet (one FirstLevelCodec slice per
//               tenant, second level memoised per tenant via
//               core::SkeletonSpace). The tenants' independently searched
//               skeletons seed the population, so the joint search starts
//               from — and can only improve on — the independent answer.
//
// The independent answer (every tenant planned alone on the full fleet)
// is always priced explicitly as evaluation #1, and the returned result
// is the better of it and the GA winner: a co-mapping never loses to
// independent planning under the rollout objective, by construction.
//
// Determinism: the outer GA's genome stream is independent of evaluation
// (ga::GaEngine contract). One WorkerPool of `threads` runs both pricing
// steps of a batch, each a util::MemoBatch sweep: first the inner plans
// (every genome's (tenant, slice) keys probed in genome order, the new
// ones searched in parallel, each search single-threaded and so
// byte-identical to a serial one; mapping-cache loads stay in the serial
// probe and stores in first-seen order after the searches), then the
// rollouts through ServingObjective::score_batch. The independent plans
// and the single-genome paths go through the same sweeps. Mappings,
// scores and every memo counter are byte-identical at any `threads`,
// which is why `threads` (like everywhere else) never appears in the
// spec_string. (Interleave's per-tenant second level still completes
// candidates serially.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mars/comap/objective.h"
#include "mars/comap/problem.h"
#include "mars/core/mars.h"
#include "mars/plan/budget.h"
#include "mars/plan/engine.h"
#include "mars/serve/cache.h"

namespace mars::comap {

enum class Encoding : std::uint8_t { kPartition, kInterleave };

/// Parses "partition" | "interleave" (named-value error otherwise).
[[nodiscard]] Encoding parse_encoding(const std::string& spec);
[[nodiscard]] std::string to_string(Encoding encoding);

struct CoMapConfig {
  Encoding encoding = Encoding::kPartition;
  /// Outer GA over the composite genome. Rollouts are far costlier than
  /// skeleton pricing, so the default schedule is much smaller than the
  /// single-model GA's.
  ga::GaConfig ga{.population = 16, .generations = 10, .stall_generations = 6};
  /// Inner per-tenant mapping search (partition slices, interleave second
  /// level, and the independent baseline all use it).
  core::MarsConfig inner;
  std::uint64_t seed = 1;
  /// Threads of the one util::WorkerPool that runs both the inner plans
  /// (each search single-threaded, whatever `inner.threads` says) and the
  /// rollouts. Purely an execution knob — byte-identical results at any
  /// value — so it is NOT part of spec_string(), matching every other
  /// engine.
  int threads = 1;
};

/// Throws util::InvalidArgument (naming the bad field) when either GA
/// level cannot drive a search.
void validate_config(const CoMapConfig& config);

/// Per-tenant outcome: where the tenant's mapping may run and how it was
/// found. `placement` of 0 means the whole fleet (interleave and the
/// independent fallback); partition winners carry their slice mask, which
/// flows into `serve --shards` / ModelService placements downstream.
struct TenantOutcome {
  std::string model;
  topology::AccMask placement = 0;
  plan::Provenance provenance;
};

struct CoMapResult {
  /// One mapping per tenant, tenant order.
  std::vector<core::Mapping> mappings;
  std::vector<TenantOutcome> tenants;
  /// Winner / explicit-independent rollout detail (same objective).
  ServingObjective::Score score;
  ServingObjective::Score independent_score;
  /// True when the joint search strictly beat independent planning.
  bool joint_won = false;
  /// Best fitness after each outer generation.
  std::vector<double> history;
  /// Engine-level provenance; `members` holds the winner's per-tenant
  /// records (inner-search provenance for partition/independent).
  plan::Provenance provenance;
  long long rollout_hits = 0;
  long long rollout_misses = 0;
  /// Inner-plan memo counters (`comap.inner.*`): a miss is one distinct
  /// (tenant, slice) plan made, by search or mapping-cache load.
  long long inner_hits = 0;
  long long inner_misses = 0;
};

class CoMapEngine {
 public:
  explicit CoMapEngine(CoMapConfig config = {});

  [[nodiscard]] std::string name() const { return "comap"; }
  [[nodiscard]] bool searches() const { return true; }
  /// Canonical identity: encoding, outer-GA knobs, seed, and the inner
  /// engine's full spec. Rollout parameters live in the problem (like the
  /// model does for single-tenant engines), not here.
  [[nodiscard]] std::string spec_string() const;

  /// Runs the joint search. `cache` (optional) composes with the inner
  /// per-tenant searches exactly as serve::ModelService does: slice
  /// searches key under the ";placement=<hex>" suffixed spec, full-fleet
  /// (independent) searches keep their historical identity, and cancelled
  /// inner searches are never stored.
  [[nodiscard]] CoMapResult search(const CoMapProblem& problem,
                                   const plan::Budget& budget = {},
                                   const serve::MappingCache* cache = nullptr,
                                   const plan::ProgressFn& progress = {}) const;

  [[nodiscard]] const CoMapConfig& config() const { return config_; }

 private:
  CoMapConfig config_;
};

/// The partition decode, exposed for tests: largest-remainder counts from
/// the T + 1 share genes (each tenant gets >= 1 of the fleet's `accs`
/// accelerators, the trailing bucket is the shared pool, possibly empty),
/// then contiguous id ranges in tenant order. Returned masks are each
/// tenant's slice INCLUDING the shared pool.
[[nodiscard]] std::vector<topology::AccMask> decode_partition_genome(
    const std::vector<double>& genome, std::size_t num_tenants, int accs);

}  // namespace mars::comap
