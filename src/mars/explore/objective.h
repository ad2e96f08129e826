// Vector-valued fitness for the hardware co-search, and the pricer that
// turns a HardwarePoint into an objective vector.
//
// Every objective is a cost (minimised):
//   makespan — the inner mapping search's analytic critical path (s),
//   energy   — AnalyticalCostModel::mapping_energy of the winner (J),
//   cost     — relative hardware cost of the point (hardware_cost below).
//
// PointPricer owns the expensive part: one inner plan::SearchEngine run
// per distinct hardware point. Each price() call is one util::MemoBatch
// sweep keyed by point spec — serial dedupe against the memo, the distinct
// misses priced on a util::WorkerPool, outcomes published in first-seen
// order — so priced outcomes (and everything derived from them) are
// byte-identical at any --threads. An optional serve::MappingCache
// composes transparently: each point is keyed by MappingCache::key, the
// one key function serve, comap and warm use too, so explore warms the
// same cache it reads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mars/explore/front.h"
#include "mars/explore/space.h"
#include "mars/plan/budget.h"
#include "mars/plan/engine.h"
#include "mars/serve/cache.h"
#include "mars/util/memo_batch.h"
#include "mars/util/worker_pool.h"

namespace mars::explore {

enum class Objective { kMakespan, kEnergy, kCost };

[[nodiscard]] std::string to_string(Objective objective);

/// Parses a comma-separated objective list ("makespan,energy,cost").
/// Throws InvalidArgument naming the offending value on an unknown name,
/// a duplicate, or an empty list.
[[nodiscard]] std::vector<Objective> parse_objectives(const std::string& text);

/// Canonical '+'-joined rendering for spec strings.
[[nodiscard]] std::string objectives_spec(const std::vector<Objective>& objectives);

/// Hardware cost constants (docs/EXPLORE.md): each card pays a board
/// baseline plus the worst-case area of any design it may be configured
/// into; each direct link pays per provisioned Gb/s. Host connectivity
/// is baseline infrastructure shared by every point, hence free.
inline constexpr double kCardBaseCost = 1.0;
inline constexpr double kLinkCostPerGbps = 0.02;

/// Relative hardware cost of one built point (deterministic, closed
/// form: cards x (base + max menu area) + sum of direct-link Gb/s).
[[nodiscard]] double hardware_cost(const BuiltPoint& built);

/// Everything measured for one priced hardware point. The objective
/// fields are pure functions of (model, point, inner-engine spec);
/// `from_cache` and `evaluations` describe this run and belong on
/// stderr, never in the exported front.
struct PointOutcome {
  HardwarePoint point;
  double makespan_s = 0.0;  // analytic critical path of the winner
  double energy_j = 0.0;    // mapping_energy of the winner
  double cost = 0.0;        // hardware_cost of the point
  int sets = 0;             // winner's accelerator-set count
  bool memory_ok = true;
  std::string engine;          // inner engine name
  std::string search_spec;     // inner engine identity incl. budget
  std::string mapping_digest;  // FNV-1a over the winner's rendering
  bool from_cache = false;
  long long evaluations = 0;  // inner search evaluations (0 on cache hit)

  [[nodiscard]] double objective(Objective objective) const;
  [[nodiscard]] FrontPoint front_point(
      const std::vector<Objective>& objectives) const;
};

class PointPricer {
 public:
  /// Keeps references to everything; the caller owns their lifetimes.
  /// `inner` must be a searching engine whose search() is const and
  /// thread-safe (all plan engines are); inner searches run single-
  /// threaded, the pricer parallelises across points instead.
  PointPricer(std::string model, const DesignSpace& space,
              const plan::SearchEngine& inner, plan::Budget inner_budget,
              const serve::MappingCache* cache, util::WorkerPool& pool);

  /// Prices every not-yet-memoised spec among `indices` (points() index)
  /// and returns one outcome pointer per input index, in input order.
  /// Pointers stay valid for the pricer's lifetime. Duplicate indices
  /// (and distinct indices sharing a spec) price once.
  std::vector<const PointOutcome*> price(const std::vector<int>& indices);

  /// Outcomes in first-priced order (the publish order).
  [[nodiscard]] const std::vector<const PointOutcome*>& priced() const {
    return order_;
  }
  /// Distinct points priced so far — the explore budget unit.
  [[nodiscard]] long long priced_count() const {
    return static_cast<long long>(order_.size());
  }
  [[nodiscard]] long long cache_hits() const { return cache_hits_; }

 private:
  [[nodiscard]] PointOutcome price_one(const HardwarePoint& point) const;

  std::string model_;
  const DesignSpace* space_;
  const plan::SearchEngine* inner_;
  plan::Budget inner_budget_;
  const serve::MappingCache* cache_;
  util::WorkerPool& pool_;
  using Memo = util::MemoBatch<std::string, PointOutcome, const HardwarePoint*>;
  Memo memo_;  // by point spec
  std::vector<const PointOutcome*> order_;
  long long cache_hits_ = 0;
};

}  // namespace mars::explore
