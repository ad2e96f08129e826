// The first-level search space, factored out of the search algorithm.
//
// Every mapper that explores skeletons (the two-level GA, simulated
// annealing, random sampling) needs the same machinery: the profiled
// design scores, the AccSet candidate family, the genome codec, the
// memoised second-level strategy search that prices a skeleton, and the
// completion/polish steps that turn the winning skeleton into a full
// Mapping. SkeletonSpace owns all of it so search engines reduce to
// their acceptance rule.
//
// Ownership: a non-owning pointer to the Problem — the caller keeps the
// spine/topology/registry alive for this object's lifetime.
// fitness_batch() memoises per (layer range, AccSet, design), so sharing
// one SkeletonSpace across a search amortises second-level work.
//
// Parallelism: fitness_batch() is the only way to price a skeleton. It
// prices a batch as one util::MemoBatch sweep, fanning the uncached
// second-level searches across the caller's util::WorkerPool (a one-thread
// pool is the serial case). Results are the same at any thread count (the
// greedy oracle is a pure function of the cache key), and so are the
// hit/miss counters: the first appearance of a key in a batch is the miss,
// every later one a hit, exactly as a serial left-to-right sweep would
// count them.
//
// Sharing across searches: a SetPriceTable lent through
// Problem::set_prices sits under the memo. A memo miss asks the table,
// which runs greedy() once per key for every space that borrows it, on
// any thread. The memo, its counters and every fitness value are the
// same with or without a table.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mars/accel/profiler.h"
#include "mars/core/evaluator.h"
#include "mars/core/first_level.h"
#include "mars/core/second_level.h"
#include "mars/obs/metrics.h"
#include "mars/util/hash.h"
#include "mars/util/memo_batch.h"

namespace mars::core {

/// One second-level key: a layer range on an AccSet with a design.
struct SetKey {
  int begin;
  int end;
  topology::AccMask accs;
  accel::DesignId design;
  auto operator<=>(const SetKey&) const = default;

  [[nodiscard]] static SetKey of(const LayerAssignment& set) {
    return {set.begin, set.end, set.accs, set.design};
  }
};

/// Word-at-a-time FNV-1a over the key fields. Set memos are only ever
/// probed by key (never iterated), so hashing instead of ordering is
/// observable solely as speed.
struct SetKeyHash {
  std::size_t operator()(const SetKey& key) const {
    std::uint64_t h = util::fnv1a_word(static_cast<unsigned>(key.begin),
                                       util::kLegacyFnvOffset);
    h = util::fnv1a_word(static_cast<unsigned>(key.end), h);
    h = util::fnv1a_word(key.accs, h);
    return util::fnv1a_word(static_cast<unsigned>(key.design), h);
  }
};

/// A compute-once, thread-safe table from set key to penalized greedy
/// latency, shared by every SkeletonSpace that borrows it through
/// Problem::set_prices. It is bound to everything greedy() reads: the
/// spine, topology and design registry (by address), `adaptive`,
/// `sim_params`, and the second level's `enable_ss` and `max_es_dims`.
/// Placement is not part of the binding: only candidates and the codec
/// read it, so spaces on different fleet slices share one table.
///
/// Each key is priced once: the first lookup inserts its slot and runs
/// greedy() under the slot's once_flag, and concurrent lookups of the key
/// wait for that value. misses() is therefore the number of distinct keys
/// and hits() every other lookup, exactly, at any thread count. The table
/// grows with the distinct keys its borrowers price and never evicts, so
/// a lender scopes it to a bounded run of searches.
class SetPriceTable {
 public:
  SetPriceTable(const Problem& problem, const SecondLevelConfig& config);
  SetPriceTable(const SetPriceTable&) = delete;
  SetPriceTable& operator=(const SetPriceTable&) = delete;

  /// Throws InternalError (MARS_CHECK) unless `problem` and `config`
  /// price sets exactly as the table's binding does.
  void check_bound(const Problem& problem,
                   const SecondLevelConfig& config) const;

  /// `second.greedy(set).cost.penalized`, computed on the key's first
  /// lookup only. `second` must be built on a bound problem and config.
  [[nodiscard]] Seconds price(const LayerAssignment& set,
                              const SecondLevelSearch& second);

  [[nodiscard]] long long hits() const { return hits_.value(); }
  [[nodiscard]] long long misses() const { return misses_.value(); }

 private:
  struct Slot {
    std::once_flag priced;
    Seconds value{};
  };

  const graph::ConvSpine* spine_;
  const topology::Topology* topo_;
  const accel::DesignRegistry* designs_;
  bool adaptive_;
  sim::SimParams sim_params_;
  bool enable_ss_;
  int max_es_dims_;

  std::mutex mutex_;  // guards slots_; a slot's value is under its flag
  std::unordered_map<SetKey, Slot, SetKeyHash> slots_;  // node-based
  obs::Counter hits_;
  obs::Counter misses_;
};

class SkeletonSpace {
 public:
  struct Config {
    SecondLevelConfig second;
    /// Edge-removal/bisection AccSet candidates; when false (ablation A3)
    /// only the trivial family {full system} u {singletons} is offered.
    bool heuristic_candidates = true;
  };

  SkeletonSpace(const Problem& problem, const Config& config);
  /// Flushes the instance metrics into the installed global registry
  /// (obs::metrics()), when one is installed.
  ~SkeletonSpace();

  [[nodiscard]] const Problem& problem() const { return *problem_; }
  [[nodiscard]] const FirstLevelCodec& codec() const { return codec_; }
  [[nodiscard]] const accel::ProfileMatrix& profile() const { return profile_; }
  [[nodiscard]] const MappingEvaluator& evaluator() const { return evaluator_; }
  [[nodiscard]] const SecondLevelSearch& second() const { return second_; }
  [[nodiscard]] std::vector<double> design_scores() const {
    return profile_.design_scores();
  }

  /// The fitness every skeleton search minimises, per skeleton: the
  /// penalized analytic makespan with second-level greedy strategies
  /// (memoised). The uncached second-level searches (the expensive part —
  /// each an independent pure function of its key) run across `pool`; the
  /// dedupe, the memo insertion order and the returned values are the
  /// same at any thread count.
  [[nodiscard]] std::vector<double> fitness_batch(
      const std::vector<Skeleton>& skeletons, util::WorkerPool& pool);

  /// decode + fitness_batch in one call — the one primitive every genome
  /// search (GA cohorts, anneal proposals, random samples) prices with.
  /// The decode fans across the pool too (a pure function, so which thread
  /// decodes a genome cannot change the result), and nothing is kept per
  /// genome: the memo is the only state a search accumulates.
  [[nodiscard]] std::vector<double> fitness_batch(
      const std::vector<ga::Genome>& genomes, util::WorkerPool& pool);

  /// `skeleton` with its second-level greedy strategies filled in.
  [[nodiscard]] Mapping complete(const Skeleton& skeleton);

  /// GA-polish every set's strategies in place (the paper's refine-winner
  /// pass), keeping the better of greedy and refined per set.
  void polish(Mapping& mapping, Rng& rng) const;

  /// The Herald-extended baseline skeleton (GA seed / SA start point).
  [[nodiscard]] Skeleton baseline() const;

  /// Second-level memo hit/miss counts (the `search.space.memo.*`
  /// counters). The exactness contracts above are stated in terms of these
  /// two values.
  [[nodiscard]] long long cache_hits() const { return memo_hits_->value(); }
  [[nodiscard]] long long cache_misses() const {
    return memo_misses_->value();
  }

  /// All instance counters by name; see docs/OBSERVABILITY.md for the
  /// `search.space.*` naming scheme.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  /// A memo miss: the set's penalized greedy latency, through the lent
  /// SetPriceTable when the problem carries one. Safe on any thread.
  [[nodiscard]] Seconds price_miss(const LayerAssignment& set) const;

  using Memo =
      util::MemoBatch<SetKey, Seconds, const LayerAssignment*, SetKeyHash>;

  const Problem* problem_;
  Config config_;
  accel::ProfileMatrix profile_;
  std::vector<topology::AccSetCandidate> candidates_;
  FirstLevelCodec codec_;
  SecondLevelSearch second_;
  MappingEvaluator evaluator_;
  /// Instance metric registry backing the counters below (one per
  /// SkeletonSpace so per-search counts stay exact); the destructor folds
  /// it into the installed global registry. The Counter pointers are
  /// resolved once in the constructor — registry references are stable —
  /// so hot-path increments are a single relaxed atomic add.
  obs::MetricsRegistry metrics_;
  obs::Counter* memo_hits_;
  obs::Counter* memo_misses_;
  /// Second-level memo per (layer range, AccSet, design), charging the
  /// memo counters above. It keeps only the penalized latency the fitness
  /// reads: the search prices thousands of sets and completes a few, and
  /// complete() re-runs the deterministic greedy for those few.
  Memo memo_;
};

}  // namespace mars::core
