// Persistent (model, topology, mapper config) -> Mapping cache.
//
// A serving fleet re-plans the same models on the same hardware every
// startup; the GA search dominates that startup time. MappingCache makes
// repeat startups a file load: searched mappings are serialised through
// core/serialize.* into one JSON file per (model, fingerprint) pair under
// a cache directory, and rehydrated (plus re-validated against the live
// problem) on the next construction.
//
// The cache policy lives here, once, for every user (serve's
// plan_services, comap's inner plans, explore's point pricer, warm):
// key() names the entry a search is cached under, load() rehydrates it,
// and store_searched() persists a finished search. A caller is a key, a
// load and a store call.
//
// Invalidation is structural, not temporal: the fingerprint hashes the
// topology (accelerators, DRAM, links, host bandwidths), the design
// registry, the adaptive flag, and the search identity — the engine's
// canonical spec string (plan::SearchEngine::spec_string(), which names
// the engine and every search knob including the seed) plus the budget
// and placement suffixes of search_spec(). Change any of them and the key
// misses; stale entries are never read, only orphaned. In particular a GA
// mapping is never served to an annealing run: the engine name itself is
// part of the key. A corrupt, truncated or foreign-problem file is treated
// as a miss (logged), and a failed write is logged and dropped — the cache
// must not be able to break a run.
#pragma once

#include <optional>
#include <string>

#include "mars/core/cost_model.h"
#include "mars/core/mapping.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engine.h"

namespace mars::serve {

/// Canonical cache-identity string for a (engine, budget) pair: the
/// engine's spec_string(), suffixed with the budget when one is set so a
/// budget-truncated search never aliases an unbudgeted one. A non-zero
/// `placement` appends a ";placement=<hex>" suffix (full-fleet searches
/// keep their historical identity).
[[nodiscard]] std::string search_spec(const plan::SearchEngine& engine,
                                      const plan::Budget& budget,
                                      topology::AccMask placement = 0);

class MappingCache {
 public:
  /// Identifies one cache entry. `model` is the spine/zoo model name;
  /// `fingerprint` comes from MappingCache::fingerprint below.
  struct Key {
    std::string model;
    std::string fingerprint;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Opens (and creates, if needed) the cache directory. Throws
  /// InvalidArgument when `dir` exists but is not a directory.
  explicit MappingCache(std::string dir);
  /// Flushes the instance metrics into the installed global registry
  /// (obs::metrics()), when one is installed.
  ~MappingCache();

  /// 64-bit FNV-1a over everything the searched mapping depends on:
  /// topology structure, the design registry (name, frequency, peak
  /// MACs/cycle, PE count, parameter string, DRAM bytes/cycle, area
  /// cost and energy/MAC per design — a custom design whose formula
  /// changes without touching any of those must change its name or
  /// parameter string to invalidate),
  /// adaptive flag, and `search_spec` — the search_spec() string above.
  /// Returned as 16 hex characters. Callers go through key(); the
  /// formula is public so tests can pin it.
  [[nodiscard]] static std::string fingerprint(const topology::Topology& topo,
                                               const accel::DesignRegistry& designs,
                                               bool adaptive,
                                               const std::string& search_spec);

  /// The entry a search of `model` on `problem` by `engine` under
  /// `budget` is cached under: fingerprint(topo, designs, adaptive,
  /// search_spec(engine, budget, problem.placement)). Nullopt when the
  /// engine does not search: a closed-form mapping is cheaper than
  /// reading and validating an entry, so the baseline bypasses the cache.
  [[nodiscard]] static std::optional<Key> key(const std::string& model,
                                              const core::Problem& problem,
                                              const plan::SearchEngine& engine,
                                              const plan::Budget& budget);

  /// File a key maps to: `<dir>/<model>-<fingerprint>.json`.
  [[nodiscard]] std::string path_for(const Key& key) const;

  /// Loads and re-validates the entry for `key` against `problem`.
  /// Returns nullopt on any miss: absent file, unreadable/corrupt JSON,
  /// key mismatch, or a mapping that no longer validates.
  [[nodiscard]] std::optional<core::Mapping> load(
      const Key& key, const core::Problem& problem) const;

  /// Serialises a searched `mapping` under `key` (overwrites any previous
  /// entry), unless its search was cancelled: a cancel token is a runtime
  /// event no key can capture, so a truncated best-so-far mapping would
  /// poison every later run under the complete-search fingerprint. A
  /// failed write (full disk, permissions) is logged and dropped — it
  /// costs the next run its hit, never this run its mapping.
  void store_searched(const Key& key, const core::Mapping& mapping,
                      const plan::Provenance& provenance,
                      const core::Problem& problem) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Lifetime load/store outcome counts for this cache instance (the
  /// `serve.cache.*` counters; see docs/OBSERVABILITY.md). `corrupt`
  /// counts the subset of misses caused by an unreadable or mismatched
  /// entry, as opposed to an absent file.
  [[nodiscard]] long long hits() const { return hits_->value(); }
  [[nodiscard]] long long misses() const { return misses_->value(); }
  [[nodiscard]] long long corrupt() const { return corrupt_->value(); }
  [[nodiscard]] long long stores() const { return stores_->value(); }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  std::string dir_;
  /// Instance registry (the canonical counts live here; the destructor
  /// folds them into the installed global registry). load() and
  /// store_searched() are const, so they increment through these pointers,
  /// resolved once at construction — registry references are stable.
  obs::MetricsRegistry metrics_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* corrupt_;
  obs::Counter* stores_;
};

}  // namespace mars::serve
