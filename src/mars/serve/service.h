// Per-model serving state: the bridge from offline MARS mappings to the
// online scheduler.
//
// A ModelService owns everything one co-resident model needs — a
// plan::Planner holding the zoo graph, its conv spine and a Problem
// sharing the fleet's topology/design registry, the chosen mapping
// (produced by whichever plan::SearchEngine the fleet was configured
// with, or rehydrated from the mapping cache), and the flat prototype
// single-inference graph the engine replays once per admitted request.
// plan_services() below is the only way to start one, for a fleet of
// any size. Ownership note: the contained Problem points into the Planner
// state, so a ModelService is pinned in memory (no copy/move); hold it
// behind unique_ptr.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mars/plan/planner.h"
#include "mars/serve/cache.h"
#include "mars/sim/task_graph.h"

namespace mars::serve {

namespace detail {
struct ModelStart;
}

class ModelService {
 public:
  /// Where this service's mapping came from (startup-cost provenance).
  enum class MappingSource : std::uint8_t {
    kBaseline,  // closed-form engine (engine.searches() == false)
    kSearched,  // the engine ran (and populated `cache` when given)
    kCacheHit,  // rehydrated from the mapping cache, search skipped
  };

  ModelService(const ModelService&) = delete;
  ModelService& operator=(const ModelService&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const core::Problem& problem() const {
    return planner_.problem();
  }
  [[nodiscard]] const core::Mapping& mapping() const { return mapping_; }
  /// Single-inference task graph under the chosen mapping, in the flat
  /// index form the engine replays once per admitted request (built once
  /// at planning time).
  [[nodiscard]] const sim::FlatTaskGraph& flat_proto() const {
    return flat_proto_;
  }
  /// Uncontended single-inference latency of `flat_proto` on the fleet.
  [[nodiscard]] Seconds single_latency() const { return single_latency_; }
  [[nodiscard]] MappingSource mapping_source() const { return source_; }
  /// Search provenance: the planning engine's identity and effort. For
  /// cache hits, records the (zero-cost) load, with the engine identity
  /// the entry was searched under.
  [[nodiscard]] const plan::Provenance& provenance() const {
    return provenance_;
  }

 private:
  /// Takes over a fully planned and compiled start-up state.
  explicit ModelService(detail::ModelStart&& start);
  friend std::vector<std::unique_ptr<ModelService>> plan_services(
      const std::vector<std::string>& model_names,
      const topology::Topology& topo, const accel::DesignRegistry& designs,
      bool adaptive, const plan::SearchEngine& engine,
      const MappingCache* cache, const plan::Budget& budget,
      const std::vector<topology::AccMask>& placements);

  std::string name_;
  plan::Planner planner_;
  core::Mapping mapping_;
  plan::Provenance provenance_;
  MappingSource source_ = MappingSource::kBaseline;
  sim::FlatTaskGraph flat_proto_;
  Seconds single_latency_{};
};

[[nodiscard]] std::string to_string(ModelService::MappingSource source);

/// Plans one service per mix entry on the shared topology. The returned
/// services must outlive any scheduler built over them; `engine` and
/// `cache` (optional) only have to outlive this call. `placements`, when
/// non-empty, gives one placement mask per model (0 entries = full fleet).
///
/// Threading: the models plan side by side on a pool of
/// min(engine.threads(), models) threads, and each model's search runs on
/// engine.threads() / that many threads (engine.with_threads), so planning
/// never runs more threads than the engine was given. A one-model fleet
/// searches on all of them. Planner construction, the search and the
/// compile step (flat prototype, single latency) run in the pool; results
/// are identical to planning the models one by one at any thread count.
///
/// Cache order: every cache load and store runs on the calling thread, in
/// model order — loads before a wave of searches, stores after it. A model
/// whose cache key repeats an earlier model's waits for the next wave, so
/// it loads what that model stored (a hit, as in a serial loop).
///
/// Errors: a failing model stops there and the lowest-index failure is
/// rethrown once every lower model is done (stored included) — the error
/// a serial loop would hit first.
[[nodiscard]] std::vector<std::unique_ptr<ModelService>> plan_services(
    const std::vector<std::string>& model_names,
    const topology::Topology& topo, const accel::DesignRegistry& designs,
    bool adaptive, const plan::SearchEngine& engine,
    const MappingCache* cache = nullptr, const plan::Budget& budget = {},
    const std::vector<topology::AccMask>& placements = {});

}  // namespace mars::serve
