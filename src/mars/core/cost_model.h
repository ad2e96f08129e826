// Analytical cost model: the fast latency estimate driving the GA loops.
//
// Mirrors the event-driven simulator's structure (compute phases, SS rings,
// All-Reduce, resharding, inter-set transfers, host I/O) with closed-form
// times instead of contention replay. Bench A4 (bench_sim_agreement)
// quantifies the gap between the two paths.
#pragma once

#include <optional>
#include <vector>

#include "mars/core/mapping.h"
#include "mars/parallel/memory.h"
#include "mars/parallel/sharding.h"
#include "mars/sim/network.h"

namespace mars::core {

/// Everything a mapper needs to know about the problem instance.
class SetPriceTable;

struct Problem {
  const graph::ConvSpine* spine = nullptr;
  const topology::Topology* topo = nullptr;
  const accel::DesignRegistry* designs = nullptr;
  /// Adaptive systems configure one design per AccSet; fixed systems keep
  /// each accelerator's fixed_design and a set stalls for its slowest
  /// member (Section VI-C).
  bool adaptive = true;
  sim::SimParams sim_params{};
  /// Accelerators the mapper may use (0 = the whole topology). Lets a
  /// co-mapping search confine a tenant to a fleet slice while keeping the
  /// shared Topology object — sets, candidates and the baseline are all
  /// restricted to this mask.
  topology::AccMask placement = 0;
  /// Optional compute-once table of penalized greedy set latencies
  /// (core/skeleton_space.h). A SkeletonSpace built on this problem prices
  /// its second-level memo misses through it, so searches over one spine
  /// and fleet that differ only in `placement` price each set once. The
  /// lender keeps it alive; it never changes a result.
  SetPriceTable* set_prices = nullptr;

  /// The effective placement: `placement`, or the full mask when unset.
  [[nodiscard]] topology::AccMask placement_mask() const {
    return placement == 0 ? topo->full_mask() : placement;
  }

  void validate() const;
};

/// Cost of one LayerAssignment (its internal execution only).
struct SetCost {
  LatencyBreakdown latency;
  parallel::MemoryFootprint footprint;
  bool memory_ok = true;
  /// Latency with an infeasibility penalty applied — what GA fitness sees
  /// (finite so the search can climb out of infeasible regions).
  Seconds penalized{};
};

/// One layer's cost under a concrete strategy, given the activation layout
/// left by the previous layer (nullopt = entering the set).
struct LayerCost {
  Seconds compute{};    // phases x PE time + fused DRAM
  Seconds intra_set{};  // SS ring + All-Reduce + reshard/scatter
  parallel::ShardingPlan plan;

  [[nodiscard]] Seconds total() const { return compute + intra_set; }
};

/// Energy prices per byte moved (first-order, docs/EXPLORE.md): a DRAM
/// access and an inter-accelerator (or host) link transfer. Compute
/// energy is per-design (AcceleratorDesign::energy_per_mac).
inline constexpr double kDramPicojoulesPerByte = 40.0;
inline constexpr double kLinkPicojoulesPerByte = 150.0;

class AnalyticalCostModel {
 public:
  explicit AnalyticalCostModel(const Problem& problem);

  /// Bandwidth of `set`'s intra-set traffic: the topology's
  /// min_internal_bandwidth for two or more members (throws when they are
  /// not connected), infinite for a single accelerator. It depends only on
  /// the set's mask, so callers compute it once per set, not per layer.
  [[nodiscard]] Bandwidth internal_bandwidth(const LayerAssignment& set) const;

  /// Cost of executing spine layer `layer` on `set` with `strategy`, where
  /// `internal_bw` is internal_bandwidth(set).
  [[nodiscard]] LayerCost layer_cost(
      const LayerAssignment& set, int layer, const parallel::Strategy& strategy,
      const std::optional<parallel::ActivationSharding>& upstream,
      Bandwidth internal_bw) const;

  /// Internal cost of one set: compute + fused DRAM + rings + All-Reduce +
  /// intra-set resharding + entry scatter, plus the memory check.
  [[nodiscard]] SetCost set_cost(const LayerAssignment& set) const;

  /// End-to-end breakdown of a full mapping (adds inter-set transfers and
  /// host I/O). `memory_ok` in the summary aggregates all sets.
  [[nodiscard]] EvaluationSummary evaluate(const Mapping& mapping) const;

  /// Energy of executing spine layer `layer` on `set`: compute MACs at
  /// the configured design's per-MAC price plus the design's DRAM traffic
  /// (re-reads and fused ops included) at kDramPicojoulesPerByte.
  /// Deliberately strategy-independent — sharding divides the work across
  /// members without changing its total (halo/fragmentation re-reads are
  /// second-order and ignored). Fixed-design sets average their members'
  /// prices (each member runs a 1/p share on its own design).
  [[nodiscard]] Joules layer_energy(const LayerAssignment& set, int layer) const;

  /// Whole-mapping energy: every layer's energy plus link energy for
  /// inter-set activation crossings and host input/output, priced at
  /// kLinkPicojoulesPerByte. Zero traffic contributes zero; a mapping
  /// with work always reports positive energy.
  [[nodiscard]] Joules mapping_energy(const Mapping& mapping) const;

  /// Per-phase compute seconds of `local` on the set (slowest member in
  /// fixed mode).
  [[nodiscard]] Seconds phase_compute_time(const LayerAssignment& set,
                                           const graph::ConvShape& local) const;

  /// Fused-op DRAM time per accelerator for spine layer `layer` under
  /// set size p.
  [[nodiscard]] Seconds fused_time(const LayerAssignment& set, int layer,
                                   int p) const;

  /// Transfer time of `bytes` between two disjoint sets over the best
  /// route (direct link or via host).
  [[nodiscard]] Seconds inter_set_time(topology::AccMask from, topology::AccMask to,
                                       Bytes bytes) const;

  /// Activation bytes flowing from `sets[producer]` to `sets[consumer]`
  /// (spine edges crossing the two contiguous ranges).
  [[nodiscard]] Bytes bytes_between(const std::vector<LayerAssignment>& sets,
                                    std::size_t producer,
                                    std::size_t consumer) const;

  /// bytes_between for every ordered pair at once: row-major S x S matrix
  /// with entry [producer * S + consumer]. Computed in a single pass over
  /// the contiguous edge arrays (each edge lands in exactly one cell when
  /// the set ranges are disjoint), so per-cell sums accumulate in edge
  /// order — bit-identical to calling bytes_between per pair. Requires
  /// disjoint layer ranges; layers outside every set contribute nothing.
  [[nodiscard]] std::vector<Bytes> inter_set_bytes(
      const std::vector<LayerAssignment>& sets) const;

  /// Critical-path aggregation: schedules the sets over their data-
  /// dependency DAG (set j feeds set i when a spine edge crosses them),
  /// charging inter-set transfers on the edges and host I/O at the
  /// boundaries. Equals the sequential sum for chain models; models branch
  /// overlap for multi-stream models. `set_latencies[i]` is the internal
  /// latency of `sets[i]`.
  [[nodiscard]] Seconds aggregate_makespan(
      const std::vector<LayerAssignment>& sets,
      const std::vector<Seconds>& set_latencies) const;

  [[nodiscard]] const Problem& problem() const { return *problem_; }

 private:
  const Problem* problem_;
  // Contiguous (struct-of-arrays) copies of the spine edges, split into
  // layer-to-layer edges and network-input edges. The per-candidate inner
  // loops (inter_set_bytes, aggregate_makespan's host-input scan) stream
  // these flat arrays instead of chasing SpineEdge structs — the search
  // hot path re-aggregates them once per fitness evaluation.
  std::vector<int> edge_producer_;
  std::vector<int> edge_consumer_;
  std::vector<double> edge_bytes_;
  std::vector<int> input_consumer_;
  std::vector<double> input_bytes_;
};

}  // namespace mars::core
