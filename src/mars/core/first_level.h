// First-level genome decode (pink box of Fig. 3): accelerator-set
// partition, per-set design configuration, and contiguous layer allocation.
//
// Genome layout for C candidates and D designs (adaptive mode):
//   [0, C)            candidate priority genes (decode_partition)
//   [C, C + C*D)      design genes per (candidate, design) — argmax wins
//   [C + C*D, C*(D+2)) workload-share genes per candidate
// Fixed-design mode drops nothing (design genes are simply ignored), so
// genome size is stable across modes.
#pragma once

#include <vector>

#include "mars/core/cost_model.h"
#include "mars/ga/engine.h"
#include "mars/topology/candidates.h"

namespace mars::core {

/// A first-level decode: the mapping skeleton (sets + design + ranges)
/// before strategies are chosen.
struct Skeleton {
  std::vector<LayerAssignment> sets;  // strategies empty
};

/// Largest-remainder rounding of `total` units over `weights` (each >= 0,
/// summing to `weight_sum` > 0): every bucket gets floor(total * w / sum),
/// then the leftover units go one each in descending-remainder order, ties
/// to the lower index. The layer allocation below and the comap partition
/// decode both round with it; each clamps its own weights first.
[[nodiscard]] std::vector<int> largest_remainder(
    int total, const std::vector<double>& weights, double weight_sum);

class FirstLevelCodec {
 public:
  FirstLevelCodec(const Problem& problem,
                  std::vector<topology::AccSetCandidate> candidates);

  [[nodiscard]] int genome_size() const;
  [[nodiscard]] const std::vector<topology::AccSetCandidate>& candidates() const {
    return candidates_;
  }

  /// The decode intermediates of one genome, indexed by partition entry
  /// (zero-layer entries kept). Saved by decode() on request so that a
  /// later redecode() of a mutated child can reuse every stage a move did
  /// not touch.
  struct DecodeTrace {
    std::vector<topology::AccMask> partition;
    std::vector<int> candidate;  // candidate index per partition entry
    std::vector<int> counts;     // layers per partition entry (may be 0)
    std::vector<int> designs;    // argmax design per entry; -1 in fixed mode
  };

  /// The decode stage a gene index feeds (see the layout above).
  enum class GeneBlock { kPriority, kDesign, kShare };
  [[nodiscard]] GeneBlock block_of(std::size_t gene) const;
  /// The candidate a design or share gene belongs to (for a priority gene
  /// the gene index itself is the candidate).
  [[nodiscard]] int candidate_of(std::size_t gene) const;

  /// Decodes a genome into a skeleton. Sets receiving zero layers are
  /// dropped (their accelerators idle). Always yields >= 1 set covering
  /// every spine layer. When `trace` is non-null the intermediates are
  /// stored for use as the parent state of redecode().
  [[nodiscard]] Skeleton decode(const ga::Genome& genome,
                                DecodeTrace* trace = nullptr) const;

  /// The outcome of an incremental re-decode: either the child's trace is
  /// identical to the parent's (`same`, and `trace` is left empty — the
  /// caller keeps using the parent's), or `trace` holds the child's
  /// intermediates, rebuilt with only the stages the changed genes feed
  /// recomputed.
  struct Retrace {
    bool same = true;
    DecodeTrace trace;  // empty when same
  };

  /// Incremental decode of `child` — the `parent` genome (whose decode
  /// intermediates are `parent_trace`) with the `changed` genes edited.
  /// Exact by construction: only the decode stages the changed genes feed
  /// are recomputed, through the same helpers decode() runs. A changed
  /// priority gene first gets a pairwise order-preservation check against
  /// the parent priorities (the partition is a pure function of the
  /// stable-sort order, so preserved comparisons prove the partition
  /// unchanged without recomputing it); only order-crossing moves pay for
  /// decode_partition, and only an actually moved partition rebuilds the
  /// downstream stages. Layer counts are recomputed when a share gene
  /// changed, designs for candidates whose design block was touched.
  /// `changed` must be a superset of the genes where child differs from
  /// the parent. Does not assemble a skeleton: callers that detect `same`
  /// skip assembly entirely.
  [[nodiscard]] Retrace retrace(const ga::Genome& child,
                                const ga::Genome& parent,
                                const DecodeTrace& parent_trace,
                                const std::vector<std::size_t>& changed) const;

  /// retrace() + assemble() convenience: the child's skeleton (and trace,
  /// on request) whether or not the move changed anything.
  [[nodiscard]] Skeleton redecode(const ga::Genome& child,
                                  const ga::Genome& parent,
                                  const DecodeTrace& parent_trace,
                                  const std::vector<std::size_t>& changed,
                                  DecodeTrace* trace = nullptr) const;

  /// Trace -> skeleton (drops zero-count entries, checks coverage). A pure
  /// function of the trace, so equal traces always assemble equal
  /// skeletons — the identity retrace() relies on.
  [[nodiscard]] Skeleton assemble(const DecodeTrace& trace) const;

  /// Builds a genome that decodes to `skeleton` (used to seed the GA with
  /// the baseline mapping and with profiled design scores).
  [[nodiscard]] ga::Genome encode(const Skeleton& skeleton,
                                  const std::vector<double>& design_scores) const;

  /// A genome whose design genes follow `design_scores` and whose other
  /// genes are random — the paper's profiled initialisation.
  [[nodiscard]] ga::Genome profiled_random(const std::vector<double>& design_scores,
                                           Rng& rng) const;

 private:
  [[nodiscard]] int candidate_index(topology::AccMask mask) const;
  /// Largest-remainder layer allocation from the share-gene block, one
  /// count per partition entry. Shared by decode() and redecode() so both
  /// paths run the identical rounding code.
  [[nodiscard]] std::vector<int> decode_counts(
      const double* share_genes, const std::vector<int>& candidate) const;
  /// Argmax design for one candidate's design-gene block.
  [[nodiscard]] int decode_design(const double* design_genes,
                                  int candidate) const;

  const Problem* problem_;
  std::vector<topology::AccSetCandidate> candidates_;
};

}  // namespace mars::core
