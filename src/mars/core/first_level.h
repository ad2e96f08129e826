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

  /// Decodes a genome into a skeleton. Sets receiving zero layers are
  /// dropped (their accelerators idle). Always yields >= 1 set covering
  /// every spine layer. A pure function of the genome, safe on any thread.
  [[nodiscard]] Skeleton decode(const ga::Genome& genome) const;

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

  const Problem* problem_;
  std::vector<topology::AccSetCandidate> candidates_;
};

}  // namespace mars::core
