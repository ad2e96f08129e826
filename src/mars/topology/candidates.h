// AccSet candidate generation (Section V heuristics).
//
// MARS prunes the exponential space of accelerator subsets by iteratively
// removing the lowest-bandwidth edges of G(Acc, BW): each removal round
// splits the graph into connected components with no internal bandwidth
// bottleneck, and those components — plus balanced recursive bisections of
// uniform cliques (to expose 2- and 4-accelerator sets inside an 8-clique
// group) — form the candidate AccSets the first-level GA chooses from.
#pragma once

#include <span>
#include <vector>

#include "mars/topology/topology.h"

namespace mars::topology {

/// A candidate accelerator set with its internal bottleneck bandwidth.
struct AccSetCandidate {
  AccMask mask = 0;
  Bandwidth internal_bw{};  // min spanning bandwidth (inf for singletons)
};

/// Generates the laminar candidate family. Deterministic: sorted by
/// descending size, then ascending lowest member id. Always contains the
/// full set, every bandwidth-level component, all bisection refinements and
/// all singletons. `within` restricts the family to subsets of the given
/// placement mask (0 means the whole topology): components are computed on
/// the restricted vertex set, so a tenant confined to a fleet slice sees the
/// same hierarchy it would on a standalone copy of that slice.
[[nodiscard]] std::vector<AccSetCandidate> accset_candidates(const Topology& topo,
                                                             AccMask within = 0);

/// Greedy decode used by the GA: scanning candidates by descending gene
/// priority, keep each candidate disjoint from what is already taken until
/// the whole system is covered. `priorities` must align with `candidates`.
/// Returns the indices of the chosen candidates, whose masks tile the
/// topology exactly, sorted by the lowest member id of each mask. `target`
/// restricts the decode to tiling the given placement mask (0 means the
/// whole topology); candidates reaching outside `target` are skipped.
[[nodiscard]] std::vector<std::size_t> decode_partition(
    const Topology& topo, const std::vector<AccSetCandidate>& candidates,
    std::span<const double> priorities, AccMask target = 0);

}  // namespace mars::topology
