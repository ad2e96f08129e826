#include "mars/topology/candidates.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "mars/util/error.h"

namespace mars::topology {
namespace {

// Balanced bisection by member order; recurses while halves stay connected.
void bisect(const Topology& topo, AccMask mask, std::set<AccMask>& out) {
  const std::vector<AccId> members = mask_members(mask);
  if (members.size() < 2) return;
  const std::size_t half = members.size() / 2;
  AccMask lo = 0;
  AccMask hi = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    (i < half ? lo : hi) |= mask_of(members[i]);
  }
  for (AccMask part : {lo, hi}) {
    if (part == 0 || !topo.connected(part)) continue;
    if (out.insert(part).second) bisect(topo, part, out);
  }
}

}  // namespace

std::vector<AccSetCandidate> accset_candidates(const Topology& topo, AccMask within) {
  topo.validate();
  if (within == 0) within = topo.full_mask();
  MARS_CHECK_ARG((within & ~topo.full_mask()) == 0,
                 "placement mask reaches outside the topology");
  std::set<AccMask> masks;

  // Edge-removal hierarchy: after discarding all links slower than each
  // bandwidth level, record the surviving connected components.
  std::vector<Bandwidth> levels = topo.bandwidth_levels();
  std::vector<double> thresholds{0.0};
  for (Bandwidth level : levels) {
    // Strictly above this level: scale epsilon-up to express "removed".
    thresholds.push_back(level.bits_per_second() * (1.0 + 1e-9));
  }
  for (double threshold : thresholds) {
    for (AccMask component : topo.components_above(within, Bandwidth(threshold))) {
      masks.insert(component);
    }
  }

  // Refine multi-accelerator components by balanced bisection so that the
  // GA can pick 2- and 4-sized sets inside uniform groups.
  const std::set<AccMask> base = masks;
  for (AccMask mask : base) bisect(topo, mask, masks);

  // Singletons are always valid AccSets.
  for (AccId id = 0; id < topo.size(); ++id) {
    if ((mask_of(id) & within) != 0) masks.insert(mask_of(id));
  }

  std::vector<AccSetCandidate> candidates;
  candidates.reserve(masks.size());
  for (AccMask mask : masks) {
    AccSetCandidate candidate;
    candidate.mask = mask;
    candidate.internal_bw = topo.min_internal_bandwidth(mask);
    candidates.push_back(candidate);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const AccSetCandidate& a, const AccSetCandidate& b) {
              if (mask_count(a.mask) != mask_count(b.mask)) {
                return mask_count(a.mask) > mask_count(b.mask);
              }
              return a.mask < b.mask;
            });
  return candidates;
}

std::vector<std::size_t> decode_partition(
    const Topology& topo, const std::vector<AccSetCandidate>& candidates,
    std::span<const double> priorities, AccMask target) {
  MARS_CHECK_ARG(priorities.size() == candidates.size(),
                 "one priority gene per candidate required");
  if (target == 0) target = topo.full_mask();
  MARS_CHECK_ARG((target & ~topo.full_mask()) == 0,
                 "placement mask reaches outside the topology");
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return priorities[a] > priorities[b];
  });

  // The chosen indices are compacted to the front of `order`: slot `kept`
  // never lies ahead of the index being read.
  std::size_t kept = 0;
  AccMask covered = 0;
  for (std::size_t k = 0; k < order.size() && covered != target; ++k) {
    const AccMask mask = candidates[order[k]].mask;
    if ((mask & ~target) != 0 || (mask & covered) != 0) continue;
    order[kept++] = order[k];
    covered |= mask;
  }
  MARS_CHECK(covered == target,
             "candidate family cannot tile the placement mask (missing singletons?)");
  order.resize(kept);
  // Deterministic presentation order: by lowest member id.
  const auto lowest = [&](std::size_t i) {
    const AccMask mask = candidates[i].mask;
    return mask & ~(mask - 1);
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return lowest(a) < lowest(b); });
  return order;
}

}  // namespace mars::topology
