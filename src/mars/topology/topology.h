// Multi-accelerator system topology: the graph G(Acc, BW) from Section III.
//
// Vertices are adaptively-configurable accelerators (with attached off-chip
// DRAM); weighted edges are direct accelerator-to-accelerator links; every
// accelerator additionally owns a (typically slower) link to the host.
// Accelerator subsets are passed around as 64-bit masks.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "mars/util/units.h"

namespace mars::topology {

using AccId = int;
/// Bit i set <=> accelerator i belongs to the set.
using AccMask = std::uint64_t;
/// The most accelerators a topology may hold: one AccMask bit each.
inline constexpr int kMaxAccelerators = 64;

[[nodiscard]] constexpr AccMask mask_of(AccId acc) {
  return AccMask{1} << static_cast<unsigned>(acc);
}
[[nodiscard]] constexpr int mask_count(AccMask mask) { return std::popcount(mask); }
[[nodiscard]] constexpr bool mask_contains(AccMask mask, AccId acc) {
  return (mask & mask_of(acc)) != 0;
}
[[nodiscard]] std::vector<AccId> mask_members(AccMask mask);
[[nodiscard]] std::string mask_to_string(AccMask mask);

struct Accelerator {
  AccId id = -1;
  std::string name;
  Bytes dram = gibibytes(1.0);
  Bandwidth host_bw = gbps(2.0);
  /// For fixed-design (non-adaptive) systems, the design permanently
  /// configured on this accelerator; -1 in adaptive systems.
  int fixed_design = -1;
};

class Topology {
 public:
  explicit Topology(std::string name);

  AccId add_accelerator(std::string name, Bytes dram, Bandwidth host_bw,
                        int fixed_design = -1);
  /// Symmetric direct link; re-connecting overwrites the bandwidth.
  void connect(AccId a, AccId b, Bandwidth bw);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int size() const { return static_cast<int>(accs_.size()); }
  [[nodiscard]] const Accelerator& accelerator(AccId id) const;
  [[nodiscard]] bool has_link(AccId a, AccId b) const;
  /// Bandwidth of the direct link (zero-bandwidth when absent).
  [[nodiscard]] Bandwidth link(AccId a, AccId b) const;
  [[nodiscard]] Bandwidth host_bandwidth(AccId id) const;
  [[nodiscard]] std::vector<AccId> neighbors(AccId id) const;

  /// Mask with every accelerator set.
  [[nodiscard]] AccMask full_mask() const;

  /// True when the accelerators in `mask` form a connected subgraph using
  /// only direct links between members.
  [[nodiscard]] bool connected(AccMask mask) const;

  /// Minimum direct-link bandwidth on a spanning structure inside `mask`;
  /// for a singleton returns an infinite-like sentinel (no internal comm).
  [[nodiscard]] Bandwidth min_internal_bandwidth(AccMask mask) const;

  /// Best single direct link between two disjoint sets (zero if none).
  [[nodiscard]] Bandwidth best_link_between(AccMask a, AccMask b) const;

  /// Smallest host bandwidth among members (host routes bottleneck there).
  [[nodiscard]] Bandwidth min_host_bandwidth(AccMask mask) const;

  /// All distinct direct-link bandwidth values, ascending.
  [[nodiscard]] std::vector<Bandwidth> bandwidth_levels() const;

  /// Connected components of the subgraph induced by `mask` after removing
  /// every direct link slower than `threshold`.
  [[nodiscard]] std::vector<AccMask> components_above(AccMask mask,
                                                      Bandwidth threshold) const;

  void validate() const;

 private:
  void check_id(AccId id) const;

  std::string name_;
  std::vector<Accelerator> accs_;
  std::vector<std::vector<double>> bw_;  // bits/s; 0 = no link
};

}  // namespace mars::topology
