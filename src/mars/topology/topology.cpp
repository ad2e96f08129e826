#include "mars/topology/topology.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "mars/util/error.h"

namespace mars::topology {

std::vector<AccId> mask_members(AccMask mask) {
  std::vector<AccId> members;
  members.reserve(static_cast<std::size_t>(mask_count(mask)));
  for (AccId id = 0; id < 64; ++id) {
    if (mask_contains(mask, id)) members.push_back(id);
  }
  return members;
}

std::string mask_to_string(AccMask mask) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (AccId id : mask_members(mask)) {
    if (!first) os << ',';
    os << id;
    first = false;
  }
  os << '}';
  return os.str();
}

Topology::Topology(std::string name) : name_(std::move(name)) {
  MARS_CHECK_ARG(!name_.empty(), "topology needs a name");
}

AccId Topology::add_accelerator(std::string name, Bytes dram, Bandwidth host_bw,
                                int fixed_design) {
  MARS_CHECK_ARG(size() < kMaxAccelerators,
                 "at most " << kMaxAccelerators << " accelerators (mask width)");
  MARS_CHECK_ARG(dram.count() > 0.0, "accelerator DRAM must be positive");
  Accelerator acc;
  acc.id = size();
  acc.name = std::move(name);
  acc.dram = dram;
  acc.host_bw = host_bw;
  acc.fixed_design = fixed_design;
  accs_.push_back(std::move(acc));
  for (auto& row : bw_) row.push_back(0.0);
  bw_.emplace_back(accs_.size(), 0.0);
  return accs_.back().id;
}

void Topology::connect(AccId a, AccId b, Bandwidth bw) {
  check_id(a);
  check_id(b);
  MARS_CHECK_ARG(a != b, "no self links");
  MARS_CHECK_ARG(bw.bits_per_second() > 0.0, "link bandwidth must be positive");
  bw_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
      bw.bits_per_second();
  bw_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] =
      bw.bits_per_second();
}

void Topology::check_id(AccId id) const {
  MARS_CHECK_ARG(id >= 0 && id < size(), "accelerator id " << id << " out of range");
}

const Accelerator& Topology::accelerator(AccId id) const {
  check_id(id);
  return accs_[static_cast<std::size_t>(id)];
}

bool Topology::has_link(AccId a, AccId b) const {
  check_id(a);
  check_id(b);
  return bw_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] > 0.0;
}

Bandwidth Topology::link(AccId a, AccId b) const {
  check_id(a);
  check_id(b);
  return Bandwidth(bw_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]);
}

Bandwidth Topology::host_bandwidth(AccId id) const {
  return accelerator(id).host_bw;
}

std::vector<AccId> Topology::neighbors(AccId id) const {
  check_id(id);
  std::vector<AccId> out;
  for (AccId other = 0; other < size(); ++other) {
    if (other != id && has_link(id, other)) out.push_back(other);
  }
  return out;
}

AccMask Topology::full_mask() const {
  return size() == 64 ? ~AccMask{0} : (AccMask{1} << static_cast<unsigned>(size())) - 1;
}

// The member loops below walk a mask's set bits in ascending order
// (`rest &= rest - 1` drops the lowest) instead of materialising
// mask_members: they run on the search's hot paths.

bool Topology::connected(AccMask mask) const {
  if (mask == 0) return false;
  AccMask visited = mask & (~mask + 1);  // lowest member
  AccMask frontier = visited;
  while (frontier != 0) {
    const auto current = static_cast<AccId>(std::countr_zero(frontier));
    frontier &= frontier - 1;
    for (AccMask rest = mask & ~visited; rest != 0; rest &= rest - 1) {
      const auto other = static_cast<AccId>(std::countr_zero(rest));
      if (has_link(current, other)) {
        visited |= mask_of(other);
        frontier |= mask_of(other);
      }
    }
  }
  return visited == mask;
}

Bandwidth Topology::min_internal_bandwidth(AccMask mask) const {
  MARS_CHECK_ARG(mask != 0, "empty accelerator set");
  if (mask_count(mask) == 1) {
    return Bandwidth(std::numeric_limits<double>::infinity());
  }
  MARS_CHECK_ARG(connected(mask),
                 "set " << mask_to_string(mask) << " is not connected");

  // Maximum-bottleneck spanning structure (Prim on min edge): the internal
  // collective bandwidth is limited by the weakest edge the set must use,
  // chosen as favourably as possible.
  AccMask in_tree = mask & (~mask + 1);
  double bottleneck = std::numeric_limits<double>::infinity();
  while (in_tree != mask) {
    double best = 0.0;
    AccId best_next = -1;
    for (AccMask from = in_tree; from != 0; from &= from - 1) {
      const auto a = static_cast<AccId>(std::countr_zero(from));
      for (AccMask to = mask & ~in_tree; to != 0; to &= to - 1) {
        const auto b = static_cast<AccId>(std::countr_zero(to));
        const double bw = link(a, b).bits_per_second();
        if (bw > best) {
          best = bw;
          best_next = b;
        }
      }
    }
    MARS_CHECK(best_next >= 0, "connected() contract violated");
    bottleneck = std::min(bottleneck, best);
    in_tree |= mask_of(best_next);
  }
  return Bandwidth(bottleneck);
}

Bandwidth Topology::best_link_between(AccMask a, AccMask b) const {
  MARS_CHECK_ARG((a & b) == 0, "sets overlap");
  double best = 0.0;
  for (AccMask from = a; from != 0; from &= from - 1) {
    const auto i = static_cast<AccId>(std::countr_zero(from));
    for (AccMask to = b; to != 0; to &= to - 1) {
      const auto j = static_cast<AccId>(std::countr_zero(to));
      best = std::max(best, link(i, j).bits_per_second());
    }
  }
  return Bandwidth(best);
}

Bandwidth Topology::min_host_bandwidth(AccMask mask) const {
  MARS_CHECK_ARG(mask != 0, "empty accelerator set");
  double min_bw = std::numeric_limits<double>::infinity();
  for (AccMask rest = mask; rest != 0; rest &= rest - 1) {
    const auto id = static_cast<AccId>(std::countr_zero(rest));
    min_bw = std::min(min_bw, host_bandwidth(id).bits_per_second());
  }
  return Bandwidth(min_bw);
}

std::vector<Bandwidth> Topology::bandwidth_levels() const {
  std::vector<double> values;
  for (AccId a = 0; a < size(); ++a) {
    for (AccId b = a + 1; b < size(); ++b) {
      if (has_link(a, b)) values.push_back(link(a, b).bits_per_second());
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::vector<Bandwidth> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(Bandwidth(v));
  return out;
}

std::vector<AccMask> Topology::components_above(AccMask mask,
                                                Bandwidth threshold) const {
  std::vector<AccMask> components;
  AccMask remaining = mask;
  while (remaining != 0) {
    const AccId seed = mask_members(remaining).front();
    AccMask component = mask_of(seed);
    std::vector<AccId> frontier{seed};
    while (!frontier.empty()) {
      const AccId current = frontier.back();
      frontier.pop_back();
      for (AccId other : mask_members(remaining)) {
        if (mask_contains(component, other)) continue;
        if (has_link(current, other) && link(current, other) >= threshold) {
          component |= mask_of(other);
          frontier.push_back(other);
        }
      }
    }
    components.push_back(component);
    remaining &= ~component;
  }
  return components;
}

void Topology::validate() const {
  MARS_CHECK_ARG(size() > 0, "topology '" << name_ << "' has no accelerators");
  for (const Accelerator& acc : accs_) {
    MARS_CHECK_ARG(acc.host_bw.bits_per_second() > 0.0,
                   "accelerator " << acc.id << " needs a host link");
  }
}

}  // namespace mars::topology
