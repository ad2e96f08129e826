// Seeded random task graphs for the executor stress and wait-queue
// differential tests: compute tasks on random accelerators, transfers
// between random accelerator pairs (host-routed, two-leg, whenever the
// topology has no direct link) and barriers, each with up to three
// backward dependencies.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "mars/sim/task_graph.h"
#include "mars/topology/topology.h"
#include "mars/util/rng.h"

namespace mars::testing {

struct RandomGraph {
  sim::TaskGraph tg;
  std::vector<double> acc_work_seconds;
};

inline RandomGraph random_graph(const topology::Topology& topo, Rng& rng,
                                int n) {
  using sim::TaskId;
  RandomGraph out;
  out.acc_work_seconds.assign(static_cast<std::size_t>(topo.size()), 0.0);
  for (int i = 0; i < n; ++i) {
    std::vector<TaskId> deps;
    // Up to 3 backward dependencies.
    for (int d = 0; d < 3 && i > 0; ++d) {
      if (rng.chance(0.4)) deps.push_back(rng.uniform_int(0, i - 1));
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    const double kind = rng.uniform();
    if (kind < 0.5) {
      const int acc = rng.uniform_int(0, topo.size() - 1);
      const Seconds duration = microseconds(rng.uniform(1.0, 100.0));
      out.acc_work_seconds[static_cast<std::size_t>(acc)] += duration.count();
      (void)out.tg.add_compute(acc, duration, "c" + std::to_string(i), deps);
    } else if (kind < 0.85) {
      int src = rng.uniform_int(0, topo.size() - 1);
      int dst = rng.uniform_int(0, topo.size() - 1);
      if (src == dst) dst = (dst + 1) % topo.size();
      (void)out.tg.add_transfer(src, dst, Bytes(rng.uniform(1.0, 1e6)),
                                "t" + std::to_string(i), deps);
    } else {
      (void)out.tg.add_barrier(deps, "b" + std::to_string(i));
    }
  }
  return out;
}

}  // namespace mars::testing
