// Event-driven task-graph execution with resource contention.
//
// Accelerators run one compute task at a time; directed channels carry one
// flow at a time at full bandwidth. A task that finds its resource busy
// parks in the resource's wait queue (sim/wait_queue.h), in the order its
// retry would have popped, and a release pops one wake event, so a run
// costs O(events log events) however deep the backlog. Multi-leg transfers (via the host) store-and-forward.
// Deterministic: ties resolve by event insertion order.
#pragma once

#include <vector>

#include "mars/sim/network.h"
#include "mars/sim/task_graph.h"

namespace mars::sim {

struct TaskTiming {
  Seconds start{};
  Seconds end{};
  bool executed = false;
};

struct ExecutionResult {
  Seconds makespan{};
  std::vector<TaskTiming> timings;  // indexed by TaskId

  /// Total busy seconds per accelerator (compute only).
  std::vector<Seconds> acc_busy;

  /// Events the loop popped (work, not simulated time; also added to the
  /// `sim.events` registry counter once per run).
  long long events = 0;
};

class Executor {
 public:
  Executor(const topology::Topology& topo, SimParams params = {});

  /// Runs the whole graph to completion and reports the makespan.
  [[nodiscard]] ExecutionResult run(const TaskGraph& graph) const;

 private:
  const topology::Topology* topo_;
  Network network_;
};

}  // namespace mars::sim
