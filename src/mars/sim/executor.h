// Offline task-graph execution with resource contention: one instance of
// the graph, replayed from t=0 on the discrete-event engine
// (sim/engine.h), which holds the contention model. The executor lowers
// the graph to a FlatTaskGraph and records when each task started and
// finished.
#pragma once

#include <vector>

#include "mars/sim/network.h"
#include "mars/sim/task_graph.h"

namespace mars::sim {

struct TaskTiming {
  Seconds start{};
  Seconds end{};
};

struct ExecutionResult {
  Seconds makespan{};
  std::vector<TaskTiming> timings;  // indexed by TaskId

  /// Total busy seconds per accelerator (compute only).
  std::vector<Seconds> acc_busy;

  /// Events the loop popped (work, not simulated time; also added to the
  /// `sim.events` registry counter once per run, and the tasks run to
  /// `sim.tasks`: their ratio is `sim.events_per_task`).
  long long events = 0;
};

class Executor {
 public:
  Executor(const topology::Topology& topo, SimParams params = {});

  /// Runs the whole graph to completion and reports the makespan. Throws
  /// InvalidArgument when a task names an accelerator `topo` lacks.
  [[nodiscard]] ExecutionResult run(const TaskGraph& graph) const;
  [[nodiscard]] ExecutionResult run(const FlatTaskGraph& graph) const;

 private:
  const topology::Topology* topo_;
  SimParams params_;
};

}  // namespace mars::sim
