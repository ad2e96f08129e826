#include "mars/sim/executor.h"

#include "mars/obs/metrics.h"
#include "mars/sim/engine.h"
#include "mars/util/error.h"

namespace mars::sim {
namespace {

struct Nothing {};
using Replay = Engine<Nothing, Nothing>;

/// Records each task's start and end on the replay's clock.
struct RecordTimings : NoHooks {
  const Replay* engine;
  std::vector<TaskTiming>* timings;

  void begun(Replay::Instance& /*instance*/, int task) {
    (*timings)[static_cast<std::size_t>(task)].start = engine->now();
  }
  void finished(Replay::Instance& /*instance*/, int task) {
    (*timings)[static_cast<std::size_t>(task)].end = engine->now();
  }
};

}  // namespace

Executor::Executor(const topology::Topology& topo, SimParams params)
    : topo_(&topo), params_(params) {}

ExecutionResult Executor::run(const TaskGraph& graph) const {
  return run(FlatTaskGraph::from(graph));
}

ExecutionResult Executor::run(const FlatTaskGraph& graph) const {
  graph.check_resources(topo_->size());
  ExecutionResult result;
  result.timings.assign(static_cast<std::size_t>(graph.size), TaskTiming{});
  Replay engine(*topo_, params_, {&graph});
  RecordTimings hooks{{}, &engine, &result.timings};
  engine.add(0, Nothing{});
  engine.drain(hooks);
  MARS_CHECK(engine.tasks_executed() == graph.size,
             "deadlock: " << (graph.size - engine.tasks_executed())
                          << " tasks never became ready "
                             "(dependency cycle?)");
  result.makespan = engine.horizon();
  result.acc_busy = engine.acc_busy();
  result.events = engine.events();
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->counter("sim.events").add(result.events);
    registry->counter("sim.tasks").add(engine.tasks_executed());
    registry->ratio("sim.events_per_task", "sim.events", "sim.tasks");
  }
  return result;
}

}  // namespace mars::sim
