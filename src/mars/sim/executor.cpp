#include "mars/sim/executor.h"

#include <algorithm>

#include "mars/obs/metrics.h"
#include "mars/sim/event_queue.h"
#include "mars/sim/wait_queue.h"
#include "mars/util/error.h"

namespace mars::sim {
namespace {

struct Event {
  enum class Kind : std::uint8_t {
    kTryStart,  // `task` wants to start leg `leg` (0 for compute)
    kLegDone,
    kTaskDone,
    kWake,      // the wait queue of resource `task` pops its front block
  } kind;
  TaskId task = -1;
  int leg = 0;
};

/// A task parked on a resource, wanting to start leg `leg` (0 for compute).
struct Waiter {
  TaskId task = -1;
  int leg = 0;
};

}  // namespace

Executor::Executor(const topology::Topology& topo, SimParams params)
    : topo_(&topo), network_(topo, params) {}

ExecutionResult Executor::run(const TaskGraph& graph) const {
  const int n = graph.size();
  ExecutionResult result;
  result.timings.assign(static_cast<std::size_t>(n), TaskTiming{});
  result.acc_busy.assign(static_cast<std::size_t>(topo_->size()), Seconds(0.0));

  std::vector<int> missing_deps(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<TaskId>> dependents(static_cast<std::size_t>(n));
  for (const Task& task : graph.tasks()) {
    missing_deps[static_cast<std::size_t>(task.id)] =
        static_cast<int>(task.deps.size());
    for (TaskId dep : task.deps) {
      dependents[static_cast<std::size_t>(dep)].push_back(task.id);
    }
  }

  // Resources are the accelerators, then the directed channels: when each
  // frees, and who is parked on it.
  const int accs = topo_->size();
  const auto resources =
      static_cast<std::size_t>(accs + network_.num_channels());
  std::vector<Seconds> free(resources, Seconds(0.0));
  WaitQueues<Waiter> waits(resources);
  // Route cache per transfer task.
  std::vector<std::vector<RouteLeg>> routes(static_cast<std::size_t>(n));

  EventQueue<Event> queue;
  int completed = 0;

  auto finish_task = [&](TaskId id, Seconds now) {
    result.timings[static_cast<std::size_t>(id)].end = now;
    result.timings[static_cast<std::size_t>(id)].executed = true;
    result.makespan = std::max(result.makespan, now);
    ++completed;
    for (TaskId dependent : dependents[static_cast<std::size_t>(id)]) {
      if (--missing_deps[static_cast<std::size_t>(dependent)] == 0) {
        queue.push(now, Event{Event::Kind::kTryStart, dependent, 0});
      }
    }
  };

  // Starts `waiter` on resource `r`, which is free at `now`.
  auto start = [&](const Waiter& waiter, std::size_t r, Seconds now) {
    const Task& task = graph.task(waiter.task);
    if (waiter.leg == 0) {
      result.timings[static_cast<std::size_t>(task.id)].start = now;
    }
    if (task.kind == TaskKind::kCompute) {
      free[r] = now + task.duration;
      result.acc_busy[r] += task.duration;
      queue.push(free[r], Event{Event::Kind::kTaskDone, task.id, 0});
      return;
    }
    const RouteLeg& leg = routes[static_cast<std::size_t>(task.id)]
                                [static_cast<std::size_t>(waiter.leg)];
    free[r] = now + network_.leg_time(leg, task.bytes);
    queue.push(free[r], Event{Event::Kind::kLegDone, task.id, waiter.leg});
  };

  // A fresh try: start now, or park in the resource's wait queue.
  auto try_start = [&](const Waiter& waiter, std::size_t r, Seconds now) {
    if (free[r] > now) {
      waits.park(r, waiter, free[r], queue,
                 Event{Event::Kind::kWake, static_cast<int>(r), 0});
      return;
    }
    start(waiter, r, now);
  };

  for (const Task& task : graph.tasks()) {
    if (task.deps.empty()) {
      queue.push(Seconds(0.0), Event{Event::Kind::kTryStart, task.id, 0});
    }
  }

  while (!queue.empty()) {
    Seconds now;
    const Event event = queue.pop(now);
    ++result.events;

    switch (event.kind) {
      case Event::Kind::kTryStart: {
        const Task& task = graph.task(event.task);
        if (event.leg == 0) {
          result.timings[static_cast<std::size_t>(task.id)].start = now;
        }
        switch (task.kind) {
          case TaskKind::kBarrier:
            finish_task(task.id, now);
            break;
          case TaskKind::kCompute:
            try_start(Waiter{task.id, 0}, static_cast<std::size_t>(task.acc),
                      now);
            break;
          case TaskKind::kTransfer: {
            if (task.bytes.count() <= 0.0) {
              finish_task(task.id, now);
              break;
            }
            auto& route = routes[static_cast<std::size_t>(task.id)];
            if (route.empty()) route = network_.route(task.src, task.dst);
            MARS_CHECK(event.leg < static_cast<int>(route.size()),
                       "leg index out of range");
            const RouteLeg& leg = route[static_cast<std::size_t>(event.leg)];
            try_start(Waiter{task.id, event.leg},
                      static_cast<std::size_t>(accs + leg.channel), now);
            break;
          }
        }
        break;
      }
      case Event::Kind::kLegDone: {
        const auto& route = routes[static_cast<std::size_t>(event.task)];
        if (event.leg + 1 < static_cast<int>(route.size())) {
          // Store-and-forward at the host before the next leg.
          queue.push(now + network_.params().host_latency,
                     Event{Event::Kind::kTryStart, event.task, event.leg + 1});
        } else {
          finish_task(event.task, now);
        }
        break;
      }
      case Event::Kind::kTaskDone:
        finish_task(event.task, now);
        break;
      case Event::Kind::kWake: {
        const auto r = static_cast<std::size_t>(event.task);
        waits.wake(r, now, free[r], queue, event,
                   [&](const Waiter& waiter) { start(waiter, r, now); });
        break;
      }
    }
  }

  MARS_CHECK(completed == n, "deadlock: " << (n - completed)
                                          << " tasks never became ready "
                                             "(dependency cycle?)");
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->counter("sim.events").add(result.events);
  }
  return result;
}

}  // namespace mars::sim
