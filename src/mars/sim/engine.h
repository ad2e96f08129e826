// The discrete-event engine: the one loop that replays flat task graphs
// against the topology's accelerators and channels.
//
// Accelerators run one compute task at a time; directed channels carry one
// flow at a time at full bandwidth; multi-leg transfers (via the host)
// store-and-forward. A task that finds its resource busy parks in the
// resource's wait queue (sim/wait_queue.h), in the order its retry would
// have popped, and a release pops one wake event, so a replay costs
// O(events log events) however deep the backlog. Ties resolve by event
// insertion order, so replays are bit-deterministic.
//
// The engine replays any number of instances of any number of graphs at
// once. sim::Executor adds one instance at t=0; the serving scheduler
// (serve/scheduler.cpp) adds one per admitted request while the clock
// advances, and queues its arrivals and batch deadlines here as External
// events, so they share one (time, seq) order with the task events.
//
// Instances live in arena blocks: a header (the caller's Meta plus
// bookkeeping) and a trailing missing-dependency count per task, copied
// from FlatTaskGraph::dep_counts. A block is recycled through its graph's
// free list the moment its last task finishes: by then every event that
// referenced it has popped and none of its tasks is parked, so reuse is
// safe and deterministic, and steady-state replay allocates nothing.
//
// drain(hooks) pops events until the queue is empty and reports to
// `hooks`, a statically dispatched object (derive it from NoHooks and
// define the calls you need):
//   external(const External&)         an External event popped
//   begun(Instance&, int task)        the task's first leg starts now (a
//                                     barrier or empty transfer: it is
//                                     ready now and finishes at once)
//   compute_started(Instance&, int acc, Seconds duration)
//                                     a compute task takes `acc` now
//   finished(Instance&, int task)     the task finished now
//   completed(Instance&)              the instance's last task finished
//                                     (after its dependents were readied);
//                                     the block is recycled on return
// Hooks may push External events and add instances.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "mars/sim/event_queue.h"
#include "mars/sim/network.h"
#include "mars/sim/task_graph.h"
#include "mars/sim/wait_queue.h"
#include "mars/util/arena.h"
#include "mars/util/error.h"

namespace mars::sim {

/// Hooks that ignore every report; callers derive and hide what they use.
struct NoHooks {
  template <typename External>
  void external(const External& /*event*/) {}
  template <typename Instance>
  void begun(Instance& /*instance*/, int /*task*/) {}
  template <typename Instance>
  void compute_started(Instance& /*instance*/, int /*acc*/,
                       Seconds /*duration*/) {}
  template <typename Instance>
  void finished(Instance& /*instance*/, int /*task*/) {}
  template <typename Instance>
  void completed(Instance& /*instance*/) {}
};

/// `Meta` is the caller's per-instance state (trivially destructible:
/// blocks are recycled without destructors), `External` the payload of
/// its own events.
template <typename Meta, typename External>
class Engine {
 public:
  struct Instance {
    [[no_unique_address]] Meta meta;
    int graph = 0;  // index into the engine's graphs
    int tasks_remaining = 0;
    Instance* next_free = nullptr;

    /// The trailing missing-dependency array (one int per graph task).
    [[nodiscard]] int* missing() { return reinterpret_cast<int*>(this + 1); }
  };

  /// `graphs` must target `topo` (FlatTaskGraph::check_resources) and
  /// outlive the engine.
  Engine(const topology::Topology& topo, const SimParams& params,
         std::vector<const FlatTaskGraph*> graphs)
      : network_(topo, params),
        graphs_(std::move(graphs)),
        free_lists_(graphs_.size(), nullptr),
        accs_(topo.size()),
        free_(static_cast<std::size_t>(accs_ + network_.num_channels()),
              Seconds(0.0)),
        waits_(free_.size()),
        routes_(static_cast<std::size_t>((accs_ + 1) * (accs_ + 1))),
        acc_busy_(static_cast<std::size_t>(accs_), Seconds(0.0)) {}

  /// Pre-sizes the event heap for `events` concurrent events.
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Queues `event` for hooks.external at `time`.
  void push(Seconds time, const External& event) {
    queue_.push(time, Event(event));
  }

  /// Adds an instance of graph `graph` at now(): its roots become ready
  /// in id order.
  void add(int graph, const Meta& meta) {
    const auto g = static_cast<std::size_t>(graph);
    const FlatTaskGraph& flat = *graphs_[g];
    Instance* instance = free_lists_[g];
    if (instance != nullptr) {
      free_lists_[g] = instance->next_free;
    } else {
      void* block = arena_.allocate(
          sizeof(Instance) + sizeof(int) * static_cast<std::size_t>(flat.size),
          alignof(Instance));
      instance = new (block) Instance();
    }
    instance->meta = meta;
    instance->graph = graph;
    instance->tasks_remaining = flat.size;
    instance->next_free = nullptr;
    if (flat.size > 0) {
      std::memcpy(instance->missing(), flat.dep_counts.data(),
                  sizeof(int) * static_cast<std::size_t>(flat.size));
    }
    for (const TaskId root : flat.roots) {
      queue_.push(now_, Event(Kind::kTryStart, Ref{instance, root, 0}));
    }
  }

  /// Pops events until none is left, reporting to `hooks`.
  template <typename Hooks>
  void drain(Hooks& hooks) {
    while (!queue_.empty()) {
      const Event event = queue_.pop(now_);
      ++events_;
      switch (event.kind) {
        case Kind::kExternal:
          hooks.external(event.external);
          break;
        case Kind::kTryStart:
          try_start(hooks, event.ref());
          break;
        case Kind::kLegDone:
          leg_done(hooks, event.ref());
          break;
        case Kind::kTaskDone:
          finish(hooks, *event.instance, event.task);
          break;
        case Kind::kWake: {
          const auto r = static_cast<std::size_t>(event.task);
          waits_.wake(r, now_, free_[r], queue_, event,
                      [&](const Ref& waiter) { start(hooks, waiter, r); });
          break;
        }
      }
    }
  }

  /// The clock: the time of the latest popped event.
  [[nodiscard]] Seconds now() const { return now_; }
  /// When accelerator `acc` finishes its running task (<= now() if idle).
  [[nodiscard]] Seconds free_at(int acc) const {
    return free_[static_cast<std::size_t>(acc)];
  }
  /// Compute-busy seconds per accelerator.
  [[nodiscard]] const std::vector<Seconds>& acc_busy() const {
    return acc_busy_;
  }
  /// When the latest task finished.
  [[nodiscard]] Seconds horizon() const { return horizon_; }
  [[nodiscard]] long long tasks_executed() const { return tasks_executed_; }
  [[nodiscard]] long long events() const { return events_; }

 private:
  // The trailing int array sits right after the header, and recycling
  // skips destructors.
  static_assert(std::is_trivially_destructible_v<Instance>);
  static_assert(alignof(Instance) % alignof(int) == 0);

  enum class Kind : std::uint8_t {
    kExternal,  // the caller's event
    kTryStart,  // task `ref()` wants to start leg `leg` (0 for compute)
    kLegDone,   // transfer `ref()` finished leg `leg`
    kTaskDone,  // compute task `ref()` finished
    kWake,      // the wait queue of resource `task` pops its front block
  };

  /// Task `task` of `instance` at leg `leg`: what events name and wait
  /// queues hold.
  struct Ref {
    Instance* instance = nullptr;
    int task = -1;
    int leg = 0;
  };

  /// A Ref and a kind in 16 bytes, then the caller's payload: the heap
  /// moves events on every push and pop, so serving's 24-byte payload
  /// keeps its entries at one 64-byte line. (As a union with the payload,
  /// or with an unpacked Ref, serving replays measured 5-13% slower.)
  struct Event {
    Event(Kind kind_in, const Ref& ref)
        : instance(ref.instance),
          task(ref.task),
          leg(static_cast<std::int16_t>(ref.leg)),
          kind(kind_in) {}
    explicit Event(const External& event)
        : kind(Kind::kExternal), external(event) {}

    [[nodiscard]] Ref ref() const { return Ref{instance, task, leg}; }

    Instance* instance = nullptr;
    int task = -1;
    std::int16_t leg = 0;
    Kind kind;
    [[no_unique_address]] External external{};
  };

  template <typename Hooks>
  void try_start(Hooks& hooks, const Ref& ref) {
    Instance& instance = *ref.instance;
    const FlatTaskGraph& flat = graph_of(instance);
    const auto t = static_cast<std::size_t>(ref.task);
    switch (flat.kinds[t]) {
      case TaskKind::kBarrier:
        hooks.begun(instance, ref.task);
        finish(hooks, instance, ref.task);
        break;
      case TaskKind::kCompute:
        take(hooks, ref, static_cast<std::size_t>(flat.accs[t]));
        break;
      case TaskKind::kTransfer: {
        if (flat.bytes[t].count() <= 0.0) {
          hooks.begun(instance, ref.task);
          finish(hooks, instance, ref.task);
          break;
        }
        const std::vector<RouteLeg>& route = route_for(flat.srcs[t],
                                                       flat.dsts[t]);
        MARS_CHECK(ref.leg < static_cast<int>(route.size()),
                   "leg index out of range");
        const RouteLeg& hop = route[static_cast<std::size_t>(ref.leg)];
        take(hooks, ref, static_cast<std::size_t>(accs_ + hop.channel));
        break;
      }
    }
  }

  /// A fresh try on resource `r` (accelerators first, then channels):
  /// start now, or park in the resource's wait queue.
  template <typename Hooks>
  void take(Hooks& hooks, const Ref& ref, std::size_t r) {
    if (free_[r] > now_) {
      waits_.park(r, ref, free_[r], queue_,
                  Event(Kind::kWake, Ref{nullptr, static_cast<int>(r), 0}));
      return;
    }
    start(hooks, ref, r);
  }

  /// Starts `ref` on resource `r`, which is free now.
  template <typename Hooks>
  void start(Hooks& hooks, const Ref& ref, std::size_t r) {
    Instance& instance = *ref.instance;
    const FlatTaskGraph& flat = graph_of(instance);
    const auto t = static_cast<std::size_t>(ref.task);
    if (ref.leg == 0) hooks.begun(instance, ref.task);
    if (flat.kinds[t] == TaskKind::kCompute) {
      const Seconds duration = flat.durations[t];
      free_[r] = now_ + duration;
      acc_busy_[r] += duration;
      hooks.compute_started(instance, static_cast<int>(r), duration);
      queue_.push(free_[r], Event(Kind::kTaskDone, ref));
      return;
    }
    const RouteLeg& hop = route_for(flat.srcs[t], flat.dsts[t])
        [static_cast<std::size_t>(ref.leg)];
    free_[r] = now_ + network_.leg_time(hop, flat.bytes[t]);
    queue_.push(free_[r], Event(Kind::kLegDone, ref));
  }

  template <typename Hooks>
  void leg_done(Hooks& hooks, const Ref& ref) {
    const FlatTaskGraph& flat = graph_of(*ref.instance);
    const auto t = static_cast<std::size_t>(ref.task);
    if (ref.leg + 1 <
        static_cast<int>(route_for(flat.srcs[t], flat.dsts[t]).size())) {
      // Store-and-forward at the host before the next leg.
      queue_.push(now_ + network_.params().host_latency,
                  Event(Kind::kTryStart, Ref{ref.instance, ref.task,
                                             ref.leg + 1}));
    } else {
      finish(hooks, *ref.instance, ref.task);
    }
  }

  template <typename Hooks>
  void finish(Hooks& hooks, Instance& instance, int task) {
    horizon_ = std::max(horizon_, now_);
    ++tasks_executed_;
    hooks.finished(instance, task);
    const FlatTaskGraph& flat = graph_of(instance);
    int* missing = instance.missing();
    const auto t = static_cast<std::size_t>(task);
    const auto begin = static_cast<std::size_t>(flat.dependent_offsets[t]);
    const auto end = static_cast<std::size_t>(flat.dependent_offsets[t + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const TaskId dependent = flat.dependents[i];
      if (--missing[dependent] == 0) {
        queue_.push(now_, Event(Kind::kTryStart, Ref{&instance, dependent, 0}));
      }
    }
    if (--instance.tasks_remaining == 0) {
      hooks.completed(instance);
      const auto g = static_cast<std::size_t>(instance.graph);
      instance.next_free = free_lists_[g];
      free_lists_[g] = &instance;
    }
  }

  [[nodiscard]] const FlatTaskGraph& graph_of(const Instance& instance) const {
    return *graphs_[static_cast<std::size_t>(instance.graph)];
  }

  const std::vector<RouteLeg>& route_for(int src, int dst) {
    auto& slot = routes_[static_cast<std::size_t>((src + 1) * (accs_ + 1) +
                                                  (dst + 1))];
    if (!slot) slot = network_.route(src, dst);
    return *slot;
  }

  Network network_;
  EventQueue<Event> queue_;
  Seconds now_{};

  // Instance pool: blocks recycled through per-graph free lists, backing
  // storage in the arena.
  std::vector<const FlatTaskGraph*> graphs_;
  std::vector<Instance*> free_lists_;
  util::Arena arena_;

  // Resources are the accelerators, then the directed channels: when each
  // frees, and who is parked on it.
  int accs_;
  std::vector<Seconds> free_;
  WaitQueues<Ref> waits_;
  // Routes by (src, dst), host included, computed on first use.
  std::vector<std::optional<std::vector<RouteLeg>>> routes_;

  std::vector<Seconds> acc_busy_;
  Seconds horizon_{};
  long long tasks_executed_ = 0;
  long long events_ = 0;
};

}  // namespace mars::sim
