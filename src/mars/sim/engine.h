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
// Each task's work is resolved once, when the engine is built: a step
// record per task holds, for each leg, the resource it takes (an
// accelerator, or a channel of its route) and for how long. Barriers and
// zero-byte transfers have no leg and finish as soon as they are ready.
// The event loop reads that record and nothing else of the task's
// columns, routes or link timing.
//
// The engine replays any number of instances of any number of graphs at
// once. sim::Executor adds one instance at t=0; the serving scheduler
// (serve/scheduler.cpp) adds one per admitted request while the clock
// advances, and queues its arrivals and batch deadlines here as External
// events, so they share one (time, seq) order with the task events. An
// External event's payload waits in an engine-owned slot table, so queue
// entries stay 32 bytes whatever the caller's payload; slots are recycled
// as their events pop, and reserve() pre-sizes the table.
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
#include <array>
#include <cstdint>
#include <cstring>
#include <new>
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
         const std::vector<const FlatTaskGraph*>& graphs)
      : Engine(topo.size(), Network(topo, params), graphs) {}

  /// Pre-sizes the event queue for `events` concurrent events, and the
  /// External slot table for `externals` of them.
  void reserve(std::size_t events, std::size_t externals) {
    queue_.reserve(events);
    externals_.reserve(externals);
    spare_externals_.reserve(externals);
  }

  /// Queues `event` for hooks.external at `time`.
  void push(Seconds time, const External& event) {
    int slot = static_cast<int>(externals_.size());
    if (spare_externals_.empty()) {
      externals_.push_back(event);
    } else {
      slot = spare_externals_.back();
      spare_externals_.pop_back();
      externals_[static_cast<std::size_t>(slot)] = event;
    }
    queue_.push(time, Event(Kind::kExternal, Ref{nullptr, slot, 0}));
  }

  /// Adds an instance of graph `graph` at now(): its roots become ready
  /// in id order.
  void add(int graph, const Meta& meta) {
    Graph& g = graphs_[static_cast<std::size_t>(graph)];
    const FlatTaskGraph& flat = *g.flat;
    Instance* instance = g.free_list;
    if (instance != nullptr) {
      g.free_list = instance->next_free;
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
        case Kind::kExternal: {
          // Copy the payload out and free its slot first: the hook may
          // push further externals.
          const auto slot = static_cast<std::size_t>(event.task);
          const External external = externals_[slot];
          spare_externals_.push_back(event.task);
          hooks.external(external);
          break;
        }
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
    kExternal,  // the caller's event, its payload in slot `task`
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

  /// A Ref and a kind packed into 16 bytes, so a queue entry with its
  /// (time, seq) key is 32: the heap moves entries on every push and pop.
  struct Event {
    Event(Kind kind_in, const Ref& ref)
        : instance(ref.instance),
          task(ref.task),
          leg(static_cast<std::int16_t>(ref.leg)),
          kind(kind_in) {}

    [[nodiscard]] Ref ref() const { return Ref{instance, task, leg}; }

    Instance* instance = nullptr;
    int task = -1;
    std::int16_t leg = 0;
    Kind kind;
  };
  static_assert(sizeof(Event) == 16);

  /// A task's work, resolved when the engine is built: per leg, the
  /// resource it takes (accelerators first, then channels) and for how
  /// long. A compute task has one leg on its accelerator, a transfer one
  /// per route leg; a barrier or zero-byte transfer has none.
  struct Step {
    static constexpr std::size_t kMaxLegs = 2;  // Network::route's longest
    std::array<Seconds, kMaxLegs> durations{};
    std::array<std::uint32_t, kMaxLegs> resources{};
    int legs = 0;
    bool compute = false;
  };

  /// One graph: its flat form, one Step per task, and the recycled
  /// instance blocks.
  struct Graph {
    const FlatTaskGraph* flat = nullptr;
    std::vector<Step> steps;
    Instance* free_list = nullptr;
  };

  Engine(int accs, const Network& network,
         const std::vector<const FlatTaskGraph*>& graphs)
      : host_latency_(network.params().host_latency),
        free_(static_cast<std::size_t>(accs + network.num_channels()),
              Seconds(0.0)),
        waits_(free_.size()),
        acc_busy_(static_cast<std::size_t>(accs), Seconds(0.0)) {
    std::vector<std::vector<RouteLeg>> routes(
        static_cast<std::size_t>((accs + 1) * (accs + 1)));
    graphs_.reserve(graphs.size());
    for (const FlatTaskGraph* flat : graphs) {
      Graph& graph = graphs_.emplace_back();
      graph.flat = flat;
      graph.steps.resize(static_cast<std::size_t>(flat->size));
      for (std::size_t t = 0; t < graph.steps.size(); ++t) {
        graph.steps[t] = resolve(*flat, t, accs, network, routes);
      }
    }
  }

  /// Task `t`'s Step; `routes` memoises Network::route by (src, dst).
  [[nodiscard]] static Step resolve(
      const FlatTaskGraph& flat, std::size_t t, int accs,
      const Network& network, std::vector<std::vector<RouteLeg>>& routes) {
    Step step;
    if (flat.kinds[t] == TaskKind::kCompute) {
      step.legs = 1;
      step.compute = true;
      step.resources[0] = static_cast<std::uint32_t>(flat.accs[t]);
      step.durations[0] = flat.durations[t];
    } else if (flat.kinds[t] == TaskKind::kTransfer &&
               flat.bytes[t].count() > 0.0) {
      std::vector<RouteLeg>& route =
          routes[static_cast<std::size_t>((flat.srcs[t] + 1) * (accs + 1) +
                                          (flat.dsts[t] + 1))];
      if (route.empty()) route = network.route(flat.srcs[t], flat.dsts[t]);
      MARS_CHECK(route.size() <= Step::kMaxLegs, "route has too many legs");
      step.legs = static_cast<int>(route.size());
      for (std::size_t leg = 0; leg < route.size(); ++leg) {
        step.resources[leg] =
            static_cast<std::uint32_t>(accs + route[leg].channel);
        step.durations[leg] = network.leg_time(route[leg], flat.bytes[t]);
      }
    }
    return step;
  }

  template <typename Hooks>
  void try_start(Hooks& hooks, const Ref& ref) {
    const Step& step = step_of(ref);
    if (step.legs == 0) {
      hooks.begun(*ref.instance, ref.task);
      finish(hooks, *ref.instance, ref.task);
      return;
    }
    take(hooks, ref, step.resources[static_cast<std::size_t>(ref.leg)]);
  }

  /// A fresh try on resource `r`: start now, or park in the resource's
  /// wait queue.
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
    const Step& step = step_of(ref);
    if (ref.leg == 0) hooks.begun(instance, ref.task);
    const Seconds duration = step.durations[static_cast<std::size_t>(ref.leg)];
    free_[r] = now_ + duration;
    if (!step.compute) {
      queue_.push(free_[r], Event(Kind::kLegDone, ref));
      return;
    }
    acc_busy_[r] += duration;
    hooks.compute_started(instance, static_cast<int>(r), duration);
    queue_.push(free_[r], Event(Kind::kTaskDone, ref));
  }

  template <typename Hooks>
  void leg_done(Hooks& hooks, const Ref& ref) {
    if (ref.leg + 1 < step_of(ref).legs) {
      // Store-and-forward at the host before the next leg.
      queue_.push(now_ + host_latency_,
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
    Graph& graph = graphs_[static_cast<std::size_t>(instance.graph)];
    const FlatTaskGraph& flat = *graph.flat;
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
      instance.next_free = graph.free_list;
      graph.free_list = &instance;
    }
  }

  [[nodiscard]] const Step& step_of(const Ref& ref) const {
    return graphs_[static_cast<std::size_t>(ref.instance->graph)]
        .steps[static_cast<std::size_t>(ref.task)];
  }

  EventQueue<Event> queue_;
  Seconds now_{};
  // External payloads by slot, and the slots free for reuse.
  std::vector<External> externals_;
  std::vector<int> spare_externals_;

  // The graphs, each with its instance pool; backing storage in the arena.
  std::vector<Graph> graphs_;
  util::Arena arena_;

  Seconds host_latency_;
  // Resources are the accelerators, then the directed channels: when each
  // frees, and who is parked on it.
  std::vector<Seconds> free_;
  WaitQueues<Ref> waits_;

  std::vector<Seconds> acc_busy_;
  Seconds horizon_{};
  long long tasks_executed_ = 0;
  long long events_ = 0;
};

}  // namespace mars::sim
