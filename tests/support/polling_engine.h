// Retained oracle: the retry-polling event loops that sim::Executor::run
// and the serving engine (serve/scheduler.cpp) used before resource wait
// queues replaced them.
//
// Under polling, a task that finds its accelerator or channel busy pushes
// a fresh try event for the instant the resource frees; with N tasks
// parked, every release wakes all N, one wins and N-1 re-push. The loops
// below are that implementation, kept line for line except that the
// serving engine's trace/metrics hooks are dropped (they never influenced
// a ServeResult) and both loops count popped events. The wait-queue
// differential tests (tests/sim/test_wait_queue_differential.cpp) require
// the production loops to match these exactly (double ==), and use the
// event counts to show the quadratic work the queues remove. Both loops
// pop from the retained single-heap queue (support/heap_event_queue.h),
// so they share no queue code with the engine.
#pragma once

#include <algorithm>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "mars/serve/scheduler.h"
#include "mars/sim/executor.h"
#include "mars/util/arena.h"
#include "mars/util/error.h"
#include "support/heap_event_queue.h"

namespace mars::testing::polling {

/// Polling sim::Executor::run over `graph`.
inline sim::ExecutionResult execute(const topology::Topology& topo,
                                    const sim::SimParams& params,
                                    const sim::TaskGraph& graph) {
  using namespace sim;
  struct Event {
    enum class Kind : std::uint8_t { kTryStart, kLegDone, kTaskDone } kind;
    TaskId task = -1;
    int leg = 0;
  };
  const Network network(topo, params);

  const int n = graph.size();
  ExecutionResult result;
  result.timings.assign(static_cast<std::size_t>(n), TaskTiming{});
  result.acc_busy.assign(static_cast<std::size_t>(topo.size()), Seconds(0.0));

  std::vector<int> missing_deps(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<TaskId>> dependents(static_cast<std::size_t>(n));
  for (const Task& task : graph.tasks()) {
    missing_deps[static_cast<std::size_t>(task.id)] =
        static_cast<int>(task.deps.size());
    for (TaskId dep : task.deps) {
      dependents[static_cast<std::size_t>(dep)].push_back(task.id);
    }
  }

  // Resource availability.
  std::vector<Seconds> acc_free(static_cast<std::size_t>(topo.size()),
                                Seconds(0.0));
  std::vector<Seconds> channel_free(
      static_cast<std::size_t>(network.num_channels()), Seconds(0.0));
  // Route cache per transfer task.
  std::vector<std::vector<RouteLeg>> routes(static_cast<std::size_t>(n));

  HeapEventQueue<Event> queue;
  int completed = 0;

  auto finish_task = [&](TaskId id, Seconds now) {
    result.timings[static_cast<std::size_t>(id)].end = now;
    result.makespan = std::max(result.makespan, now);
    ++completed;
    for (TaskId dependent : dependents[static_cast<std::size_t>(id)]) {
      if (--missing_deps[static_cast<std::size_t>(dependent)] == 0) {
        queue.push(now, Event{Event::Kind::kTryStart, dependent, 0});
      }
    }
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
    const Task& task = graph.task(event.task);
    TaskTiming& timing = result.timings[static_cast<std::size_t>(event.task)];

    switch (event.kind) {
      case Event::Kind::kTryStart: {
        if (event.leg == 0) timing.start = now;
        switch (task.kind) {
          case TaskKind::kBarrier:
            finish_task(task.id, now);
            break;
          case TaskKind::kCompute: {
            Seconds& free = acc_free[static_cast<std::size_t>(task.acc)];
            if (free > now) {
              queue.push(free, Event{Event::Kind::kTryStart, task.id, 0});
              break;
            }
            timing.start = now;
            const Seconds end = now + task.duration;
            free = end;
            result.acc_busy[static_cast<std::size_t>(task.acc)] += task.duration;
            queue.push(end, Event{Event::Kind::kTaskDone, task.id, 0});
            break;
          }
          case TaskKind::kTransfer: {
            if (task.bytes.count() <= 0.0) {
              finish_task(task.id, now);
              break;
            }
            auto& route = routes[static_cast<std::size_t>(task.id)];
            if (route.empty()) route = network.route(task.src, task.dst);
            MARS_CHECK(event.leg < static_cast<int>(route.size()),
                       "leg index out of range");
            const RouteLeg& leg = route[static_cast<std::size_t>(event.leg)];
            Seconds& free = channel_free[static_cast<std::size_t>(leg.channel)];
            if (free > now) {
              queue.push(free, Event{Event::Kind::kTryStart, task.id, event.leg});
              break;
            }
            if (event.leg == 0) timing.start = now;
            const Seconds end = now + network.leg_time(leg, task.bytes);
            free = end;
            queue.push(end, Event{Event::Kind::kLegDone, task.id, event.leg});
            break;
          }
        }
        break;
      }
      case Event::Kind::kLegDone: {
        const auto& route = routes[static_cast<std::size_t>(event.task)];
        if (event.leg + 1 < static_cast<int>(route.size())) {
          // Store-and-forward at the host before the next leg.
          queue.push(now + network.params().host_latency,
                     Event{Event::Kind::kTryStart, task.id, event.leg + 1});
        } else {
          finish_task(task.id, now);
        }
        break;
      }
      case Event::Kind::kTaskDone:
        finish_task(event.task, now);
        break;
    }
  }

  MARS_CHECK(completed == n, "deadlock: " << (n - completed)
                                          << " tasks never became ready "
                                             "(dependency cycle?)");
  return result;
}

namespace detail {

using serve::AdmissionPolicy;
using serve::Batcher;
using serve::BatchPolicy;
using serve::CompletedRequest;
using serve::Request;
using serve::SchedulerOptions;
using serve::ServedModel;
using serve::ServeResult;
using sim::TaskKind;

/// Arena-backed state of one admitted request: a fixed header plus the
/// per-task missing-dependency counters, in a single block sized by the
/// model's task count. Blocks are recycled through a per-model intrusive
/// free list the moment the request completes — by then every event that
/// referenced the instance has been consumed (a task event exists only
/// while its task is unfinished), so reuse is safe and deterministic.
struct Instance {
  Request request;
  Seconds dispatch{};
  int batch_size = 1;
  int tasks_remaining = 0;
  Instance* next_free = nullptr;

  /// The trailing missing-dependency array (one int per prototype task).
  [[nodiscard]] int* missing() { return reinterpret_cast<int*>(this + 1); }
};

static_assert(std::is_trivially_destructible_v<Instance>);
static_assert(alignof(Instance) % alignof(int) == 0);

struct Event {
  enum class Kind : std::uint8_t {
    kArrival,       // `request` enters its model's batcher
    kDeadline,      // re-check model `index`'s batch timeout
    kTryStart,      // task `index` of `instance`, leg `leg`, wants resources
    kLegDone,       // transfer task `index` of `instance` finished leg `leg`
    kTaskDone,      // compute task `index` of `instance` finished
  };
  Kind kind;
  int index = -1;  // prototype task index or model id, depending on kind
  int leg = 0;
  Instance* instance = nullptr;  // task events only
  Request request;               // kArrival only
};

/// The polling serving engine.
class Engine {
 public:
  Engine(const topology::Topology& topo,
         const std::vector<ServedModel>& models,
         const SchedulerOptions& options)
      : topo_(&topo),
        models_(&models),
        network_(topo, options.sim),
        route_cache_(static_cast<std::size_t>((topo.size() + 1) *
                                              (topo.size() + 1))) {
    immediate_dispatch_ = options.policy.kind == BatchPolicy::Kind::kNone;
    if (!immediate_dispatch_) {
      batchers_.reserve(models.size());
      for (std::size_t m = 0; m < models.size(); ++m) {
        batchers_.emplace_back(options.policy);
      }
      armed_deadline_.assign(models.size(), std::nullopt);
    }
    result_.acc_busy.assign(static_cast<std::size_t>(topo.size()),
                            Seconds(0.0));

    admission_ = options.admission;
    in_system_.assign(models.size(), 0);
    queued_work_.assign(static_cast<std::size_t>(topo.size()), Seconds(0.0));
    flats_.reserve(models.size());
    free_list_.assign(models.size(), nullptr);
    service_accs_.resize(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const sim::FlatTaskGraph& flat = *models[m].flat;
      flats_.push_back(&flat);
      std::vector<bool> used(static_cast<std::size_t>(topo.size()), false);
      for (int t = 0; t < flat.size; ++t) {
        if (flat.kinds[static_cast<std::size_t>(t)] == TaskKind::kCompute) {
          used[static_cast<std::size_t>(
              flat.accs[static_cast<std::size_t>(t)])] = true;
        }
      }
      for (int a = 0; a < topo.size(); ++a) {
        if (used[static_cast<std::size_t>(a)]) service_accs_[m].push_back(a);
      }
    }
  }

  void reserve(std::size_t arrivals) {
    std::size_t task_slack = 64;
    for (const sim::FlatTaskGraph* flat : flats_) {
      task_slack += 16 * static_cast<std::size_t>(flat->size);
    }
    queue_.reserve(arrivals + task_slack);
    result_.completed.reserve(arrivals);
    result_.rejected.reserve(arrivals);
  }

  void add_arrival(const Request& request) {
    queue_.push(request.arrival,
                Event{Event::Kind::kArrival, -1, 0, nullptr, request});
    next_request_id_ = std::max(next_request_id_, request.id + 1);
  }

  void enable_closed_loop(Seconds think, Seconds duration) {
    closed_loop_ = true;
    think_ = think;
    issue_horizon_ = duration;
  }

  ServeResult run() {
    for (;;) {
      drain_events();
      bool flushed = false;
      for (std::size_t m = 0; m < batchers_.size(); ++m) {
        for (std::vector<Request>& batch : batchers_[m].flush()) {
          dispatch(std::move(batch), now_);
          flushed = true;
        }
      }
      if (!flushed) break;
    }
    MARS_CHECK(admitted_ == static_cast<long long>(result_.completed.size()),
               "serving deadlock: "
                   << admitted_ -
                          static_cast<long long>(result_.completed.size())
                   << " requests never completed");
    return std::move(result_);
  }

 private:
  void drain_events() {
    while (!queue_.empty()) {
      const Event event = queue_.pop(now_);
      ++result_.events;
      switch (event.kind) {
        case Event::Kind::kArrival:
          handle_arrival(event.request);
          break;
        case Event::Kind::kDeadline:
          drain_batcher(event.index);
          break;
        case Event::Kind::kTryStart:
          try_start(event.instance, event.index, event.leg);
          break;
        case Event::Kind::kLegDone:
          leg_done(event.instance, event.index, event.leg);
          break;
        case Event::Kind::kTaskDone:
          finish_task(event.instance, event.index);
          break;
      }
    }
  }

  void handle_arrival(const Request& request) {
    if (!admit(request)) {
      result_.rejected.push_back(request);
      reissue_after_think(request.model, request.client);
      return;
    }
    ++in_system_[static_cast<std::size_t>(request.model)];
    if (immediate_dispatch_) {
      dispatch_single(request, now_);
      return;
    }
    batchers_[static_cast<std::size_t>(request.model)].push(request);
    drain_batcher(request.model);
  }

  [[nodiscard]] bool admit(const Request& request) const {
    const auto m = static_cast<std::size_t>(request.model);
    switch (admission_.kind) {
      case AdmissionPolicy::Kind::kNone:
        return true;
      case AdmissionPolicy::Kind::kShed:
        return in_system_[m] < admission_.max_depth;
      case AdmissionPolicy::Kind::kSlo:
        return predicted_latency(request.model) <=
               admission_.slo_for(request.model);
    }
    return true;
  }

  [[nodiscard]] Seconds predicted_latency(int model) const {
    Seconds backlog{};
    for (int acc : service_accs_[static_cast<std::size_t>(model)]) {
      const auto a = static_cast<std::size_t>(acc);
      Seconds wait = queued_work_[a];
      if (acc_free_[a] > now_) wait += acc_free_[a] - now_;
      backlog = std::max(backlog, wait);
    }
    return backlog +
           (*models_)[static_cast<std::size_t>(model)].single_latency;
  }

  void reissue_after_think(int model, int client) {
    if (!closed_loop_ || client < 0) return;
    const Seconds next = now_ + think_;
    if (next > issue_horizon_) return;  // client retires
    Request request;
    request.id = next_request_id_++;
    request.model = model;
    request.arrival = next;
    request.client = client;
    queue_.push(next, Event{Event::Kind::kArrival, -1, 0, nullptr, request});
  }

  void drain_batcher(int model) {
    Batcher& batcher = batchers_[static_cast<std::size_t>(model)];
    for (std::vector<Request>& batch : batcher.pop_ready(now_)) {
      dispatch(std::move(batch), now_);
    }
    const std::optional<Seconds> deadline = batcher.next_deadline();
    if (deadline &&
        deadline != armed_deadline_[static_cast<std::size_t>(model)]) {
      armed_deadline_[static_cast<std::size_t>(model)] = deadline;
      queue_.push(*deadline,
                  Event{Event::Kind::kDeadline, model, 0, nullptr, {}});
    }
  }

  void dispatch(std::vector<Request> batch, Seconds now) {
    ++result_.batches_dispatched;
    const int batch_size = static_cast<int>(batch.size());
    for (Request& request : batch) {
      instantiate(request, now, batch_size);
    }
  }

  void dispatch_single(const Request& request, Seconds now) {
    ++result_.batches_dispatched;
    instantiate(request, now, 1);
  }

  void instantiate(const Request& request, Seconds now, int batch_size) {
    const auto m = static_cast<std::size_t>(request.model);
    const sim::FlatTaskGraph& flat = *flats_[m];
    Instance* instance = free_list_[m];
    if (instance != nullptr) {
      free_list_[m] = instance->next_free;
    } else {
      void* block = arena_.allocate(
          sizeof(Instance) +
              sizeof(int) * static_cast<std::size_t>(flat.size),
          alignof(Instance));
      instance = new (block) Instance();
    }
    instance->request = request;
    instance->dispatch = now;
    instance->batch_size = batch_size;
    instance->tasks_remaining = flat.size;
    instance->next_free = nullptr;
    if (flat.size > 0) {
      std::memcpy(instance->missing(), flat.dep_counts.data(),
                  sizeof(int) * static_cast<std::size_t>(flat.size));
    }
    ++admitted_;
    for (int t = 0; t < flat.size; ++t) {
      if (flat.kinds[static_cast<std::size_t>(t)] == TaskKind::kCompute) {
        queued_work_[static_cast<std::size_t>(
            flat.accs[static_cast<std::size_t>(t)])] +=
            flat.durations[static_cast<std::size_t>(t)];
      }
    }
    for (sim::TaskId root : flat.roots) {
      queue_.push(now, Event{Event::Kind::kTryStart, root, 0, instance, {}});
    }
  }

  void try_start(Instance* instance, int t, int leg) {
    const sim::FlatTaskGraph& flat =
        *flats_[static_cast<std::size_t>(instance->request.model)];
    const auto ti = static_cast<std::size_t>(t);
    switch (flat.kinds[ti]) {
      case TaskKind::kBarrier:
        finish_task(instance, t);
        break;
      case TaskKind::kCompute: {
        const auto a = static_cast<std::size_t>(flat.accs[ti]);
        Seconds& free = acc_free_[a];
        if (free > now_) {
          queue_.push(free, Event{Event::Kind::kTryStart, t, 0, instance, {}});
          break;
        }
        const Seconds duration = flat.durations[ti];
        const Seconds end = now_ + duration;
        free = end;
        result_.acc_busy[a] += duration;
        queued_work_[a] -= duration;
        queue_.push(end, Event{Event::Kind::kTaskDone, t, 0, instance, {}});
        break;
      }
      case TaskKind::kTransfer: {
        if (flat.bytes[ti].count() <= 0.0) {
          finish_task(instance, t);
          break;
        }
        const std::vector<sim::RouteLeg>& route =
            route_for(flat.srcs[ti], flat.dsts[ti]);
        MARS_CHECK(leg < static_cast<int>(route.size()),
                   "leg index out of range");
        const sim::RouteLeg& hop = route[static_cast<std::size_t>(leg)];
        Seconds& free = channel_free_[static_cast<std::size_t>(hop.channel)];
        if (free > now_) {
          queue_.push(free,
                      Event{Event::Kind::kTryStart, t, leg, instance, {}});
          break;
        }
        const Seconds end = now_ + network_.leg_time(hop, flat.bytes[ti]);
        free = end;
        queue_.push(end, Event{Event::Kind::kLegDone, t, leg, instance, {}});
        break;
      }
    }
  }

  void leg_done(Instance* instance, int t, int leg) {
    const sim::FlatTaskGraph& flat =
        *flats_[static_cast<std::size_t>(instance->request.model)];
    const auto ti = static_cast<std::size_t>(t);
    const std::vector<sim::RouteLeg>& route =
        route_for(flat.srcs[ti], flat.dsts[ti]);
    if (leg + 1 < static_cast<int>(route.size())) {
      queue_.push(now_ + network_.params().host_latency,
                  Event{Event::Kind::kTryStart, t, leg + 1, instance, {}});
    } else {
      finish_task(instance, t);
    }
  }

  void finish_task(Instance* instance, int t) {
    result_.horizon = std::max(result_.horizon, now_);
    ++result_.tasks_executed;
    const sim::FlatTaskGraph& flat =
        *flats_[static_cast<std::size_t>(instance->request.model)];
    int* missing = instance->missing();
    const auto begin =
        static_cast<std::size_t>(flat.dependent_offsets[static_cast<std::size_t>(t)]);
    const auto end = static_cast<std::size_t>(
        flat.dependent_offsets[static_cast<std::size_t>(t) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const sim::TaskId dependent = flat.dependents[i];
      if (--missing[dependent] == 0) {
        queue_.push(now_,
                    Event{Event::Kind::kTryStart, dependent, 0, instance, {}});
      }
    }
    if (--instance->tasks_remaining == 0) complete_request(instance);
  }

  void complete_request(Instance* instance) {
    result_.completed.push_back(CompletedRequest{
        instance->request, instance->dispatch, now_, instance->batch_size});
    const auto m = static_cast<std::size_t>(instance->request.model);
    --in_system_[m];
    reissue_after_think(instance->request.model, instance->request.client);
    instance->next_free = free_list_[m];
    free_list_[m] = instance;
  }

  const std::vector<sim::RouteLeg>& route_for(int src, int dst) {
    const int n = topo_->size();
    auto& slot = route_cache_[static_cast<std::size_t>((src + 1) * (n + 1) +
                                                       (dst + 1))];
    if (!slot) slot = network_.route(src, dst);
    return *slot;
  }

  const topology::Topology* topo_;
  const std::vector<ServedModel>* models_;
  sim::Network network_;

  HeapEventQueue<Event> queue_;
  Seconds now_{};

  bool immediate_dispatch_ = false;
  std::vector<Batcher> batchers_;
  std::vector<std::optional<Seconds>> armed_deadline_;

  AdmissionPolicy admission_;
  std::vector<int> in_system_;
  std::vector<Seconds> queued_work_;
  std::vector<std::vector<int>> service_accs_;

  std::vector<const sim::FlatTaskGraph*> flats_;
  std::vector<Instance*> free_list_;
  util::Arena arena_;
  long long admitted_ = 0;

  std::vector<Seconds> acc_free_ =
      std::vector<Seconds>(static_cast<std::size_t>(topo_->size()),
                           Seconds(0.0));
  std::vector<Seconds> channel_free_ = std::vector<Seconds>(
      static_cast<std::size_t>(network_.num_channels()), Seconds(0.0));
  std::vector<std::optional<std::vector<sim::RouteLeg>>> route_cache_;

  bool closed_loop_ = false;
  Seconds think_{};
  Seconds issue_horizon_{};
  int next_request_id_ = 0;

  ServeResult result_;
};

}  // namespace detail

/// Polling OnlineScheduler::run (open loop).
inline serve::ServeResult serve(const topology::Topology& topo,
                                const std::vector<serve::ServedModel>& models,
                                const serve::SchedulerOptions& options,
                                const std::vector<serve::Request>& arrivals) {
  detail::Engine engine(topo, models, options);
  engine.reserve(arrivals.size());
  for (const serve::Request& request : arrivals) engine.add_arrival(request);
  return engine.run();
}

/// Polling OnlineScheduler::run_closed_loop.
inline serve::ServeResult serve_closed_loop(
    const topology::Topology& topo,
    const std::vector<serve::ServedModel>& models,
    const serve::SchedulerOptions& options, const serve::ClosedLoopSpec& spec,
    Seconds duration) {
  detail::Engine engine(topo, models, options);
  engine.reserve(static_cast<std::size_t>(spec.clients()));
  engine.enable_closed_loop(spec.think, duration);
  for (int c = 0; c < spec.clients(); ++c) {
    serve::Request request;
    request.id = c;
    request.model = spec.client_model[static_cast<std::size_t>(c)];
    request.arrival = Seconds(0.0);
    request.client = c;
    engine.add_arrival(request);
  }
  return engine.run();
}

}  // namespace mars::testing::polling
