#include "mars/serve/scheduler.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <type_traits>

#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/sim/event_queue.h"
#include "mars/sim/wait_queue.h"
#include "mars/util/arena.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

using sim::TaskKind;

/// Arena-backed state of one admitted request: a fixed header plus the
/// per-task missing-dependency counters, in a single block sized by the
/// model's task count. Blocks are recycled through a per-model intrusive
/// free list the moment the request completes — by then every event that
/// referenced the instance has been consumed and none of its tasks is
/// parked in a wait queue (both exist only while their task is
/// unfinished), so reuse is safe and deterministic.
struct Instance {
  Request request;
  Seconds dispatch{};
  int batch_size = 1;
  int tasks_remaining = 0;
  Instance* next_free = nullptr;

  /// The trailing missing-dependency array (one int per prototype task).
  [[nodiscard]] int* missing() { return reinterpret_cast<int*>(this + 1); }
};

// The trailing int array is placed directly after the header; recycling
// skips destructors entirely, so the header must not acquire any.
static_assert(std::is_trivially_destructible_v<Instance>);
static_assert(alignof(Instance) % alignof(int) == 0);

/// Task `task` of `instance`, parked on a resource to start leg `leg` (0
/// for compute): the handle the per-resource wait queues hold.
struct Waiter {
  Instance* instance = nullptr;
  int task = -1;
  int leg = 0;
};

struct Event {
  enum class Kind : std::uint8_t {
    kArrival,       // `request` enters its model's batcher
    kDeadline,      // re-check model `index`'s batch timeout
    kTryStart,      // task `index` of `instance`, leg `leg`, wants resources
    kLegDone,       // transfer task `index` of `instance` finished leg `leg`
    kTaskDone,      // compute task `index` of `instance` finished
    kWake,          // resource `index`'s wait queue pops its front block
  };
  Kind kind;
  int index = -1;  // prototype task index or model id, depending on kind
  int leg = 0;
  Instance* instance = nullptr;  // task events only
  Request request;               // kArrival only
};

/// The mutable event-loop state for one run. Mirrors Executor::run (the
/// same per-resource wait queues), with two extensions: tasks are injected
/// while the clock advances, and completions can feed back into the
/// workload (closed loop).
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
    // The `none` policy dispatches every arrival immediately as a batch of
    // one; bypassing the Batcher on that path keeps steady-state dispatch
    // allocation-free (the batcher returns freshly built vectors).
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
    // Which accelerators each model's prototype computes on — the
    // timelines its requests queue behind, hence the ones the slo:
    // admission estimate reads.
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

    // Observability: resolve the recorder and registry once per run. Every
    // event below is emitted from this serial event loop with simulated
    // timestamps, so the simulated-domain trace is deterministic per seed
    // regardless of --threads (the fleet layer runs shards serially
    // whenever a recorder is installed — see serve/fleet.cpp). Quiet runs
    // (search-time rollouts) skip both hooks entirely.
    rec_ = options.quiet ? nullptr : obs::trace();
    if (rec_ != nullptr) {
      model_tracks_.reserve(models.size());
      in_system_name_.reserve(models.size());
      for (std::size_t m = 0; m < models.size(); ++m) {
        // The index prefix keeps tracks distinct when two services serve
        // the same model name; the options prefix keeps fleet shards
        // distinct.
        const std::string label = options.trace_label_prefix + "model " +
                                  std::to_string(m) + ":" + models[m].name;
        model_tracks_.push_back(rec_->track(obs::Clock::kSim, label));
        in_system_name_.push_back("in_system " + label);
      }
      acc_tracks_.reserve(static_cast<std::size_t>(topo.size()));
      queued_name_.reserve(static_cast<std::size_t>(topo.size()));
      for (int a = 0; a < topo.size(); ++a) {
        const std::string label =
            options.trace_label_prefix + "acc " + std::to_string(a);
        acc_tracks_.push_back(rec_->track(obs::Clock::kSim, label));
        queued_name_.push_back("queued_s " + label);
      }
    }
    if (obs::MetricsRegistry* registry =
            options.quiet ? nullptr : obs::metrics()) {
      shed_total_ = &registry->counter("serve.admission.shed");
      completed_total_ = &registry->counter("serve.requests.completed");
      batches_total_ = &registry->counter("serve.batches.dispatched");
      tasks_total_ = &registry->counter("serve.tasks.executed");
      events_total_ = &registry->counter("sim.events");
      latency_hist_ = &registry->histogram("serve.latency_seconds");
    }
  }

  /// Pre-sizes the run for a stream of `arrivals` requests: the event
  /// heap (every open-loop arrival is enqueued up front) and the result
  /// vectors. One fixed allocation each, so steady-state dispatch stays
  /// heap-silent. A parked task holds no event, so besides the arrivals
  /// the heap holds only ready tasks' try events, one completion per
  /// running task and one wake per busy resource with waiters — all
  /// bounded by the tasks of the live instances. The slack covers every
  /// task of up to 16 live instances per model, which is a bound under
  /// bounded admission (shed:N, N <= 16); deeper configurations regrow
  /// the heap amortised. The wait queues' record pools are not pre-sized:
  /// they grow to the peak number of parked tasks and are reused after.
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
      // The queue only runs dry while requests are parked in a batcher
      // whose trigger can never fire (size-N at end of stream, or a
      // closed loop with fewer outstanding clients than N): drain them.
      bool flushed = false;
      for (std::size_t m = 0; m < batchers_.size(); ++m) {
        for (std::vector<Request>& batch : batchers_[m].flush()) {
          dispatch(std::move(batch), now_);
          flushed = true;
        }
      }
      if (!flushed) break;
    }
    if (events_total_ != nullptr) events_total_->add(result_.events);
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
        case Event::Kind::kWake: {
          const auto r = static_cast<std::size_t>(event.index);
          waits_.wake(r, now_, free_[r], queue_, event,
                      [&](const Waiter& waiter) { start(waiter, r); });
          break;
        }
      }
    }
  }

  void handle_arrival(const Request& request) {
    if (!admit(request)) {
      if (shed_total_ != nullptr) shed_total_->add();
      if (rec_ != nullptr) {
        rec_->instant(obs::Clock::kSim,
                      model_tracks_[static_cast<std::size_t>(request.model)],
                      "shed", request.arrival,
                      {{"request", JsonValue::integer(request.id)}});
      }
      result_.rejected.push_back(request);
      // A shed closed-loop client behaves like one whose request failed
      // fast: it comes back `think` later instead of stalling forever.
      reissue_after_think(request.model, request.client);
      return;
    }
    ++in_system_[static_cast<std::size_t>(request.model)];
    if (rec_ != nullptr) trace_admit(request);
    if (immediate_dispatch_) {
      dispatch_single(request, now_);
      return;
    }
    batchers_[static_cast<std::size_t>(request.model)].push(request);
    drain_batcher(request.model);
  }

  /// Request lifecycle as nestable async spans on the model's track, all
  /// grouped by (cat "req", request id): an outer <model name> span covers
  /// arrival -> completion, with "queue" (arrival -> dispatch) and
  /// "execute" (dispatch -> completion) phases nested inside.
  void trace_admit(const Request& request) {
    const auto m = static_cast<std::size_t>(request.model);
    const int track = model_tracks_[m];
    rec_->async_begin(obs::Clock::kSim, track, "req", request.id,
                      (*models_)[m].name, request.arrival,
                      {{"client", JsonValue::integer(request.client)}});
    rec_->async_begin(obs::Clock::kSim, track, "req", request.id, "queue",
                      request.arrival);
    rec_->counter(obs::Clock::kSim, in_system_name_[m], request.arrival,
                  static_cast<double>(in_system_[m]));
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

  /// Queueing-delay estimate for a request arriving now: the deepest
  /// backlog among the model's accelerators — remaining time of the
  /// running task (its free time) plus compute already admitted but not yet
  /// started (queued_work) — plus the model's uncontended latency.
  /// Transfer contention and batching delay are not modelled, so the
  /// estimate is optimistic; slo: sheds late rather than early.
  [[nodiscard]] Seconds predicted_latency(int model) const {
    Seconds backlog{};
    for (int acc : service_accs_[static_cast<std::size_t>(model)]) {
      const auto a = static_cast<std::size_t>(acc);
      Seconds wait = queued_work_[a];
      if (free_[a] > now_) wait += free_[a] - now_;
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
    // Arm the timeout of the (possibly new) open batch. Later arrivals
    // leave the deadline unchanged, so only arm when it moves; a stale
    // event after a size-triggered close is harmless (pop_ready
    // re-checks against the clock).
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
    if (batches_total_ != nullptr) batches_total_->add();
    const int batch_size = static_cast<int>(batch.size());
    if (rec_ != nullptr && !batch.empty()) {
      rec_->instant(
          obs::Clock::kSim,
          model_tracks_[static_cast<std::size_t>(batch.front().model)],
          "batch", now, {{"size", JsonValue::integer(batch_size)}});
    }
    for (Request& request : batch) {
      instantiate(request, now, batch_size);
    }
    if (!batch.empty()) sample_queued_work(batch.front().model, now);
  }

  /// The `none`-policy fast path: one request, one batch, no vectors.
  void dispatch_single(const Request& request, Seconds now) {
    ++result_.batches_dispatched;
    if (batches_total_ != nullptr) batches_total_->add();
    if (rec_ != nullptr) {
      rec_->instant(obs::Clock::kSim,
                    model_tracks_[static_cast<std::size_t>(request.model)],
                    "batch", now, {{"size", JsonValue::integer(1)}});
    }
    instantiate(request, now, 1);
    sample_queued_work(request.model, now);
  }

  /// Stamps one request instance into a recycled arena block: copy the
  /// prototype's missing-dependency counts, account its compute on the
  /// queued-work timelines (same per-task order as a clone would, so the
  /// floating-point sums match the historical engine bit for bit), and
  /// seed the root task events in task order.
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
    if (rec_ != nullptr) {
      const int track = model_tracks_[m];
      rec_->async_end(obs::Clock::kSim, track, "req", request.id, "queue",
                      now);
      rec_->async_begin(obs::Clock::kSim, track, "req", request.id, "execute",
                        now);
    }
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

  /// Post-dispatch queued-work samples for the accelerators this model
  /// computes on.
  void sample_queued_work(int model, Seconds now) {
    if (rec_ == nullptr) return;
    for (const int acc : service_accs_[static_cast<std::size_t>(model)]) {
      const auto a = static_cast<std::size_t>(acc);
      rec_->counter(obs::Clock::kSim, queued_name_[a], now,
                    queued_work_[a].count());
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
      case TaskKind::kCompute:
        try_take(Waiter{instance, t, 0},
                 static_cast<std::size_t>(flat.accs[ti]));
        break;
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
        try_take(Waiter{instance, t, leg},
                 static_cast<std::size_t>(topo_->size() + hop.channel));
        break;
      }
    }
  }

  /// A fresh try on resource `r` (accelerators first, then channels):
  /// start now, or park in the resource's wait queue (sim/wait_queue.h).
  void try_take(const Waiter& waiter, std::size_t r) {
    if (free_[r] > now_) {
      waits_.park(r, waiter, free_[r], queue_,
                  Event{Event::Kind::kWake, static_cast<int>(r), 0, nullptr,
                        {}});
      return;
    }
    start(waiter, r);
  }

  /// Starts `waiter` on resource `r`, which is free now.
  void start(const Waiter& waiter, std::size_t r) {
    Instance* instance = waiter.instance;
    const int t = waiter.task;
    const sim::FlatTaskGraph& flat =
        *flats_[static_cast<std::size_t>(instance->request.model)];
    const auto ti = static_cast<std::size_t>(t);
    if (flat.kinds[ti] == TaskKind::kCompute) {
      const Seconds duration = flat.durations[ti];
      const Seconds end = now_ + duration;
      free_[r] = end;
      result_.acc_busy[r] += duration;
      // The work moves from "queued" to "running" (free_ covers it).
      queued_work_[r] -= duration;
      if (rec_ != nullptr) trace_compute(instance, static_cast<int>(r), end);
      queue_.push(end, Event{Event::Kind::kTaskDone, t, 0, instance, {}});
      return;
    }
    const std::vector<sim::RouteLeg>& route =
        route_for(flat.srcs[ti], flat.dsts[ti]);
    const sim::RouteLeg& hop = route[static_cast<std::size_t>(waiter.leg)];
    free_[r] = now_ + network_.leg_time(hop, flat.bytes[ti]);
    queue_.push(free_[r],
                Event{Event::Kind::kLegDone, t, waiter.leg, instance, {}});
  }

  /// One busy span per compute task on its accelerator's track (an
  /// accelerator runs one task at a time, so spans on a track never
  /// overlap), plus the post-start queued-work counter sample.
  void trace_compute(const Instance* instance, int acc, Seconds end) {
    const auto a = static_cast<std::size_t>(acc);
    const auto m = static_cast<std::size_t>(instance->request.model);
    rec_->complete(obs::Clock::kSim, acc_tracks_[a], (*models_)[m].name,
                   now_, end - now_,
                   {{"request", JsonValue::integer(instance->request.id)}});
    rec_->counter(obs::Clock::kSim, queued_name_[a], now_,
                  queued_work_[a].count());
  }

  void leg_done(Instance* instance, int t, int leg) {
    const sim::FlatTaskGraph& flat =
        *flats_[static_cast<std::size_t>(instance->request.model)];
    const auto ti = static_cast<std::size_t>(t);
    const std::vector<sim::RouteLeg>& route =
        route_for(flat.srcs[ti], flat.dsts[ti]);
    if (leg + 1 < static_cast<int>(route.size())) {
      // Store-and-forward at the host before the next leg.
      queue_.push(now_ + network_.params().host_latency,
                  Event{Event::Kind::kTryStart, t, leg + 1, instance, {}});
    } else {
      finish_task(instance, t);
    }
  }

  void finish_task(Instance* instance, int t) {
    result_.horizon = std::max(result_.horizon, now_);
    ++result_.tasks_executed;
    if (tasks_total_ != nullptr) tasks_total_->add();
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
    if (completed_total_ != nullptr) completed_total_->add();
    if (latency_hist_ != nullptr) {
      latency_hist_->observe((now_ - instance->request.arrival).count());
    }
    if (rec_ != nullptr) {
      const int track = model_tracks_[m];
      rec_->async_end(obs::Clock::kSim, track, "req", instance->request.id,
                      "execute", now_);
      rec_->async_end(obs::Clock::kSim, track, "req", instance->request.id,
                      (*models_)[m].name, now_);
      rec_->counter(obs::Clock::kSim, in_system_name_[m], now_,
                    static_cast<double>(in_system_[m]));
    }
    reissue_after_think(instance->request.model, instance->request.client);
    // Recycle the block: every event referencing this instance has been
    // consumed (its last task just finished), so LIFO reuse is safe.
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

  sim::EventQueue<Event> queue_;
  Seconds now_{};

  bool immediate_dispatch_ = false;
  std::vector<Batcher> batchers_;  // empty on the immediate-dispatch path
  std::vector<std::optional<Seconds>> armed_deadline_;

  // Admission-control state.
  AdmissionPolicy admission_;
  std::vector<int> in_system_;  // per model: batcher queue + in flight
  std::vector<Seconds> queued_work_;  // per acc: admitted, not yet started
  std::vector<std::vector<int>> service_accs_;  // per model: accs its proto uses

  // Instance pool: one flat prototype per model, blocks recycled through
  // per-model free lists, backing storage in the arena.
  std::vector<const sim::FlatTaskGraph*> flats_;
  std::vector<Instance*> free_list_;
  util::Arena arena_;
  long long admitted_ = 0;

  // Resources are the accelerators, then the directed channels: when each
  // frees, and who is parked on it.
  std::vector<Seconds> free_ = std::vector<Seconds>(
      static_cast<std::size_t>(topo_->size() + network_.num_channels()),
      Seconds(0.0));
  sim::WaitQueues<Waiter> waits_{free_.size()};
  std::vector<std::optional<std::vector<sim::RouteLeg>>> route_cache_;

  bool closed_loop_ = false;
  Seconds think_{};
  Seconds issue_horizon_{};
  int next_request_id_ = 0;

  // Observability handles, resolved once at construction (all null/empty
  // when no recorder/registry is installed — the common case).
  obs::TraceRecorder* rec_ = nullptr;
  std::vector<int> model_tracks_;            // sim track per model
  std::vector<int> acc_tracks_;              // sim track per accelerator
  std::vector<std::string> in_system_name_;  // counter name per model
  std::vector<std::string> queued_name_;     // counter name per accelerator
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* completed_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* tasks_total_ = nullptr;
  obs::Counter* events_total_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;

  ServeResult result_;
};

}  // namespace

OnlineScheduler::OnlineScheduler(const topology::Topology& topo,
                                 std::vector<const ModelService*> services,
                                 SchedulerOptions options)
    : topo_(&topo), options_(std::move(options)) {
  MARS_CHECK_ARG(!services.empty(), "scheduler needs at least one service");
  models_.reserve(services.size());
  for (const ModelService* service : services) {
    MARS_CHECK_ARG(service != nullptr, "null service");
    MARS_CHECK_ARG(service->problem().topo == topo_,
                   "service '" << service->name()
                               << "' was planned on a different topology");
    // single_latency / proto were produced under the service's SimParams;
    // replaying under different timing would silently disagree with them.
    const sim::SimParams& planned = service->problem().sim_params;
    MARS_CHECK_ARG(planned.link_latency == options_.sim.link_latency &&
                       planned.host_latency == options_.sim.host_latency,
                   "service '" << service->name()
                               << "' was planned under different SimParams "
                                  "than SchedulerOptions.sim");
    models_.push_back(ServedModel{service->name(), &service->flat_proto(),
                                  service->single_latency()});
  }
}

OnlineScheduler::OnlineScheduler(const topology::Topology& topo,
                                 std::vector<ServedModel> models,
                                 SchedulerOptions options)
    : topo_(&topo), models_(std::move(models)), options_(std::move(options)) {
  MARS_CHECK_ARG(!models_.empty(), "scheduler needs at least one model");
  for (const ServedModel& model : models_) {
    MARS_CHECK_ARG(model.flat != nullptr,
                   "model '" << model.name << "' has no flat prototype");
  }
}

ServeResult OnlineScheduler::run(const std::vector<Request>& arrivals) const {
  Engine engine(*topo_, models_, options_);
  engine.reserve(arrivals.size());
  for (const Request& request : arrivals) {
    MARS_CHECK_ARG(request.model >= 0 && request.model < num_models(),
                   "request " << request.id << " targets unknown model index "
                              << request.model);
    MARS_CHECK_ARG(request.arrival.count() >= 0.0,
                   "request " << request.id << " arrives before t=0");
    engine.add_arrival(request);
  }
  return engine.run();
}

ServeResult OnlineScheduler::run_closed_loop(const ClosedLoopSpec& spec,
                                             Seconds duration) const {
  MARS_CHECK_ARG(spec.clients() > 0, "closed loop needs at least one client");
  MARS_CHECK_ARG(duration.count() > 0.0, "duration must be positive");
  // A rejected client retries `think` after the rejection; with think == 0
  // that retry lands at the same simulated instant, is rejected against
  // unchanged state, and the clock never advances.
  MARS_CHECK_ARG(options_.admission.kind == AdmissionPolicy::Kind::kNone ||
                     spec.think.count() > 0.0,
                 "closed-loop admission control needs think > 0 (a rejected "
                 "client would retry at the same instant forever)");
  Engine engine(*topo_, models_, options_);
  engine.reserve(static_cast<std::size_t>(spec.clients()));
  engine.enable_closed_loop(spec.think, duration);
  for (int c = 0; c < spec.clients(); ++c) {
    const int model = spec.client_model[static_cast<std::size_t>(c)];
    MARS_CHECK_ARG(model >= 0 && model < num_models(),
                   "client " << c << " bound to unknown model index " << model);
    Request request;
    request.id = c;
    request.model = model;
    request.arrival = Seconds(0.0);
    request.client = c;
    engine.add_arrival(request);
  }
  return engine.run();
}

}  // namespace mars::serve
