#include "mars/serve/scheduler.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string>

#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/sim/engine.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

using sim::TaskKind;

/// An admitted request's state, carried by its engine instance.
struct Admitted {
  Request request;
  Seconds dispatch{};
  int batch_size = 1;
};

/// The scheduler's own events: an arrival of `request`, or a re-check of
/// model `request.model`'s batch timeout.
struct ServeEvent {
  Request request;
  bool deadline = false;
};

using Replay = sim::Engine<Admitted, ServeEvent>;
using Instance = Replay::Instance;

/// The mutable state of one run: admission, batching, request bookkeeping
/// and tracing around the engine (sim/engine.h), whose hooks it is.
/// Requests enter while the clock advances, and completions can feed back
/// into the workload (closed loop).
class Session : public sim::NoHooks {
 public:
  Session(const topology::Topology& topo,
          const std::vector<ServedModel>& models,
          const SchedulerOptions& options)
      : models_(&models), engine_(topo, options.sim, flats_of(models)) {
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

    admission_ = options.admission;
    in_system_.assign(models.size(), 0);
    queued_work_.assign(static_cast<std::size_t>(topo.size()), Seconds(0.0));
    // Which accelerators each model's prototype computes on — the
    // timelines its requests queue behind, hence the ones the slo:
    // admission estimate reads.
    service_accs_.resize(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
      const sim::FlatTaskGraph& flat = *models[m].flat;
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
      sim_tasks_total_ = &registry->counter("sim.tasks");
      registry->ratio("sim.events_per_task", "sim.events", "sim.tasks");
      latency_hist_ = &registry->histogram("serve.latency_seconds");
    }
  }

  /// Pre-sizes the run for a stream of `arrivals` requests: the event
  /// queue (every open-loop arrival is enqueued up front), the engine's
  /// External slot table and the result vectors. One fixed allocation
  /// each, so steady-state dispatch stays heap-silent. A parked task holds
  /// no event, so besides the arrivals the queue holds only ready tasks'
  /// try events, one completion per running task and one wake per busy
  /// resource with waiters — all bounded by the tasks of the live
  /// instances. The slack covers every task of up to 16 live instances per
  /// model, which is a bound under bounded admission (shed:N, N <= 16);
  /// deeper configurations regrow the queue amortised. The externals are
  /// the arrivals (or closed-loop reissues) plus about one armed batch
  /// deadline per model. The wait queues' record pools are not pre-sized:
  /// they grow to the peak number of parked tasks and are reused after.
  void reserve(std::size_t arrivals) {
    std::size_t task_slack = 64;
    for (const ServedModel& model : *models_) {
      task_slack += 16 * static_cast<std::size_t>(model.flat->size);
    }
    engine_.reserve(arrivals + task_slack, arrivals + models_->size());
    result_.completed.reserve(arrivals);
    result_.rejected.reserve(arrivals);
  }

  void add_arrival(const Request& request) {
    engine_.push(request.arrival, ServeEvent{request});
    next_request_id_ = std::max(next_request_id_, request.id + 1);
  }

  void enable_closed_loop(Seconds think, Seconds duration) {
    closed_loop_ = true;
    think_ = think;
    issue_horizon_ = duration;
  }

  ServeResult run() {
    for (;;) {
      engine_.drain(*this);
      // The queue only runs dry while requests are parked in a batcher
      // whose trigger can never fire (size-N at end of stream, or a
      // closed loop with fewer outstanding clients than N): drain them.
      bool flushed = false;
      for (std::size_t m = 0; m < batchers_.size(); ++m) {
        for (const std::vector<Request>& batch : batchers_[m].flush()) {
          dispatch(batch);
          flushed = true;
        }
      }
      if (!flushed) break;
    }
    result_.horizon = engine_.horizon();
    result_.acc_busy = engine_.acc_busy();
    result_.tasks_executed = engine_.tasks_executed();
    result_.events = engine_.events();
    if (tasks_total_ != nullptr) tasks_total_->add(result_.tasks_executed);
    if (events_total_ != nullptr) {
      events_total_->add(result_.events);
      sim_tasks_total_->add(result_.tasks_executed);
    }
    MARS_CHECK(admitted_ == static_cast<long long>(result_.completed.size()),
               "serving deadlock: "
                   << admitted_ -
                          static_cast<long long>(result_.completed.size())
                   << " requests never completed");
    return std::move(result_);
  }

  // Engine hooks.

  void external(const ServeEvent& event) {
    if (event.deadline) {
      drain_batcher(event.request.model);
    } else {
      handle_arrival(event.request);
    }
  }

  /// The work moves from "queued" to "running" (the accelerator's free
  /// time covers it).
  void compute_started(Instance& instance, int acc, Seconds duration) {
    queued_work_[static_cast<std::size_t>(acc)] -= duration;
    if (rec_ != nullptr) trace_compute(instance, acc, duration);
  }

  void completed(Instance& instance) {
    const Admitted& admitted = instance.meta;
    const Request& request = admitted.request;
    const Seconds now = engine_.now();
    result_.completed.push_back(CompletedRequest{
        request, admitted.dispatch, now, admitted.batch_size});
    const auto m = static_cast<std::size_t>(request.model);
    --in_system_[m];
    if (completed_total_ != nullptr) completed_total_->add();
    if (latency_hist_ != nullptr) {
      latency_hist_->observe((now - request.arrival).count());
    }
    if (rec_ != nullptr) {
      const int track = model_tracks_[m];
      rec_->async_end(obs::Clock::kSim, track, "req", request.id, "execute",
                      now);
      rec_->async_end(obs::Clock::kSim, track, "req", request.id,
                      (*models_)[m].name, now);
      rec_->counter(obs::Clock::kSim, in_system_name_[m], now,
                    static_cast<double>(in_system_[m]));
    }
    reissue_after_think(request.model, request.client);
  }

 private:
  static std::vector<const sim::FlatTaskGraph*> flats_of(
      const std::vector<ServedModel>& models) {
    std::vector<const sim::FlatTaskGraph*> flats;
    flats.reserve(models.size());
    for (const ServedModel& model : models) flats.push_back(model.flat);
    return flats;
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
      // The `none` policy: a batch of one, no Batcher and no vectors.
      dispatch({&request, 1});
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

  /// One busy span per compute task on its accelerator's track (an
  /// accelerator runs one task at a time, so spans on a track never
  /// overlap), plus the post-start queued-work counter sample.
  void trace_compute(const Instance& instance, int acc, Seconds duration) {
    const auto a = static_cast<std::size_t>(acc);
    const Seconds now = engine_.now();
    const Seconds end = now + duration;
    const Request& request = instance.meta.request;
    // end - now, as the span always measured: it can differ from
    // `duration` in the last bit, and the trace is pinned byte for byte.
    rec_->complete(obs::Clock::kSim, acc_tracks_[a],
                   (*models_)[static_cast<std::size_t>(request.model)].name,
                   now, end - now,
                   {{"request", JsonValue::integer(request.id)}});
    rec_->counter(obs::Clock::kSim, queued_name_[a], now,
                  queued_work_[a].count());
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
    const Seconds now = engine_.now();
    Seconds backlog{};
    for (int acc : service_accs_[static_cast<std::size_t>(model)]) {
      Seconds wait = queued_work_[static_cast<std::size_t>(acc)];
      if (engine_.free_at(acc) > now) wait += engine_.free_at(acc) - now;
      backlog = std::max(backlog, wait);
    }
    return backlog +
           (*models_)[static_cast<std::size_t>(model)].single_latency;
  }

  void reissue_after_think(int model, int client) {
    if (!closed_loop_ || client < 0) return;
    const Seconds next = engine_.now() + think_;
    if (next > issue_horizon_) return;  // client retires
    Request request;
    request.id = next_request_id_++;
    request.model = model;
    request.arrival = next;
    request.client = client;
    engine_.push(next, ServeEvent{request});
  }

  void drain_batcher(int model) {
    Batcher& batcher = batchers_[static_cast<std::size_t>(model)];
    for (const std::vector<Request>& batch : batcher.pop_ready(engine_.now())) {
      dispatch(batch);
    }
    // Arm the timeout of the (possibly new) open batch. Later arrivals
    // leave the deadline unchanged, so only arm when it moves; a stale
    // event after a size-triggered close is harmless (pop_ready
    // re-checks against the clock).
    const std::optional<Seconds> deadline = batcher.next_deadline();
    if (deadline &&
        deadline != armed_deadline_[static_cast<std::size_t>(model)]) {
      armed_deadline_[static_cast<std::size_t>(model)] = deadline;
      Request timeout;
      timeout.model = model;
      engine_.push(*deadline, ServeEvent{timeout, /*deadline=*/true});
    }
  }

  /// Dispatches `batch` (never empty) as one batch.
  void dispatch(std::span<const Request> batch) {
    ++result_.batches_dispatched;
    if (batches_total_ != nullptr) batches_total_->add();
    const int batch_size = static_cast<int>(batch.size());
    const int model = batch.front().model;
    if (rec_ != nullptr) {
      rec_->instant(obs::Clock::kSim,
                    model_tracks_[static_cast<std::size_t>(model)], "batch",
                    engine_.now(), {{"size", JsonValue::integer(batch_size)}});
    }
    for (const Request& request : batch) instantiate(request, batch_size);
    sample_queued_work(model);
  }

  /// Adds one request instance to the engine and accounts its compute on
  /// the queued-work timelines (in task order, so the floating-point sums
  /// match the historical per-clone engine bit for bit).
  void instantiate(const Request& request, int batch_size) {
    const Seconds now = engine_.now();
    engine_.add(request.model, Admitted{request, now, batch_size});
    ++admitted_;
    const auto m = static_cast<std::size_t>(request.model);
    if (rec_ != nullptr) {
      const int track = model_tracks_[m];
      rec_->async_end(obs::Clock::kSim, track, "req", request.id, "queue",
                      now);
      rec_->async_begin(obs::Clock::kSim, track, "req", request.id, "execute",
                        now);
    }
    const sim::FlatTaskGraph& flat = *(*models_)[m].flat;
    for (int t = 0; t < flat.size; ++t) {
      if (flat.kinds[static_cast<std::size_t>(t)] == TaskKind::kCompute) {
        queued_work_[static_cast<std::size_t>(
            flat.accs[static_cast<std::size_t>(t)])] +=
            flat.durations[static_cast<std::size_t>(t)];
      }
    }
  }

  /// Post-dispatch queued-work samples for the accelerators this model
  /// computes on.
  void sample_queued_work(int model) {
    if (rec_ == nullptr) return;
    for (const int acc : service_accs_[static_cast<std::size_t>(model)]) {
      const auto a = static_cast<std::size_t>(acc);
      rec_->counter(obs::Clock::kSim, queued_name_[a], engine_.now(),
                    queued_work_[a].count());
    }
  }

  const std::vector<ServedModel>* models_;
  Replay engine_;

  bool immediate_dispatch_ = false;
  std::vector<Batcher> batchers_;  // empty on the immediate-dispatch path
  std::vector<std::optional<Seconds>> armed_deadline_;

  // Admission-control state.
  AdmissionPolicy admission_;
  std::vector<int> in_system_;  // per model: batcher queue + in flight
  std::vector<Seconds> queued_work_;  // per acc: admitted, not yet started
  std::vector<std::vector<int>> service_accs_;  // per model: accs its proto uses
  long long admitted_ = 0;

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
  obs::Counter* sim_tasks_total_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;

  ServeResult result_;
};

/// The dispatch views of `services`, checked against the scheduler's
/// topology and timing.
std::vector<ServedModel> views_of(
    const topology::Topology& topo,
    const std::vector<const ModelService*>& services,
    const sim::SimParams& sim) {
  MARS_CHECK_ARG(!services.empty(), "scheduler needs at least one service");
  std::vector<ServedModel> models;
  models.reserve(services.size());
  for (const ModelService* service : services) {
    MARS_CHECK_ARG(service != nullptr, "null service");
    MARS_CHECK_ARG(service->problem().topo == &topo,
                   "service '" << service->name()
                               << "' was planned on a different topology");
    // single_latency / flat_proto were produced under the service's
    // SimParams; replaying under different timing would silently disagree
    // with them.
    const sim::SimParams& planned = service->problem().sim_params;
    MARS_CHECK_ARG(planned.link_latency == sim.link_latency &&
                       planned.host_latency == sim.host_latency,
                   "service '" << service->name()
                               << "' was planned under different SimParams "
                                  "than SchedulerOptions.sim");
    models.push_back(ServedModel{service->name(), &service->flat_proto(),
                                 service->single_latency()});
  }
  return models;
}

}  // namespace

OnlineScheduler::OnlineScheduler(const topology::Topology& topo,
                                 std::vector<const ModelService*> services,
                                 SchedulerOptions options)
    : OnlineScheduler(topo, views_of(topo, services, options.sim),
                      std::move(options)) {}

OnlineScheduler::OnlineScheduler(const topology::Topology& topo,
                                 std::vector<ServedModel> models,
                                 SchedulerOptions options)
    : topo_(&topo), models_(std::move(models)), options_(std::move(options)) {
  MARS_CHECK_ARG(!models_.empty(), "scheduler needs at least one model");
  for (const ServedModel& model : models_) {
    MARS_CHECK_ARG(model.flat != nullptr,
                   "model '" << model.name << "' has no flat prototype");
    model.flat->check_resources(topo.size());
  }
}

ServeResult OnlineScheduler::run(const std::vector<Request>& arrivals) const {
  Session session(*topo_, models_, options_);
  session.reserve(arrivals.size());
  for (const Request& request : arrivals) {
    MARS_CHECK_ARG(request.model >= 0 && request.model < num_models(),
                   "request " << request.id << " targets unknown model index "
                              << request.model);
    MARS_CHECK_ARG(request.arrival.count() >= 0.0,
                   "request " << request.id << " arrives before t=0");
    session.add_arrival(request);
  }
  return session.run();
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
  Session session(*topo_, models_, options_);
  session.reserve(static_cast<std::size_t>(spec.clients()));
  session.enable_closed_loop(spec.think, duration);
  for (int c = 0; c < spec.clients(); ++c) {
    const int model = spec.client_model[static_cast<std::size_t>(c)];
    MARS_CHECK_ARG(model >= 0 && model < num_models(),
                   "client " << c << " bound to unknown model index " << model);
    Request request;
    request.id = c;
    request.model = model;
    request.arrival = Seconds(0.0);
    request.client = c;
    session.add_arrival(request);
  }
  return session.run();
}

}  // namespace mars::serve
