// Online multi-tenant dispatcher: the serving counterpart of sim::Executor.
//
// The offline Executor replays one closed task graph from t=0; serving
// instead sees an unbounded request stream. Both run on the same
// discrete-event engine (sim/engine.h) over the shared topology: here,
// request arrivals feed per-model Batchers, and every admitted request
// adds an instance of its model's flat prototype graph
// (ModelService::flat_proto) to the engine, whose compute/transfer tasks
// then contend for accelerators and directed channels exactly as in the
// Executor. This is where co-resident models interfere: their tasks queue
// on the same accelerator and channel timelines. The scheduler keeps
// admission, batching, request bookkeeping and tracing; its arrivals and
// batch deadlines go into the engine's queue, ordered with the task
// events. Steady-state dispatch allocates nothing (pinned by
// tests/serve/test_zero_alloc.cpp); fleet-scale throughput numbers live
// in docs/PERFORMANCE.md.
//
// Admission control runs before batching: every arrival is offered to the
// configured AdmissionPolicy, and a request the saturated fleet is
// predicted to fail (slo:MS, using backlog read off the shared accelerator
// timelines plus the model's uncontended latency) or that finds the
// model's queue full (shed:N) is rejected instead of admitted — it
// executes nothing and is recorded in ServeResult::rejected.
//
// Two drive modes: open loop (a precomputed arrival vector — Poisson or
// trace replay from workload.h) and closed loop (clients re-issue `think`
// after each completion; a rejected client retries on the same cadence).
// Runs are bit-deterministic within a build for a fixed (arrivals,
// policy, topology).
#pragma once

#include <vector>

#include "mars/serve/batcher.h"
#include "mars/serve/service.h"
#include "mars/sim/network.h"

namespace mars::serve {

struct SchedulerOptions {
  BatchPolicy policy = BatchPolicy::none();
  /// Admission control applied at every arrival, before batching. Shed
  /// requests complete nowhere: they land in ServeResult::rejected.
  AdmissionPolicy admission = AdmissionPolicy::none();
  sim::SimParams sim{};
  /// Prepended to every simulated-domain track (and derived counter) label
  /// this scheduler emits. The sharded fleet runs one engine per replica
  /// group with prefixes "s0 ", "s1 ", ... so per-shard tracks stay
  /// distinct in a single trace. Empty (the default) reproduces the
  /// historical labels byte for byte.
  std::string trace_label_prefix;
  /// Suppress trace/metric emission for this run even when a recorder or
  /// registry is installed. Search-time rollouts (comap's ServingObjective)
  /// replay thousands of candidate fleets per search; emitting those into
  /// the user's trace would drown the actual serving run.
  bool quiet = false;
};

/// The minimal per-model view the event loop dispatches against. A
/// ModelService provides one (see OnlineScheduler's service constructor);
/// comap's rollout fitness builds them directly from candidate mappings
/// without planning a full service.
struct ServedModel {
  std::string name;
  /// Flat single-inference prototype; must outlive the scheduler.
  const sim::FlatTaskGraph* flat = nullptr;
  /// Uncontended single-inference latency (the slo: admission estimate).
  Seconds single_latency{};
};

struct CompletedRequest {
  Request request;
  Seconds dispatch{};    // when its batch entered the system
  Seconds completion{};  // when its last task finished
  int batch_size = 1;

  [[nodiscard]] Seconds latency() const { return completion - request.arrival; }
  [[nodiscard]] Seconds queueing() const { return dispatch - request.arrival; }
};

struct ServeResult {
  std::vector<CompletedRequest> completed;  // in completion order
  /// Requests shed by admission control, in rejection order. A rejected
  /// closed-loop client re-issues `think` later, like after a completion.
  std::vector<Request> rejected;
  /// Time the last task finished (the simulated busy horizon).
  Seconds horizon{};
  /// Compute-busy seconds per accelerator (utilization numerator).
  std::vector<Seconds> acc_busy;
  long long tasks_executed = 0;
  int batches_dispatched = 0;
  /// Events the loop popped (work, not simulated time; also added to the
  /// `sim.events` registry counter once per non-quiet run, and
  /// tasks_executed to `sim.tasks`: their ratio is `sim.events_per_task`).
  /// A sharded run sums its shards.
  long long events = 0;

  /// Arrivals seen by admission control (completed + rejected).
  [[nodiscard]] int offered() const {
    return static_cast<int>(completed.size() + rejected.size());
  }
};

class OnlineScheduler {
 public:
  /// `services` must share `topo` and outlive the scheduler.
  OnlineScheduler(const topology::Topology& topo,
                  std::vector<const ModelService*> services,
                  SchedulerOptions options = {});

  /// Dispatches against bare model views (name + flat prototype +
  /// uncontended latency) instead of full ModelServices. The views' flat
  /// graphs must outlive the scheduler; one that names an accelerator
  /// `topo` lacks throws InvalidArgument. This is the
  /// comap rollout entry point: candidate mappings become views without
  /// the planner/cache machinery a ModelService carries.
  OnlineScheduler(const topology::Topology& topo,
                  std::vector<ServedModel> models,
                  SchedulerOptions options = {});

  /// Open-loop run over a pre-materialised arrival stream.
  [[nodiscard]] ServeResult run(const std::vector<Request>& arrivals) const;

  /// Closed-loop run: each client issues its next request `spec.think`
  /// after the previous completes; no new requests start after `duration`.
  [[nodiscard]] ServeResult run_closed_loop(const ClosedLoopSpec& spec,
                                            Seconds duration) const;

  [[nodiscard]] int num_models() const {
    return static_cast<int>(models_.size());
  }

 private:
  const topology::Topology* topo_;
  std::vector<ServedModel> models_;
  SchedulerOptions options_;
};

}  // namespace mars::serve
