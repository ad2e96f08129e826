// Wait queues vs retry polling: the production event loops (sim::Executor
// and the serving engine) must reproduce the retained polling oracle
// (tests/support/polling_engine.h) exactly — every timing compared with
// double ==, every ServeResult field compared — while popping fewer
// events. The inputs are built to contend: seeded random task graphs on
// grouped topologies (cross-group transfers take two host-routed legs, so
// store-and-forward legs race queued waiters) and overloaded serving
// streams under every batching and admission policy family.
//
// "Coarse" inputs round every duration and size onto a few
// whole-microsecond values (zero included), so equal-time ties between
// waiters, releases and store-and-forward legs are everywhere. There the
// queues are not exact (sim/wait_queue.h, "Exactness"), so those tests
// bound how often they differ: 1 of 400 executor graphs and 6 of 40
// serving runs below, where a plain FIFO of waiters (no polling keys)
// differs on 38 of 400 and 16 of 40. Oracle equality cannot catch drift
// there, so they also pin the replay itself: the exact differing counts
// and an FNV-1a fingerprint of every field of every result.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "mars/accel/registry.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/workload.h"
#include "mars/sim/executor.h"
#include "mars/topology/presets.h"
#include "mars/util/hash.h"
#include "mars/util/rng.h"
#include "support/polling_engine.h"
#include "support/random_graph.h"
#include "support/serve_stream.h"

namespace mars {
namespace {

/// FNV-1a folds of every observable field of a replay, pinned by the
/// coarse tests: where the queues and the oracle legitimately differ,
/// oracle equality cannot catch drift, so the replay itself is pinned.
std::uint64_t fold(double value, std::uint64_t hash) {
  return util::fnv1a_word(std::bit_cast<std::uint64_t>(value), hash);
}

std::uint64_t fold(long long value, std::uint64_t hash) {
  return util::fnv1a_word(static_cast<std::uint64_t>(value), hash);
}

std::uint64_t fingerprint(const sim::ExecutionResult& result,
                          std::uint64_t hash) {
  for (const sim::TaskTiming& timing : result.timings) {
    hash = fold(timing.end.count(), fold(timing.start.count(), hash));
  }
  for (const Seconds busy : result.acc_busy) hash = fold(busy.count(), hash);
  return fold(result.events, fold(result.makespan.count(), hash));
}

std::uint64_t fingerprint(const serve::Request& request, std::uint64_t hash) {
  hash = fold(static_cast<long long>(request.id), hash);
  hash = fold(static_cast<long long>(request.model), hash);
  hash = fold(request.arrival.count(), hash);
  return fold(static_cast<long long>(request.client), hash);
}

std::uint64_t fingerprint(const serve::ServeResult& result,
                          std::uint64_t hash) {
  for (const serve::CompletedRequest& done : result.completed) {
    hash = fingerprint(done.request, hash);
    hash = fold(done.dispatch.count(), hash);
    hash = fold(done.completion.count(), hash);
    hash = fold(static_cast<long long>(done.batch_size), hash);
  }
  for (const serve::Request& request : result.rejected) {
    hash = fingerprint(request, hash);
  }
  hash = fold(result.horizon.count(), hash);
  for (const Seconds busy : result.acc_busy) hash = fold(busy.count(), hash);
  hash = fold(result.tasks_executed, hash);
  hash = fold(static_cast<long long>(result.batches_dispatched), hash);
  return fold(result.events, hash);
}

bool same_execution(const sim::ExecutionResult& a,
                    const sim::ExecutionResult& b) {
  if (a.makespan != b.makespan) return false;
  for (std::size_t t = 0; t < a.timings.size(); ++t) {
    if (a.timings[t].start != b.timings[t].start ||
        a.timings[t].end != b.timings[t].end) {
      return false;
    }
  }
  return a.acc_busy == b.acc_busy;
}

void expect_same_execution(const sim::ExecutionResult& expected,
                           const sim::ExecutionResult& actual,
                           const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(expected.makespan.count(), actual.makespan.count());
  ASSERT_EQ(expected.timings.size(), actual.timings.size());
  for (std::size_t t = 0; t < expected.timings.size(); ++t) {
    ASSERT_EQ(expected.timings[t].start.count(),
              actual.timings[t].start.count())
        << "task " << t;
    ASSERT_EQ(expected.timings[t].end.count(), actual.timings[t].end.count())
        << "task " << t;
  }
  ASSERT_EQ(expected.acc_busy.size(), actual.acc_busy.size());
  for (std::size_t a = 0; a < expected.acc_busy.size(); ++a) {
    ASSERT_EQ(expected.acc_busy[a].count(), actual.acc_busy[a].count())
        << "acc " << a;
  }
  EXPECT_LE(actual.events, expected.events);
}

struct NamedTopology {
  std::string name;
  topology::Topology topo;
};

std::vector<NamedTopology> contended_topologies() {
  std::vector<NamedTopology> out;
  out.push_back({"f1_16xlarge", topology::f1_16xlarge()});
  out.push_back(
      {"grouped-2x2", topology::grouped(2, 2, gbps(8.0), gbps(2.0))});
  return out;
}

/// `graph` with compute durations rounded down to whole microseconds
/// (zero included) and transfer sizes to multiples of 250 B (zero
/// included): leg times collapse onto a few values too.
sim::TaskGraph coarsened(const sim::TaskGraph& graph) {
  sim::TaskGraph out;
  for (const sim::Task& task : graph.tasks()) {
    switch (task.kind) {
      case sim::TaskKind::kCompute:
        (void)out.add_compute(
            task.acc, microseconds(std::floor(task.duration.micros() / 20.0)),
            task.label, task.deps);
        break;
      case sim::TaskKind::kTransfer:
        (void)out.add_transfer(
            task.src, task.dst,
            Bytes(250.0 * std::floor(task.bytes.count() / 2.5e5)), task.label,
            task.deps);
        break;
      case sim::TaskKind::kBarrier:
        (void)out.add_barrier(task.deps, task.label);
        break;
    }
  }
  return out;
}

class WaitQueueExecutor : public ::testing::TestWithParam<int> {};

TEST_P(WaitQueueExecutor, MatchesPollingOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (const NamedTopology& named : contended_topologies()) {
    const sim::SimParams params;
    const sim::Executor executor(named.topo, params);
    for (int trial = 0; trial < 10; ++trial) {
      const testing::RandomGraph random =
          testing::random_graph(named.topo, rng, 300);
      expect_same_execution(
          testing::polling::execute(named.topo, params, random.tg),
          executor.run(random.tg),
          named.name + " trial " + std::to_string(trial));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaitQueueExecutor,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(WaitQueueExecutorCoarse, RarelyDiffersFromPolling) {
  Rng rng(2024);
  int graphs = 0;
  int differing = 0;
  std::uint64_t replay = util::kFnvOffset;
  long long polled_events = 0;
  long long queued_events = 0;
  for (const NamedTopology& named : contended_topologies()) {
    const sim::SimParams params;
    const sim::Executor executor(named.topo, params);
    for (int trial = 0; trial < 200; ++trial) {
      const sim::TaskGraph coarse =
          coarsened(testing::random_graph(named.topo, rng, 300).tg);
      const sim::ExecutionResult polled =
          testing::polling::execute(named.topo, params, coarse);
      const sim::ExecutionResult queued = executor.run(coarse);
      ++graphs;
      if (!same_execution(polled, queued)) ++differing;
      replay = fingerprint(queued, replay);
      polled_events += polled.events;
      queued_events += queued.events;
    }
  }
  std::cout << differing << " of " << graphs << " coarse graphs differ\n";
  EXPECT_LE(differing, graphs / 100);
  EXPECT_EQ(differing, 1);
  EXPECT_EQ(util::hex64(replay), "b52dbef32ad419a4");
  EXPECT_LT(queued_events, polled_events);
}

/// Serving models whose prototypes are random graphs: their transfers
/// cross the F1 groups through the host, and every request of a model
/// replays identical durations, so equal-time ties are everywhere.
class RandomModels {
 public:
  RandomModels(const topology::Topology& topo, std::uint64_t seed, int models,
               bool coarse = false) {
    Rng rng(seed);
    const sim::Executor executor(topo, {});
    for (int m = 0; m < models; ++m) {
      testing::RandomGraph random = testing::random_graph(topo, rng, 40);
      if (coarse) random.tg = coarsened(random.tg);
      flats_.push_back(sim::FlatTaskGraph::from(random.tg));
      latencies_.push_back(executor.run(random.tg).makespan);
    }
    for (int m = 0; m < models; ++m) {
      views_.push_back(serve::ServedModel{
          "random" + std::to_string(m),
          &flats_[static_cast<std::size_t>(m)],
          latencies_[static_cast<std::size_t>(m)]});
    }
  }
  [[nodiscard]] const std::vector<serve::ServedModel>& views() const {
    return views_;
  }

 private:
  std::vector<sim::FlatTaskGraph> flats_;
  std::vector<Seconds> latencies_;
  std::vector<serve::ServedModel> views_;
};

bool same_serving(const serve::ServeResult& a, const serve::ServeResult& b) {
  if (a.completed.size() != b.completed.size() ||
      a.rejected.size() != b.rejected.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.completed.size(); ++i) {
    if (a.completed[i].request.id != b.completed[i].request.id ||
        a.completed[i].dispatch != b.completed[i].dispatch ||
        a.completed[i].completion != b.completed[i].completion) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.rejected.size(); ++i) {
    if (a.rejected[i].id != b.rejected[i].id) return false;
  }
  return a.acc_busy == b.acc_busy && a.horizon == b.horizon &&
         a.tasks_executed == b.tasks_executed &&
         a.batches_dispatched == b.batches_dispatched;
}

serve::SchedulerOptions options_for(const std::string& spec) {
  const serve::PolicySpec policy = serve::PolicySpec::parse(spec);
  serve::SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  return options;
}

const std::vector<std::string>& policies() {
  static const std::vector<std::string> specs = {
      "none", "size:4", "timeout:2:8", "shed:8", "slo:60"};
  return specs;
}

void expect_serving_matches(const topology::Topology& topo,
                            const std::vector<serve::ServedModel>& models,
                            const std::vector<serve::Request>& arrivals,
                            const std::string& context) {
  for (const std::string& spec : policies()) {
    const serve::SchedulerOptions options = options_for(spec);
    const serve::ServeResult expected =
        testing::polling::serve(topo, models, options, arrivals);
    const serve::ServeResult actual =
        serve::OnlineScheduler(topo, models, options).run(arrivals);
    testing::expect_results_identical(expected, actual, context + " " + spec);
    EXPECT_LE(actual.events, expected.events) << context << " " << spec;
  }
  const serve::ClosedLoopSpec spec =
      serve::make_closed_loop({1.0, 1.0}, /*clients=*/24, microseconds(50.0));
  const Seconds duration = milliseconds(20.0);
  const serve::SchedulerOptions options = options_for("none");
  testing::expect_results_identical(
      testing::polling::serve_closed_loop(topo, models, options, spec,
                                          duration),
      serve::OnlineScheduler(topo, models, options)
          .run_closed_loop(spec, duration),
      context + " closed loop");
}

/// An open-loop stream of about 200 requests at ~3x the rate one model's
/// uncontended latency sustains: the backlog grows for the whole stream.
std::vector<serve::Request> overloaded_stream(const RandomModels& models,
                                              std::uint64_t seed) {
  const double rate = 3.0 / models.views()[0].single_latency.count();
  return serve::poisson_arrivals({1.0, 1.0}, rate, Seconds(200.0 / rate),
                                 seed);
}

TEST(WaitQueueServing, MatchesPollingOnOverloadedRandomModels) {
  const topology::Topology topo = topology::f1_16xlarge();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RandomModels models(topo, seed, 2);
    expect_serving_matches(topo, models.views(),
                           overloaded_stream(models, seed),
                           "seed " + std::to_string(seed));
  }
}

TEST(WaitQueueServingCoarse, RarelyDiffersFromPolling) {
  const topology::Topology topo = topology::f1_16xlarge();
  int runs = 0;
  int differing = 0;
  std::uint64_t replay = util::kFnvOffset;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomModels models(topo, seed, 2, /*coarse=*/true);
    std::vector<serve::Request> arrivals = overloaded_stream(models, seed);
    // Whole-microsecond arrivals: requests land on shared instants too.
    for (serve::Request& request : arrivals) {
      request.arrival = microseconds(std::floor(request.arrival.micros()));
    }
    for (const std::string& spec : policies()) {
      const serve::SchedulerOptions options = options_for(spec);
      const serve::ServeResult polled =
          testing::polling::serve(topo, models.views(), options, arrivals);
      const serve::ServeResult queued =
          serve::OnlineScheduler(topo, models.views(), options).run(arrivals);
      ++runs;
      if (!same_serving(polled, queued)) ++differing;
      replay = fingerprint(queued, replay);
    }
  }
  std::cout << differing << " of " << runs << " coarse runs differ\n";
  EXPECT_LE(differing, runs / 4);
  EXPECT_EQ(differing, 6);
  EXPECT_EQ(util::hex64(replay), "dc7685bec6928c51");
}

TEST(WaitQueueServing, MatchesPollingOnPlannedModels) {
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const auto services =
      serve::plan_services({"facebagnet", "resnet50"}, topo, designs,
                           /*adaptive=*/true, plan::BaselineEngine{});
  std::vector<serve::ServedModel> models;
  for (const auto& service : services) {
    models.push_back(serve::ServedModel{service->name(), &service->flat_proto(),
                                        service->single_latency()});
  }
  const std::vector<serve::Request> arrivals =
      serve::poisson_arrivals({1.0, 1.0}, 400.0, Seconds(0.2), 3);
  expect_serving_matches(topo, models, arrivals, "facebagnet+resnet50");
}

/// Work, not wall time: an overloaded stream's backlog (and with polling,
/// the events each release re-pushes) grows with the stream length. With
/// wait queues the events per executed task must stay flat when the
/// stream doubles, and stay below the polling oracle's count.
TEST(WaitQueueServing, EventsPerTaskStayFlatAsBacklogDoubles) {
  const topology::Topology topo = topology::f1_16xlarge();
  const RandomModels models(topo, 11, 2);
  const double rate = 3.0 / models.views()[0].single_latency.count();
  const std::vector<serve::Request> stream = serve::poisson_arrivals(
      {1.0, 1.0}, rate, Seconds(1000.0 / rate), 11);
  const std::size_t n = 300;
  ASSERT_GE(stream.size(), 2 * n);
  const serve::SchedulerOptions options = options_for("none");
  const serve::OnlineScheduler scheduler(topo, models.views(), options);

  double per_task[2] = {};
  for (int doubling = 0; doubling < 2; ++doubling) {
    const std::vector<serve::Request> arrivals(
        stream.begin(),
        stream.begin() + static_cast<std::ptrdiff_t>(n << doubling));
    obs::MetricsRegistry registry;
    obs::install_metrics(&registry);
    const serve::ServeResult result = scheduler.run(arrivals);
    obs::install_metrics(nullptr);
    const serve::ServeResult polled =
        testing::polling::serve(topo, models.views(), options, arrivals);
    ASSERT_GT(result.tasks_executed, 0);
    EXPECT_EQ(registry.counter_value("sim.events"), result.events);
    EXPECT_EQ(registry.counter_value("sim.tasks"), result.tasks_executed);
    EXPECT_LT(result.events, polled.events) << arrivals.size() << " requests";
    per_task[doubling] = static_cast<double>(result.events) /
                         static_cast<double>(result.tasks_executed);
    const std::vector<std::pair<std::string, double>> ratios = {
        {"sim.events_per_task", per_task[doubling]}};
    EXPECT_EQ(registry.ratio_values(), ratios);
  }
  EXPECT_LE(per_task[1], 1.2 * per_task[0])
      << "events/task " << per_task[0] << " -> " << per_task[1];
}

}  // namespace
}  // namespace mars
