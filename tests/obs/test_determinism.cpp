// The trace determinism contract, end to end: simulated-domain events are
// byte-identical per seed across repeat runs and across worker-pool sizes,
// tracing never perturbs results, and component counters flush into the
// installed registry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/test_support.h"
#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/plan/engines.h"
#include "mars/serve/metrics.h"
#include "mars/serve/report.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/workload.h"
#include "mars/topology/presets.h"

namespace mars::obs {
namespace {

core::MarsConfig tiny_tuning(int threads) {
  core::MarsConfig config;
  config.seed = 7;
  config.threads = threads;
  config.first_ga.population = 8;
  config.first_ga.generations = 4;
  config.first_ga.stall_generations = 3;
  config.second.ga.population = 6;
  config.second.ga.generations = 3;
  return config;
}

/// The simulated-domain (pid 1) slice of an exported trace, one event dump
/// per line — the byte stream the determinism contract covers.
std::string sim_slice(const TraceRecorder& rec) {
  const JsonValue doc = rec.to_json();
  const JsonValue& events = doc.get("traceEvents");
  std::string out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.at(i).get("pid").as_integer() == trace_pid(Clock::kSim)) {
      out += events.at(i).dump();
      out += '\n';
    }
  }
  return out;
}

/// Two baseline-mapped services contending on the F1 system; cheap enough
/// to rebuild per run.
struct Fleet {
  Fleet()
      : topo(topology::f1_16xlarge()), designs(accel::table2_designs()) {
    services = serve::plan_services({"alexnet", "resnet18"}, topo, designs,
                                    /*adaptive=*/true, plan::BaselineEngine{});
    for (const auto& service : services) refs.push_back(service.get());
  }
  [[nodiscard]] serve::ServeResult run() const {
    const serve::OnlineScheduler scheduler(topo, refs, {});
    return scheduler.run(
        serve::poisson_arrivals({1.0, 1.0}, 80.0, Seconds(1.0), 11));
  }

  topology::Topology topo;
  accel::DesignRegistry designs;
  std::vector<std::unique_ptr<serve::ModelService>> services;
  std::vector<const serve::ModelService*> refs;
};

/// One traced "CLI run": a threaded mapping search (wall-domain events from
/// the pool and the engines) followed by a serving simulation (sim-domain
/// events from the serial event loop), sharing one recorder — exactly the
/// `mars_map serve --trace` shape.
std::string traced_run(int threads) {
  const core::testing::AdaptiveFixture fx;
  TraceRecorder rec;
  TraceRecorder* saved = install_trace(&rec);
  (void)plan::make_engine("ga", tiny_tuning(threads))->search(fx.problem);
  const Fleet fleet;
  (void)fleet.run();
  install_trace(saved);
  return sim_slice(rec);
}

TEST(TraceDeterminismTest, SimSliceIsByteIdenticalAcrossRepeatsAndThreads) {
  const std::string one = traced_run(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, traced_run(1));  // repeat run
  EXPECT_EQ(one, traced_run(4));  // pool size must not leak into pid 1
}

TEST(TraceDeterminismTest, TracingDoesNotPerturbSchedulerResults) {
  const Fleet fleet;
  const serve::ServeResult plain = fleet.run();

  TraceRecorder rec;
  TraceRecorder* saved = install_trace(&rec);
  const serve::ServeResult traced = fleet.run();
  install_trace(saved);

  ASSERT_EQ(traced.completed.size(), plain.completed.size());
  EXPECT_EQ(traced.batches_dispatched, plain.batches_dispatched);
  EXPECT_EQ(traced.tasks_executed, plain.tasks_executed);
  for (std::size_t i = 0; i < plain.completed.size(); ++i) {
    EXPECT_DOUBLE_EQ(traced.completed[i].completion.count(),
                     plain.completed[i].completion.count());
  }
  // The report the CLI prints on stdout is byte-identical too.
  const std::vector<std::string> names = {"alexnet", "resnet18"};
  EXPECT_EQ(serve::describe(serve::summarize(traced, names, Seconds(0.1))),
            serve::describe(serve::summarize(plain, names, Seconds(0.1))));
}

TEST(TraceDeterminismTest, SchedulerEmitsBalancedRequestLifecycles) {
  const Fleet fleet;
  TraceRecorder rec;
  TraceRecorder* saved = install_trace(&rec);
  const serve::ServeResult result = fleet.run();
  install_trace(saved);

  const JsonValue doc = rec.to_json();
  const JsonValue& events = doc.get("traceEvents");
  long long begins = 0;
  long long ends = 0;
  long long acc_spans = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string ph = events.at(i).get("ph").as_string();
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
    if (ph == "X") ++acc_spans;
  }
  EXPECT_EQ(begins, ends);
  // Each completed request opens model + queue + execute phases.
  EXPECT_EQ(begins, 3 * static_cast<long long>(result.completed.size()));
  // Per-accelerator busy spans: one per executed compute task.
  EXPECT_GT(acc_spans, 0);
}

TEST(RegistryFlushTest, SearchCountersReachTheInstalledRegistry) {
  MetricsRegistry registry;
  MetricsRegistry* saved = install_metrics(&registry);
  {
    const core::testing::AdaptiveFixture fx;
    // An evaluation budget forces the engine to poll its meter.
    (void)plan::make_engine("ga", tiny_tuning(1))
        ->search(fx.problem, plan::Budget::evaluations(60));
  }  // engine destroyed: SkeletonSpace flushes its instance registry
  install_metrics(saved);
  EXPECT_GT(registry.counter_value("search.space.memo.hits") +
                registry.counter_value("search.space.memo.misses"),
            0);
  EXPECT_GT(registry.counter_value("plan.budget.polls"), 0);
}

TEST(RegistryFlushTest, ServeCountersMatchSchedulerResults) {
  MetricsRegistry registry;
  MetricsRegistry* saved = install_metrics(&registry);
  const Fleet fleet;
  const serve::ServeResult result = fleet.run();
  install_metrics(saved);
  EXPECT_EQ(registry.counter_value("serve.requests.completed"),
            static_cast<long long>(result.completed.size()));
  EXPECT_EQ(registry.counter_value("serve.batches.dispatched"),
            result.batches_dispatched);
  EXPECT_EQ(registry.counter_value("serve.tasks.executed"),
            result.tasks_executed);
  EXPECT_EQ(registry.histogram("serve.latency_seconds").count(),
            static_cast<long long>(result.completed.size()));
}

}  // namespace
}  // namespace mars::obs
