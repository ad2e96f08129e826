// Randomized executor stress: structural invariants on arbitrary task
// graphs — completion, dependency order, resource exclusivity, and lower
// bounds from aggregate work.
#include <gtest/gtest.h>

#include <algorithm>

#include "mars/plan/engines.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/workload.h"
#include "mars/sim/executor.h"
#include "mars/topology/presets.h"
#include "mars/util/rng.h"
#include "support/random_graph.h"

namespace mars::sim {
namespace {

using testing::random_graph;
using testing::RandomGraph;

class ExecutorStress : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorStress, InvariantsHoldOnRandomGraphs) {
  const topology::Topology topo = topology::f1_16xlarge();
  const Executor exec(topo, {});
  Rng rng(static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 10; ++trial) {
    const RandomGraph random = random_graph(topo, rng, 120);
    const ExecutionResult result = exec.run(random.tg);

    double max_acc_work = 0.0;
    for (double w : random.acc_work_seconds) max_acc_work = std::max(max_acc_work, w);

    // 1. Every task ends after it starts, by the makespan; makespan >= the
    // busiest accelerator's work.
    for (const TaskTiming& timing : result.timings) {
      EXPECT_GE(timing.end.count() + 1e-15, timing.start.count());
      EXPECT_LE(timing.end.count(), result.makespan.count() + 1e-15);
    }
    EXPECT_GE(result.makespan.count() + 1e-12, max_acc_work);

    // 2. Dependency order.
    for (const Task& task : random.tg.tasks()) {
      for (TaskId dep : task.deps) {
        EXPECT_LE(result.timings[static_cast<std::size_t>(dep)].end.count(),
                  result.timings[static_cast<std::size_t>(task.id)].start.count() +
                      1e-12)
            << "task " << task.id << " started before dep " << dep;
      }
    }

    // 3. Compute exclusivity: tasks on the same accelerator never overlap.
    std::vector<std::vector<std::pair<double, double>>> busy(
        static_cast<std::size_t>(topo.size()));
    for (const Task& task : random.tg.tasks()) {
      if (task.kind != TaskKind::kCompute) continue;
      const TaskTiming& timing = result.timings[static_cast<std::size_t>(task.id)];
      busy[static_cast<std::size_t>(task.acc)].emplace_back(timing.start.count(),
                                                            timing.end.count());
    }
    for (auto& intervals : busy) {
      std::sort(intervals.begin(), intervals.end());
      for (std::size_t i = 1; i < intervals.size(); ++i) {
        EXPECT_GE(intervals[i].first + 1e-12, intervals[i - 1].second)
            << "overlapping compute on one accelerator";
      }
    }

    // 4. Accounted busy time matches the injected work.
    for (topology::AccId acc = 0; acc < topo.size(); ++acc) {
      EXPECT_NEAR(result.acc_busy[static_cast<std::size_t>(acc)].count(),
                  random.acc_work_seconds[static_cast<std::size_t>(acc)], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorStress, ::testing::Values(1, 2, 3, 4));

/// FlatTaskGraph::from must mirror the builder form column for column on
/// arbitrary graphs — the serving engine's event ordering (and so its
/// bit-determinism) depends on the flat arrays preserving builder order
/// exactly: tasks in id order, dependents in construction order
/// (duplicate edges preserved), roots in id order.
TEST(ExecutorStress, FlatGraphMirrorsBuilderOrder) {
  const topology::Topology topo = topology::f1_16xlarge();
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const RandomGraph random = random_graph(topo, rng, 200);
    const FlatTaskGraph flat = FlatTaskGraph::from(random.tg);

    ASSERT_EQ(flat.size, random.tg.size());
    ASSERT_EQ(flat.dependent_offsets.size(),
              static_cast<std::size_t>(flat.size) + 1);
    std::vector<TaskId> expected_roots;
    for (const Task& task : random.tg.tasks()) {
      const auto t = static_cast<std::size_t>(task.id);
      EXPECT_EQ(flat.kinds[t], task.kind);
      EXPECT_EQ(flat.accs[t], task.acc);
      EXPECT_EQ(flat.durations[t].count(), task.duration.count());
      EXPECT_EQ(flat.srcs[t], task.src);
      EXPECT_EQ(flat.dsts[t], task.dst);
      EXPECT_EQ(flat.bytes[t].count(), task.bytes.count());
      EXPECT_EQ(flat.dep_counts[t], static_cast<int>(task.deps.size()));
      if (task.deps.empty()) expected_roots.push_back(task.id);
    }
    EXPECT_EQ(flat.roots, expected_roots);

    // Rebuild each task's dependents by scanning tasks in id order and
    // their deps in declaration order — the construction order the CSR
    // must reproduce.
    std::vector<std::vector<TaskId>> expected(
        static_cast<std::size_t>(flat.size));
    for (const Task& task : random.tg.tasks()) {
      for (TaskId dep : task.deps) {
        expected[static_cast<std::size_t>(dep)].push_back(task.id);
      }
    }
    for (int t = 0; t < flat.size; ++t) {
      const auto begin =
          static_cast<std::size_t>(flat.dependent_offsets[static_cast<std::size_t>(t)]);
      const auto end = static_cast<std::size_t>(
          flat.dependent_offsets[static_cast<std::size_t>(t) + 1]);
      const std::vector<TaskId> actual(flat.dependents.begin() + begin,
                                       flat.dependents.begin() + end);
      EXPECT_EQ(actual, expected[static_cast<std::size_t>(t)]) << "task " << t;
    }
  }
}

/// 100k-request serving soak: the arena-backed engine recycles instance
/// blocks through its free lists for the whole stream. Run under
/// ASan/UBSan in CI, this catches any reuse-before-last-event or
/// trailing-array overflow in the recycling scheme; the accounting
/// checks pin that no request was lost or double-counted.
TEST(ExecutorStress, ServingSoakRecyclesInstances) {
  const topology::Topology topo = topology::h2h_cloud(4, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const auto services = serve::plan_services(
      {"alexnet"}, topo, designs, /*adaptive=*/false, plan::BaselineEngine{});
  const serve::ModelService& service = *services.front();

  const serve::PolicySpec policy = serve::PolicySpec::parse("shed:8");
  serve::SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  const serve::OnlineScheduler scheduler(topo, {&service}, options);

  const std::vector<serve::Request> arrivals =
      serve::poisson_arrivals({1.0}, 50000.0, Seconds(2.0), 17);
  ASSERT_GT(arrivals.size(), 90000u);
  const serve::ServeResult result = scheduler.run(arrivals);
  EXPECT_EQ(result.completed.size() + result.rejected.size(),
            arrivals.size());
  EXPECT_GT(result.completed.size(), 0u);
  EXPECT_GT(result.rejected.size(), 0u);  // shed:8 really bounded the depth
  EXPECT_EQ(result.tasks_executed,
            static_cast<long long>(result.completed.size()) *
                service.flat_proto().size);
  EXPECT_GT(result.horizon.count(), 0.0);
}

TEST(ExecutorStress, LongDependencyChain) {
  const topology::Topology topo = topology::fully_connected(2, gbps(8.0), gbps(2.0));
  const Executor exec(topo, {});
  TaskGraph tg;
  TaskId prev = tg.add_compute(0, microseconds(1.0), "t0");
  for (int i = 1; i < 500; ++i) {
    prev = tg.add_compute(i % 2, microseconds(1.0), "t" + std::to_string(i),
                          {prev});
  }
  const ExecutionResult result = exec.run(tg);
  EXPECT_NEAR(result.makespan.micros(), 500.0, 1e-6);
}

TEST(ExecutorStress, WideFanOutFanIn) {
  const topology::Topology topo = topology::fully_connected(8, gbps(8.0), gbps(2.0));
  const Executor exec(topo, {});
  TaskGraph tg;
  const TaskId source = tg.add_compute(0, microseconds(1.0), "src");
  std::vector<TaskId> middle;
  for (int i = 0; i < 64; ++i) {
    middle.push_back(tg.add_compute(i % 8, microseconds(10.0),
                                    "m" + std::to_string(i), {source}));
  }
  const TaskId sink = tg.add_barrier(middle, "sink");
  const ExecutionResult result = exec.run(tg);
  // 64 tasks of 10us across 8 accelerators = 80us of serialized-per-acc
  // work after the 1us source.
  EXPECT_NEAR(result.makespan.micros(), 81.0, 1e-6);
  EXPECT_DOUBLE_EQ(result.timings[static_cast<std::size_t>(sink)].end.count(),
                   result.makespan.count());
}

}  // namespace
}  // namespace mars::sim
