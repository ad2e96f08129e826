#include "mars/sim/executor.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mars/obs/metrics.h"

#include "mars/topology/presets.h"
#include "mars/util/error.h"

namespace mars::sim {
namespace {

SimParams zero_latency() {
  SimParams params;
  params.link_latency = Seconds(0.0);
  params.host_latency = Seconds(0.0);
  return params;
}

class ExecutorTest : public ::testing::Test {
 protected:
  topology::Topology topo_ = topology::f1_16xlarge();
  Executor exec_{topo_, zero_latency()};
};

TEST_F(ExecutorTest, SingleComputeTask) {
  TaskGraph tg;
  tg.add_compute(0, milliseconds(2.0), "work");
  const ExecutionResult result = exec_.run(tg);
  EXPECT_DOUBLE_EQ(result.makespan.millis(), 2.0);
  EXPECT_DOUBLE_EQ(result.acc_busy[0].millis(), 2.0);
}

TEST_F(ExecutorTest, ChainedDependenciesSerialize) {
  TaskGraph tg;
  const TaskId a = tg.add_compute(0, milliseconds(1.0), "a");
  const TaskId b = tg.add_compute(1, milliseconds(1.0), "b", {a});
  tg.add_compute(2, milliseconds(1.0), "c", {b});
  EXPECT_DOUBLE_EQ(exec_.run(tg).makespan.millis(), 3.0);
}

TEST_F(ExecutorTest, IndependentTasksOverlapAcrossAccelerators) {
  TaskGraph tg;
  for (int acc = 0; acc < 4; ++acc) {
    tg.add_compute(acc, milliseconds(1.0), "p" + std::to_string(acc));
  }
  EXPECT_DOUBLE_EQ(exec_.run(tg).makespan.millis(), 1.0);
}

TEST_F(ExecutorTest, SameAcceleratorSerializes) {
  TaskGraph tg;
  tg.add_compute(0, milliseconds(1.0), "a");
  tg.add_compute(0, milliseconds(1.0), "b");
  const ExecutionResult result = exec_.run(tg);
  EXPECT_DOUBLE_EQ(result.makespan.millis(), 2.0);
  EXPECT_DOUBLE_EQ(result.acc_busy[0].millis(), 2.0);
}

TEST_F(ExecutorTest, TransferTimeMatchesBandwidth) {
  TaskGraph tg;
  // 1 MB over the 8 Gb/s intra-group link = 1e6 / 1e9 s = 1 ms.
  tg.add_transfer(0, 1, Bytes(1e6), "move");
  EXPECT_NEAR(exec_.run(tg).makespan.millis(), 1.0, 1e-9);
}

TEST_F(ExecutorTest, CrossGroupTransferPaysBothHostLegs) {
  TaskGraph tg;
  // 1 MB at 2 Gb/s per leg = 4 ms per leg, two legs store-and-forward.
  tg.add_transfer(0, 4, Bytes(1e6), "cross");
  EXPECT_NEAR(exec_.run(tg).makespan.millis(), 8.0, 1e-9);
}

TEST_F(ExecutorTest, LinkContentionQueuesFlows) {
  TaskGraph tg;
  // Two flows over the same directed channel serialize.
  tg.add_transfer(0, 1, Bytes(1e6), "f1");
  tg.add_transfer(0, 1, Bytes(1e6), "f2");
  EXPECT_NEAR(exec_.run(tg).makespan.millis(), 2.0, 1e-9);
}

TEST_F(ExecutorTest, FullDuplexDoesNotConflict) {
  TaskGraph tg;
  tg.add_transfer(0, 1, Bytes(1e6), "fwd");
  tg.add_transfer(1, 0, Bytes(1e6), "rev");
  EXPECT_NEAR(exec_.run(tg).makespan.millis(), 1.0, 1e-9);
}

TEST_F(ExecutorTest, DistinctLinksRunConcurrently) {
  TaskGraph tg;
  tg.add_transfer(0, 1, Bytes(1e6), "a");
  tg.add_transfer(2, 3, Bytes(1e6), "b");
  EXPECT_NEAR(exec_.run(tg).makespan.millis(), 1.0, 1e-9);
}

TEST_F(ExecutorTest, HostChannelCongestionIsModelled) {
  TaskGraph tg;
  // Two cross-group flows from the same source acc share its host up-link.
  tg.add_transfer(0, 4, Bytes(1e6), "x");
  tg.add_transfer(0, 5, Bytes(1e6), "y");
  // Up legs serialize (4 + 4 ms), down legs run on distinct channels but
  // the second cannot start before its up leg ends: 8 + 4 = 12 ms.
  EXPECT_NEAR(exec_.run(tg).makespan.millis(), 12.0, 1e-9);
}

TEST_F(ExecutorTest, BarriersCostNothing) {
  TaskGraph tg;
  const TaskId a = tg.add_compute(0, milliseconds(1.0), "a");
  const TaskId barrier = tg.add_barrier({a});
  tg.add_compute(1, milliseconds(1.0), "b", {barrier});
  EXPECT_DOUBLE_EQ(exec_.run(tg).makespan.millis(), 2.0);
}

TEST_F(ExecutorTest, ZeroByteTransferIsInstant) {
  TaskGraph tg;
  tg.add_transfer(0, 1, Bytes(0.0), "empty");
  EXPECT_DOUBLE_EQ(exec_.run(tg).makespan.count(), 0.0);
}

TEST_F(ExecutorTest, LatencyParametersApply) {
  SimParams params;
  params.link_latency = microseconds(10.0);
  params.host_latency = microseconds(100.0);
  const Executor exec(topo_, params);
  TaskGraph tg;
  tg.add_transfer(0, 4, Bytes(1e6), "cross");
  // 4 ms + 10 us + store-and-forward 100 us + 4 ms + 10 us.
  EXPECT_NEAR(exec.run(tg).makespan.millis(), 8.0 + 0.12, 1e-9);
}

TEST_F(ExecutorTest, DeterministicAcrossRuns) {
  TaskGraph tg;
  for (int i = 0; i < 20; ++i) {
    tg.add_compute(i % 8, microseconds(10.0 + i), "t" + std::to_string(i));
  }
  const Seconds first = exec_.run(tg).makespan;
  for (int run = 0; run < 3; ++run) {
    EXPECT_DOUBLE_EQ(exec_.run(tg).makespan.count(), first.count());
  }
}

TEST_F(ExecutorTest, TimingsAreConsistent) {
  TaskGraph tg;
  const TaskId a = tg.add_compute(0, milliseconds(1.0), "a");
  const TaskId b = tg.add_transfer(0, 1, Bytes(1e6), "move", {a});
  const TaskId c = tg.add_compute(1, milliseconds(1.0), "c", {b});
  const ExecutionResult result = exec_.run(tg);
  EXPECT_LE(result.timings[a].end.count(), result.timings[b].start.count() + 1e-12);
  EXPECT_LE(result.timings[b].end.count(), result.timings[c].start.count() + 1e-12);
  EXPECT_DOUBLE_EQ(result.timings[c].end.count(), result.makespan.count());
}

TEST_F(ExecutorTest, CountsEventsAndTasksIntoTheInstalledRegistry) {
  TaskGraph tg;
  const TaskId a = tg.add_compute(0, milliseconds(1.0), "a");
  const TaskId b = tg.add_transfer(0, 1, Bytes(1e6), "move", {a});
  tg.add_compute(1, milliseconds(1.0), "c", {b});
  tg.add_compute(0, milliseconds(1.0), "d");
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_metrics(&registry);
  const ExecutionResult first = exec_.run(tg);
  const ExecutionResult second = exec_.run(tg);
  obs::install_metrics(previous);

  EXPECT_EQ(registry.counter_value("sim.events"), first.events + second.events);
  EXPECT_EQ(registry.counter_value("sim.tasks"), 2 * tg.size());
  const std::vector<std::pair<std::string, double>> ratios = {
      {"sim.events_per_task", static_cast<double>(first.events) /
                                  static_cast<double>(tg.size())}};
  EXPECT_EQ(registry.ratio_values(), ratios);
}

/// The InvalidArgument message `run` throws for `tg`, or "" if it runs.
std::string rejection(const Executor& exec, const TaskGraph& tg) {
  try {
    (void)exec.run(tg);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST_F(ExecutorTest, RejectsResourcesTheTopologyLacks) {
  // f1_16xlarge has accelerators 0..7.
  TaskGraph compute;
  compute.add_compute(0, milliseconds(1.0), "fine");
  compute.add_compute(10, milliseconds(1.0), "off the fleet");
  const std::string message = rejection(exec_, compute);
  EXPECT_NE(message.find("task 1 computes on accelerator 10"),
            std::string::npos)
      << message;

  TaskGraph transfer;
  transfer.add_transfer(3, 8, Bytes(1e3), "off the fleet");
  EXPECT_NE(rejection(exec_, transfer).find("task 0 transfers via accelerator 8"),
            std::string::npos);
  TaskGraph from_host;
  from_host.add_transfer(kHost, 7, Bytes(1e3), "fine");
  EXPECT_EQ(rejection(exec_, from_host), "");
}

TEST(TaskGraphValidation, RejectsBadInput) {
  TaskGraph tg;
  EXPECT_THROW((void)tg.add_compute(-1, Seconds(1.0), "bad"), InvalidArgument);
  EXPECT_THROW((void)tg.add_compute(0, Seconds(-1.0), "bad"), InvalidArgument);
  EXPECT_THROW((void)tg.add_transfer(0, 0, Bytes(1.0), "self"), InvalidArgument);
  EXPECT_THROW((void)tg.add_compute(0, Seconds(1.0), "fwd", {5}), InvalidArgument);
  const TaskId a = tg.add_compute(0, Seconds(1.0), "ok");
  EXPECT_EQ(a, 0);
  EXPECT_THROW((void)tg.task(7), InvalidArgument);
}

}  // namespace
}  // namespace mars::sim
