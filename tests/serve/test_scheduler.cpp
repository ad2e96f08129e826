#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mars/plan/engines.h"
#include "mars/serve/metrics.h"
#include "mars/serve/scheduler.h"
#include "mars/topology/presets.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

Request at(int id, double seconds, int model = 0) {
  Request request;
  request.id = id;
  request.model = model;
  request.arrival = Seconds(seconds);
  return request;
}

/// Baseline-mapped services on the F1 system: fast to plan, and both
/// models span both accelerator groups, so co-residents really contend.
class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : topo_(topology::f1_16xlarge()), designs_(accel::table2_designs()) {
    services_ = plan_services({"alexnet", "resnet18"}, topo_, designs_,
                              /*adaptive=*/true, plan::BaselineEngine{});
    for (const auto& service : services_) refs_.push_back(service.get());
  }

  [[nodiscard]] OnlineScheduler scheduler(
      BatchPolicy policy = BatchPolicy::none()) const {
    SchedulerOptions options;
    options.policy = policy;
    return OnlineScheduler(topo_, refs_, options);
  }

  [[nodiscard]] OnlineScheduler admitting(AdmissionPolicy admission,
                                          BatchPolicy policy =
                                              BatchPolicy::none()) const {
    SchedulerOptions options;
    options.policy = policy;
    options.admission = admission;
    return OnlineScheduler(topo_, refs_, options);
  }

  topology::Topology topo_;
  accel::DesignRegistry designs_;
  std::vector<std::unique_ptr<ModelService>> services_;
  std::vector<const ModelService*> refs_;
};

TEST_F(SchedulerTest, SingleRequestMatchesUncontendedLatency) {
  const ServeResult result = scheduler().run({at(0, 0.0)});
  ASSERT_EQ(result.completed.size(), 1u);
  const CompletedRequest& done = result.completed.front();
  EXPECT_DOUBLE_EQ(done.dispatch.count(), 0.0);
  EXPECT_DOUBLE_EQ(done.completion.count(),
                   services_[0]->single_latency().count());
  EXPECT_DOUBLE_EQ(done.latency().count(),
                   services_[0]->single_latency().count());
  EXPECT_EQ(result.batches_dispatched, 1);
  EXPECT_EQ(result.tasks_executed, services_[0]->flat_proto().size);
}

TEST_F(SchedulerTest, LateRequestLatencyIsArrivalRelative) {
  const ServeResult result = scheduler().run({at(0, 1.5)});
  ASSERT_EQ(result.completed.size(), 1u);
  // Offsetting every event by 1.5 s loses a few ulps relative to the
  // t=0 replay; the schedule itself is identical.
  EXPECT_NEAR(result.completed[0].latency().count(),
              services_[0]->single_latency().count(), 1e-12);
  EXPECT_NEAR(result.completed[0].completion.count(),
              1.5 + services_[0]->single_latency().count(), 1e-12);
}

TEST_F(SchedulerTest, RunsAreDeterministic) {
  const std::vector<Request> arrivals =
      poisson_arrivals({1.0, 1.0}, 300.0, Seconds(0.5), 42);
  const ServeResult a = scheduler().run(arrivals);
  const ServeResult b = scheduler().run(arrivals);
  ASSERT_EQ(a.completed.size(), b.completed.size());
  ASSERT_FALSE(a.completed.empty());
  for (std::size_t i = 0; i < a.completed.size(); ++i) {
    EXPECT_EQ(a.completed[i].request.id, b.completed[i].request.id);
    EXPECT_DOUBLE_EQ(a.completed[i].completion.count(),
                     b.completed[i].completion.count());
  }
  EXPECT_DOUBLE_EQ(a.horizon.count(), b.horizon.count());
  for (std::size_t i = 0; i < a.acc_busy.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.acc_busy[i].count(), b.acc_busy[i].count());
  }
}

TEST_F(SchedulerTest, ConcurrentRequestsContendForTheFleet) {
  const ServeResult result = scheduler().run({at(0, 0.0), at(1, 0.0)});
  ASSERT_EQ(result.completed.size(), 2u);
  const Seconds single = services_[0]->single_latency();
  // The second request queues behind the first on shared resources, but
  // set-level pipelining keeps it under 2x.
  EXPECT_GT(result.horizon.count(), single.count());
  EXPECT_LT(result.horizon.count(), 2.0 * single.count());
  for (const CompletedRequest& done : result.completed) {
    EXPECT_GE(done.latency().count(), single.count() * 0.999);
  }
}

TEST_F(SchedulerTest, CoResidentModelsInterfere) {
  // alexnet alone vs alexnet dispatched alongside a resnet18 request.
  const ServeResult alone = scheduler().run({at(0, 0.0, 0)});
  const ServeResult mixed =
      scheduler().run({at(0, 0.0, 1), at(1, 0.0, 0)});
  ASSERT_EQ(mixed.completed.size(), 2u);
  Seconds alexnet_mixed{};
  for (const CompletedRequest& done : mixed.completed) {
    if (done.request.model == 0) alexnet_mixed = done.latency();
  }
  EXPECT_GT(alexnet_mixed.count(), alone.completed[0].latency().count());
  EXPECT_GE(mixed.horizon.count(),
            std::max(services_[0]->single_latency().count(),
                     services_[1]->single_latency().count()));
}

TEST_F(SchedulerTest, SizeBatchingDispatchesWhenFull) {
  const ServeResult result =
      scheduler(BatchPolicy::size(2)).run({at(0, 0.0), at(1, 0.01)});
  ASSERT_EQ(result.completed.size(), 2u);
  EXPECT_EQ(result.batches_dispatched, 1);
  for (const CompletedRequest& done : result.completed) {
    EXPECT_EQ(done.batch_size, 2);
    EXPECT_DOUBLE_EQ(done.dispatch.count(), 0.01);
  }
  // The earlier request paid queueing delay waiting for the batch.
  const CompletedRequest& first = result.completed[0].request.id == 0
                                      ? result.completed[0]
                                      : result.completed[1];
  EXPECT_DOUBLE_EQ(first.queueing().count(), 0.01);
}

TEST_F(SchedulerTest, PartialBatchFlushesAtEndOfStream) {
  const ServeResult result = scheduler(BatchPolicy::size(4))
                                 .run({at(0, 0.0), at(1, 0.01), at(2, 0.02)});
  ASSERT_EQ(result.completed.size(), 3u);
  EXPECT_EQ(result.batches_dispatched, 1);
  for (const CompletedRequest& done : result.completed) {
    EXPECT_EQ(done.batch_size, 3);
    // The flush fires once the stream is exhausted (the last arrival).
    EXPECT_DOUBLE_EQ(done.dispatch.count(), 0.02);
  }
}

TEST_F(SchedulerTest, TimeoutBatchingDispatchesAtDeadline) {
  const ServeResult result =
      scheduler(BatchPolicy::with_timeout(8, milliseconds(5.0)))
          .run({at(0, 0.0)});
  ASSERT_EQ(result.completed.size(), 1u);
  EXPECT_DOUBLE_EQ(result.completed[0].dispatch.count(), 0.005);
  EXPECT_DOUBLE_EQ(result.completed[0].completion.count(),
                   0.005 + services_[0]->single_latency().count());
}

TEST_F(SchedulerTest, ClosedLoopRespectsThinkTime) {
  ClosedLoopSpec spec;
  spec.client_model = {0};
  spec.think = milliseconds(2.0);
  const ServeResult result =
      scheduler().run_closed_loop(spec, Seconds(0.25));
  ASSERT_GE(result.completed.size(), 2u);
  for (std::size_t i = 0; i < result.completed.size(); ++i) {
    EXPECT_EQ(result.completed[i].request.client, 0);
    if (i > 0) {
      // One outstanding request per client: the next issue happens
      // exactly `think` after the previous completion.
      EXPECT_DOUBLE_EQ(
          result.completed[i].request.arrival.count(),
          result.completed[i - 1].completion.count() + 0.002);
    }
  }
  // No request is issued past the horizon.
  for (const CompletedRequest& done : result.completed) {
    EXPECT_LE(done.request.arrival.count(), 0.25);
  }
}

TEST_F(SchedulerTest, ClosedLoopServesAllClients) {
  const ClosedLoopSpec spec = make_closed_loop({1.0, 1.0}, 4, milliseconds(1.0));
  const ServeResult result =
      scheduler().run_closed_loop(spec, Seconds(0.1));
  ASSERT_GE(result.completed.size(), 4u);
  bool seen[4] = {false, false, false, false};
  for (const CompletedRequest& done : result.completed) {
    ASSERT_GE(done.request.client, 0);
    ASSERT_LT(done.request.client, 4);
    seen[done.request.client] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(SchedulerTest, UtilizationStaysPhysical) {
  const std::vector<Request> arrivals =
      poisson_arrivals({1.0, 1.0}, 200.0, Seconds(0.5), 1);
  const ServeResult result = scheduler(BatchPolicy::size(4)).run(arrivals);
  EXPECT_EQ(result.completed.size(), arrivals.size());
  const ServeMetrics metrics =
      summarize(result, {"alexnet", "resnet18"}, milliseconds(50.0));
  ASSERT_EQ(metrics.utilization.size(), static_cast<std::size_t>(topo_.size()));
  for (double u : metrics.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
  EXPECT_GT(metrics.throughput_rps, 0.0);
  EXPECT_GE(metrics.goodput_rps, 0.0);
  EXPECT_LE(metrics.goodput_rps, metrics.throughput_rps + 1e-12);
}

TEST_F(SchedulerTest, RejectsForeignService) {
  const topology::Topology other = topology::f1_16xlarge();
  const auto foreign = plan_services({"alexnet"}, other, designs_,
                                     /*adaptive=*/true, plan::BaselineEngine{});
  EXPECT_THROW((void)OnlineScheduler(topo_, {foreign.front().get()}, {}),
               InvalidArgument);
}

TEST_F(SchedulerTest, RejectsModelsOnAcceleratorsTheTopologyLacks) {
  // f1_16xlarge has accelerators 0..7.
  sim::TaskGraph tg;
  tg.add_compute(10, milliseconds(1.0), "off the fleet");
  const sim::FlatTaskGraph flat = sim::FlatTaskGraph::from(tg);
  try {
    (void)OnlineScheduler(topo_, {ServedModel{"stray", &flat, Seconds(1e-3)}},
                          {});
    ADD_FAILURE() << "accepted a task on accelerator 10";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("task 0 computes on accelerator 10"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SchedulerTest, RejectsMismatchedSimParams) {
  // Services bake single_latency/proto under their Problem's SimParams;
  // replaying under different timing would silently disagree.
  SchedulerOptions options;
  options.sim.host_latency = microseconds(50.0);
  EXPECT_THROW((void)OnlineScheduler(topo_, refs_, options), InvalidArgument);
}

TEST_F(SchedulerTest, ShedPolicyCapsRequestsInTheSystem) {
  // Four simultaneous arrivals against a depth-1 cap: the first is
  // admitted, the burst behind it is shed.
  const ServeResult result =
      admitting(AdmissionPolicy::shed(1))
          .run({at(0, 0.0), at(1, 0.0), at(2, 0.0), at(3, 0.0)});
  EXPECT_EQ(result.completed.size(), 1u);
  EXPECT_EQ(result.rejected.size(), 3u);
  EXPECT_EQ(result.offered(), 4);
  EXPECT_EQ(result.completed[0].request.id, 0);
  for (const Request& shed : result.rejected) EXPECT_GT(shed.id, 0);
}

TEST_F(SchedulerTest, ShedPolicyIdlesAtLowLoad) {
  // Spaced far beyond the single-inference latency, every request finds
  // the system empty: nothing is shed, and the completions are identical
  // to the unpoliced run.
  const std::vector<Request> arrivals = {at(0, 0.0), at(1, 0.5), at(2, 1.0)};
  const ServeResult policed =
      admitting(AdmissionPolicy::shed(1)).run(arrivals);
  const ServeResult open = scheduler().run(arrivals);
  EXPECT_TRUE(policed.rejected.empty());
  ASSERT_EQ(policed.completed.size(), open.completed.size());
  for (std::size_t i = 0; i < open.completed.size(); ++i) {
    EXPECT_DOUBLE_EQ(policed.completed[i].completion.count(),
                     open.completed[i].completion.count());
  }
}

TEST_F(SchedulerTest, SloAdmissionShedsPredictedMisses) {
  // Budget below the uncontended latency: even an empty system is
  // predicted to miss, so everything is shed.
  const Seconds single = services_[0]->single_latency();
  const ServeResult hopeless =
      admitting(AdmissionPolicy::slo_aware(single * 0.5))
          .run({at(0, 0.0), at(1, 0.0)});
  EXPECT_TRUE(hopeless.completed.empty());
  EXPECT_EQ(hopeless.rejected.size(), 2u);

  // A budget just above the uncontended latency admits an empty-system
  // request but sheds the burst queued behind it.
  const ServeResult tight =
      admitting(AdmissionPolicy::slo_aware(single * 1.2))
          .run({at(0, 0.0), at(1, 0.0), at(2, 0.0), at(3, 0.0)});
  EXPECT_GE(tight.completed.size(), 1u);
  EXPECT_FALSE(tight.rejected.empty());
  EXPECT_EQ(tight.offered(), 4);

  // A generous budget admits everything.
  const ServeResult relaxed =
      admitting(AdmissionPolicy::slo_aware(Seconds(10.0)))
          .run({at(0, 0.0), at(1, 0.0), at(2, 0.0), at(3, 0.0)});
  EXPECT_TRUE(relaxed.rejected.empty());
  EXPECT_EQ(relaxed.completed.size(), 4u);
}

TEST_F(SchedulerTest, SloAdmissionImprovesTailLatencyUnderOverload) {
  const std::vector<Request> arrivals =
      poisson_arrivals({1.0, 1.0}, 600.0, Seconds(0.5), 7);
  const Seconds slo(0.05);
  const ServeMetrics open = summarize(scheduler().run(arrivals),
                                      {"alexnet", "resnet18"}, slo);
  const ServeMetrics policed =
      summarize(admitting(AdmissionPolicy::slo_aware(slo)).run(arrivals),
                {"alexnet", "resnet18"}, slo);
  EXPECT_GT(policed.rejected, 0);
  EXPECT_LT(policed.latency.p99.count(), open.latency.p99.count());
  EXPECT_GE(policed.goodput_rps, open.goodput_rps);
}

TEST_F(SchedulerTest, MetricsCountRejectedRequests) {
  const ServeResult result =
      admitting(AdmissionPolicy::shed(1))
          .run({at(0, 0.0), at(1, 0.0, 1), at(2, 0.0), at(3, 0.0, 1)});
  const ServeMetrics metrics =
      summarize(result, {"alexnet", "resnet18"}, milliseconds(50.0));
  EXPECT_EQ(metrics.offered, 4);
  EXPECT_EQ(metrics.requests, 2);
  EXPECT_EQ(metrics.rejected, 2);
  EXPECT_DOUBLE_EQ(metrics.shed_rate, 0.5);
  ASSERT_EQ(metrics.per_model.size(), 2u);
  EXPECT_EQ(metrics.per_model[0].rejected, 1);
  EXPECT_EQ(metrics.per_model[1].rejected, 1);
  // Rejected requests never contribute latency samples.
  EXPECT_EQ(metrics.latency.count, 2);
}

TEST_F(SchedulerTest, ClosedLoopClientRetriesAfterRejection) {
  // Two clients on one model under a depth-1 cap: at t=0 one is admitted
  // and one shed, but the shed client retries after `think` rather than
  // stalling, so both make progress and the run terminates.
  ClosedLoopSpec spec;
  spec.client_model = {0, 0};
  spec.think = milliseconds(1.0);
  const ServeResult result = admitting(AdmissionPolicy::shed(1))
                                 .run_closed_loop(spec, Seconds(0.1));
  EXPECT_FALSE(result.rejected.empty());
  bool seen[2] = {false, false};
  for (const CompletedRequest& done : result.completed) {
    ASSERT_GE(done.request.client, 0);
    seen[done.request.client] = true;
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  // Rejections and completions account for every issued request.
  for (const Request& shed : result.rejected) {
    EXPECT_LE(shed.arrival.count(), 0.1);
  }
}

TEST_F(SchedulerTest, RejectsBadRequests) {
  EXPECT_THROW((void)scheduler().run({at(0, 0.0, 7)}), InvalidArgument);
  EXPECT_THROW((void)scheduler().run({at(0, -1.0)}), InvalidArgument);
  EXPECT_THROW((void)OnlineScheduler(topo_, std::vector<const ModelService*>{}),
               InvalidArgument);
  EXPECT_THROW((void)OnlineScheduler(topo_, std::vector<ServedModel>{}),
               InvalidArgument);
}

TEST_F(SchedulerTest, ClosedLoopAdmissionNeedsPositiveThink) {
  // With think == 0 a rejected client would retry at the same simulated
  // instant forever; the scheduler refuses the combination up front.
  ClosedLoopSpec spec;
  spec.client_model = {0, 0};
  spec.think = Seconds(0.0);
  EXPECT_THROW((void)admitting(AdmissionPolicy::shed(1))
                   .run_closed_loop(spec, Seconds(0.1)),
               InvalidArgument);
  // Fine without admission control, and with a positive think.
  EXPECT_GT(scheduler().run_closed_loop(spec, Seconds(0.05)).completed.size(),
            0u);
  spec.think = milliseconds(1.0);
  EXPECT_GT(admitting(AdmissionPolicy::shed(1))
                .run_closed_loop(spec, Seconds(0.05))
                .completed.size(),
            0u);
}

}  // namespace
}  // namespace mars::serve
