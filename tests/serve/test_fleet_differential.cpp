// Differential serve-equivalence harness: the production FleetScheduler
// against the straight-line serial reference in
// tests/support/serve_stream.h, field-exact, across a seeded sweep of
// {Poisson, closed-loop, replay} workloads x model mixes x shards
// {1, 2, 4} x threads {1, 4}. The reference re-implements routing and
// merging independently, so the two paths only agree if the whole
// sharding contract holds: FNV routing, per-shard engine determinism,
// publish-by-index on the worker pool, and the stable time-major merge.
//
// On top of the raw-result equality, every sweep point also pins the
// user-facing byte contract: summarize() JSON (percentiles included) must
// be identical between the paths, and the sharded path must be identical
// to itself at a different thread count and on a repeat run.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../support/serve_stream.h"
#include "mars/plan/engines.h"
#include "mars/serve/fleet.h"
#include "mars/topology/presets.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

constexpr Seconds kSlo = Seconds(0.1);

/// Baseline-planned two-model fleet on a 4-accelerator replica group —
/// cheap to construct once, contended enough that batching and admission
/// decisions differ across shard counts if anything is off.
class FleetDifferentialTest : public ::testing::Test {
 protected:
  FleetDifferentialTest()
      : group_(topology::h2h_cloud(4, gbps(4.0), 4)),
        designs_(accel::h2h_designs()) {
    names_ = {"alexnet", "resnet18"};
    services_ = plan_services(names_, group_, designs_, /*adaptive=*/false,
                              plan::BaselineEngine{});
    for (const auto& service : services_) refs_.push_back(service.get());
  }

  [[nodiscard]] ServeResult fleet_run(const SchedulerOptions& options,
                                      int shards, int threads,
                                      const std::vector<Request>& arrivals)
      const {
    FleetOptions fleet_options;
    fleet_options.shards = shards;
    fleet_options.threads = threads;
    fleet_options.scheduler = options;
    return FleetScheduler(group_, refs_, fleet_options).run(arrivals);
  }

  topology::Topology group_;
  accel::DesignRegistry designs_;
  std::vector<std::unique_ptr<ModelService>> services_;
  std::vector<const ModelService*> refs_;
  std::vector<std::string> names_;
};

/// The workload grid: two mixes, two policies, three seeds — enough
/// variety to cover batching, shedding, and both models routing to every
/// shard, while staying well under a second of test time.
struct SweepPoint {
  std::vector<double> mix;
  const char* policy;
  std::uint64_t seed;
};

std::vector<SweepPoint> sweep_points() {
  return {
      {{1.0, 1.0}, "none", 1},
      {{1.0, 1.0}, "size:2+shed:4", 2},
      {{3.0, 1.0}, "timeout:2:4", 3},
      {{1.0, 3.0}, "slo:100", 4},
  };
}

TEST_F(FleetDifferentialTest, PoissonSweepMatchesSerialReference) {
  for (const SweepPoint& point : sweep_points()) {
    const PolicySpec policy = PolicySpec::parse(point.policy);
    SchedulerOptions options;
    options.policy = policy.batch;
    options.admission = policy.admission;
    const std::vector<Request> arrivals =
        poisson_arrivals(point.mix, 400.0, Seconds(1.0), point.seed);
    for (int shards : {1, 2, 4}) {
      const ServeResult reference = mars::testing::reference_sharded_run(
          group_, refs_, options, shards, arrivals);
      for (int threads : {1, 4}) {
        const std::string context = std::string("poisson policy=") +
                                    point.policy + " seed=" +
                                    std::to_string(point.seed) + " shards=" +
                                    std::to_string(shards) + " threads=" +
                                    std::to_string(threads);
        const ServeResult actual =
            fleet_run(options, shards, threads, arrivals);
        mars::testing::expect_results_identical(reference, actual, context);
        EXPECT_EQ(
            mars::testing::summary_json(reference, names_, kSlo),
            mars::testing::summary_json(actual, names_, kSlo))
            << context;
      }
    }
  }
}

TEST_F(FleetDifferentialTest, ClosedLoopSweepMatchesSerialReference) {
  for (const SweepPoint& point : sweep_points()) {
    const PolicySpec policy = PolicySpec::parse(point.policy);
    SchedulerOptions options;
    options.policy = policy.batch;
    options.admission = policy.admission;
    // Admission with think=0 is rejected by the scheduler (instant-retry
    // livelock), so every closed-loop point uses a real think time.
    const ClosedLoopSpec spec =
        make_closed_loop(point.mix, /*clients=*/9, milliseconds(5.0));
    const Seconds duration(0.5);
    for (int shards : {1, 2, 4}) {
      const ServeResult reference =
          mars::testing::reference_sharded_closed_loop(
              group_, refs_, options, shards, spec, duration);
      for (int threads : {1, 4}) {
        const std::string context = std::string("closed policy=") +
                                    point.policy + " shards=" +
                                    std::to_string(shards) + " threads=" +
                                    std::to_string(threads);
        FleetOptions fleet_options;
        fleet_options.shards = shards;
        fleet_options.threads = threads;
        fleet_options.scheduler = options;
        const ServeResult actual = FleetScheduler(group_, refs_, fleet_options)
                                       .run_closed_loop(spec, duration);
        mars::testing::expect_results_identical(reference, actual, context);
        EXPECT_EQ(
            mars::testing::summary_json(reference, names_, kSlo),
            mars::testing::summary_json(actual, names_, kSlo))
            << context;
      }
    }
  }
}

TEST_F(FleetDifferentialTest, ReplayTraceMatchesSerialReference) {
  // A hand-built trace with bursts, simultaneous arrivals, and both
  // models interleaved — the renumbered stream exercises routing on
  // (model, id) rather than arrival order alone.
  std::ostringstream csv;
  csv << "arrival_s,model\n";
  for (int i = 0; i < 200; ++i) {
    csv << (0.005 * (i / 4)) << ","
        << (i % 3 == 0 ? "resnet18" : "alexnet") << "\n";
  }
  std::istringstream in(csv.str());
  const std::vector<Request> arrivals = replay_trace(in, names_);
  ASSERT_EQ(arrivals.size(), 200u);

  const PolicySpec policy = PolicySpec::parse("size:2+shed:6");
  SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  for (int shards : {1, 2, 4}) {
    const ServeResult reference = mars::testing::reference_sharded_run(
        group_, refs_, options, shards, arrivals);
    for (int threads : {1, 4}) {
      const std::string context = "replay shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
      const ServeResult actual = fleet_run(options, shards, threads, arrivals);
      mars::testing::expect_results_identical(reference, actual, context);
      EXPECT_EQ(mars::testing::summary_json(reference, names_, kSlo),
                mars::testing::summary_json(actual, names_, kSlo))
          << context;
    }
  }
}

TEST_F(FleetDifferentialTest, RepeatRunsAreIdentical) {
  const std::vector<Request> arrivals =
      poisson_arrivals({1.0, 1.0}, 400.0, Seconds(1.0), 7);
  const PolicySpec policy = PolicySpec::parse("size:2+shed:4");
  SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  const ServeResult first = fleet_run(options, 4, 4, arrivals);
  const ServeResult second = fleet_run(options, 4, 4, arrivals);
  mars::testing::expect_results_identical(first, second,
                                          "repeat shards=4 threads=4");
}

/// shards == 1 must be THE serial scheduler, not merely equivalent to it:
/// the fleet layer delegates and the result is the unwrapped serial run.
TEST_F(FleetDifferentialTest, SingleShardDelegatesToSerialScheduler) {
  const std::vector<Request> arrivals =
      poisson_arrivals({1.0, 1.0}, 300.0, Seconds(1.0), 5);
  SchedulerOptions options;
  const ServeResult serial =
      OnlineScheduler(group_, refs_, options).run(arrivals);
  const ServeResult fleet = fleet_run(options, 1, 4, arrivals);
  mars::testing::expect_results_identical(serial, fleet, "shards=1");
}

TEST_F(FleetDifferentialTest, RejectsNonPositiveShardsAndThreads) {
  FleetOptions bad_shards;
  bad_shards.shards = 0;
  EXPECT_THROW(FleetScheduler(group_, refs_, bad_shards),
               InvalidArgument);
  bad_shards.shards = -2;
  EXPECT_THROW(FleetScheduler(group_, refs_, bad_shards),
               InvalidArgument);
  FleetOptions bad_threads;
  bad_threads.threads = 0;
  EXPECT_THROW(FleetScheduler(group_, refs_, bad_threads),
               InvalidArgument);
}

}  // namespace
}  // namespace mars::serve
