// Differential determinism suite for the serving-objective fitness: the
// batch path must charge and price exactly as a serial left-to-right
// score() sweep would, and a util::WorkerPool must change nothing — not
// the fitness bits, not the memo counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "mars/comap/objective.h"
#include "mars/plan/engines.h"
#include "mars/topology/presets.h"
#include "mars/util/error.h"
#include "mars/util/worker_pool.h"

namespace mars::comap {
namespace {

class ObjectiveTest : public ::testing::Test {
 protected:
  ObjectiveTest()
      : topo_(topology::h2h_cloud(4, gbps(4.0), 4)),
        designs_(accel::h2h_designs()) {
    problem_.tenants = {Tenant{"alexnet", 1.0, Seconds{}},
                        Tenant{"resnet18", 1.0, Seconds{}}};
    problem_.topo = &topo_;
    problem_.designs = &designs_;
    problem_.adaptive = false;
    problem_.rollout.rate = 120.0;
    problem_.rollout.duration = Seconds(0.3);
    problem_.rollout.seed = 7;
    problem_.rollout.default_slo = milliseconds(80.0);
  }

  /// Baseline mapping for tenant `t` restricted to `placement` — cheap,
  /// deterministic, and distinct mappings for distinct slices.
  [[nodiscard]] core::Mapping mapped(const ServingObjective& objective,
                                     std::size_t t,
                                     topology::AccMask placement) const {
    core::Problem sliced = objective.planner(t).problem();
    sliced.placement = placement;
    return plan::BaselineEngine().search(sliced).mapping;
  }

  /// A small pool of structurally distinct candidates over slice combos.
  [[nodiscard]] std::vector<CandidatePlan> candidates(
      const ServingObjective& objective) const {
    const topology::AccMask lower = 0x3;
    const topology::AccMask upper = 0xC;
    std::vector<CandidatePlan> plans;
    for (const auto& [a, b] :
         std::vector<std::pair<topology::AccMask, topology::AccMask>>{
             {0, 0}, {lower, upper}, {upper, lower}, {0, upper}, {lower, 0}}) {
      plans.push_back(
          {mapped(objective, 0, a), mapped(objective, 1, b)});
    }
    return plans;
  }

  topology::Topology topo_;
  accel::DesignRegistry designs_;
  CoMapProblem problem_;
};

TEST_F(ObjectiveTest, RejectsWrongArity) {
  ServingObjective objective(problem_);
  EXPECT_THROW((void)objective.score({mapped(objective, 0, 0)}),
               InvalidArgument);
}

TEST_F(ObjectiveTest, FitnessIsSloMissesPlusBoundedTail) {
  ServingObjective objective(problem_);
  const ServingObjective::Score score =
      objective.score(candidates(objective).front());
  EXPECT_GT(score.offered, 0);
  EXPECT_LE(score.good, score.completed);
  EXPECT_LE(score.completed + score.rejected, score.offered);
  const double integer_part = static_cast<double>(score.offered - score.good);
  EXPECT_GE(score.fitness, integer_part);
  EXPECT_LT(score.fitness, integer_part + 1.0);
}

TEST_F(ObjectiveTest, ScoreIsMemoised) {
  ServingObjective objective(problem_);
  const CandidatePlan plan = candidates(objective).front();
  const ServingObjective::Score first = objective.score(plan);
  EXPECT_EQ(objective.rollout_misses(), 1);
  EXPECT_EQ(objective.rollout_hits(), 0);
  const ServingObjective::Score again = objective.score(plan);
  EXPECT_EQ(objective.rollout_misses(), 1);
  EXPECT_EQ(objective.rollout_hits(), 1);
  EXPECT_EQ(first.fitness, again.fitness);
  // The per-tenant artifacts were reused, not rebuilt.
  EXPECT_EQ(objective.proto_misses(), 2);
  EXPECT_EQ(objective.proto_hits(), 2);
}

TEST_F(ObjectiveTest, BatchMatchesSerialScoreSweep) {
  ServingObjective serial(problem_);
  ServingObjective batched(problem_);
  std::vector<CandidatePlan> plans = candidates(serial);
  plans.push_back(plans[1]);  // an in-batch duplicate

  std::vector<double> expected;
  for (const CandidatePlan& plan : plans) {
    expected.push_back(serial.score(plan).fitness);
  }
  util::WorkerPool caller(1);
  const std::vector<double> actual = batched.score_batch(plans, caller);

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "candidate " << i;
  }
  EXPECT_EQ(batched.rollout_hits(), serial.rollout_hits());
  EXPECT_EQ(batched.rollout_misses(), serial.rollout_misses());
}

TEST_F(ObjectiveTest, BatchChargesDuplicatesAsHits) {
  ServingObjective objective(problem_);
  const std::vector<CandidatePlan> base = candidates(objective);
  // 5 distinct candidates, the second repeated twice more.
  std::vector<CandidatePlan> plans = base;
  plans.push_back(base[1]);
  plans.push_back(base[1]);
  util::WorkerPool caller(1);
  (void)objective.score_batch(plans, caller);
  EXPECT_EQ(objective.rollout_misses(), 5);
  EXPECT_EQ(objective.rollout_hits(), 2);
  // A repeat batch is all hits.
  (void)objective.score_batch(plans, caller);
  EXPECT_EQ(objective.rollout_misses(), 5);
  EXPECT_EQ(objective.rollout_hits(), 9);
}

TEST_F(ObjectiveTest, WorkerPoolChangesNothing) {
  ServingObjective serial(problem_);
  ServingObjective threaded(problem_);
  std::vector<CandidatePlan> plans = candidates(serial);
  plans.push_back(plans[2]);

  util::WorkerPool caller(1);
  const std::vector<double> reference = serial.score_batch(plans, caller);
  util::WorkerPool pool(4);
  const std::vector<double> parallel = threaded.score_batch(plans, pool);

  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(parallel[i], reference[i]) << "candidate " << i;
  }
  EXPECT_EQ(threaded.rollout_hits(), serial.rollout_hits());
  EXPECT_EQ(threaded.rollout_misses(), serial.rollout_misses());
  EXPECT_EQ(threaded.proto_hits(), serial.proto_hits());
  EXPECT_EQ(threaded.proto_misses(), serial.proto_misses());
}

TEST_F(ObjectiveTest, SignatureChangesWithEveryHashedField) {
  // Adaptive, so the design id is part of the mapping's identity.
  problem_.adaptive = true;
  const ServingObjective objective(problem_);
  const core::Mapping base = mapped(objective, 1, 0);
  ASSERT_FALSE(base.sets.empty());
  const std::uint64_t sig = objective.mapping_signature(1, base);
  EXPECT_EQ(objective.mapping_signature(1, core::Mapping(base)), sig);
  EXPECT_NE(objective.mapping_signature(0, base), sig);  // the tenant

  // One edit per hashed field; none of them has to be a valid mapping.
  const auto edited = [&](const std::function<void(core::Mapping&)>& edit) {
    core::Mapping changed = base;
    edit(changed);
    return objective.mapping_signature(1, changed);
  };
  const auto first = [](core::Mapping& m) -> core::LayerAssignment& {
    return m.sets.front();
  };
  const auto strategy = [&](core::Mapping& m) -> parallel::Strategy& {
    return first(m).strategies.front();
  };
  EXPECT_NE(edited([&](core::Mapping& m) { first(m).accs ^= 0x10; }), sig);
  EXPECT_NE(edited([&](core::Mapping& m) { first(m).design += 1; }), sig);
  EXPECT_NE(edited([&](core::Mapping& m) { first(m).begin += 1; }), sig);
  EXPECT_NE(edited([&](core::Mapping& m) { first(m).end += 1; }), sig);
  EXPECT_NE(edited([&](core::Mapping& m) { m.sets.push_back(m.sets.back()); }),
            sig);
  EXPECT_NE(edited([&](core::Mapping& m) {
              first(m).strategies.push_back(parallel::Strategy());
            }),
            sig);
  EXPECT_NE(edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}}, {});
            }),
            edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kW, 2}}, {});
            }));  // ES dim
  EXPECT_NE(edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}}, {});
            }),
            edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 4}}, {});
            }));  // ES ways
  EXPECT_NE(edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}}, {});
            }),
            edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy(
                  {{parallel::Dim::kH, 2}, {parallel::Dim::kW, 2}}, {});
            }));  // ES list length
  EXPECT_NE(edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}}, {});
            }),
            edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}},
                                               parallel::Dim::kCout);
            }));  // SS present
  EXPECT_NE(edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}},
                                               parallel::Dim::kCout);
            }),
            edited([&](core::Mapping& m) {
              strategy(m) = parallel::Strategy({{parallel::Dim::kH, 2}},
                                               parallel::Dim::kCin);
            }));  // SS dim
}

TEST_F(ObjectiveTest, FixedDesignSignatureIgnoresTheDesignId) {
  // A fixed-design fleet serialises every set's design as "fixed", so the
  // design id must not split two otherwise equal mappings.
  const ServingObjective objective(problem_);
  const core::Mapping base = mapped(objective, 0, 0);
  core::Mapping relabelled = base;
  relabelled.sets.front().design += 1;
  EXPECT_EQ(objective.mapping_signature(0, relabelled),
            objective.mapping_signature(0, base));
}

TEST_F(ObjectiveTest, PerTenantSlosReachAdmission) {
  // Same mappings, tighter tenant-0 SLO: goodput can only shrink, and
  // tenant 0's objective is the one consulted (fitness must change when
  // the tighter bound starts failing completions that used to be good).
  ServingObjective loose(problem_);
  const ServingObjective::Score base = loose.score(candidates(loose).front());

  CoMapProblem tight = problem_;
  tight.tenants[0].slo = milliseconds(1.0);  // unmeetably tight
  ServingObjective strict(tight);
  const ServingObjective::Score bound =
      strict.score(candidates(strict).front());
  EXPECT_LE(bound.good, base.good);
  EXPECT_GE(bound.fitness, base.fitness);
}

}  // namespace
}  // namespace mars::comap
