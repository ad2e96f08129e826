// Differential check of the second-level oracle against the retained
// per-call implementation (tests/support/second_level_oracle.h): the
// greedy strategies and every SetCost field must match bit for bit once
// the set bandwidth, the strategy options and the spanning bytes are
// computed once per set, per (set size, layer shape) and per spine.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "support/second_level_oracle.h"
#include "test_support.h"
#include "mars/topology/candidates.h"
#include "mars/util/worker_pool.h"

namespace mars::core {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_identical(const SetCost& actual, const SetCost& expected,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(bits(actual.latency.compute.count()),
            bits(expected.latency.compute.count()));
  EXPECT_EQ(bits(actual.latency.intra_set.count()),
            bits(expected.latency.intra_set.count()));
  EXPECT_EQ(bits(actual.latency.inter_set.count()),
            bits(expected.latency.inter_set.count()));
  EXPECT_EQ(bits(actual.latency.host_io.count()),
            bits(expected.latency.host_io.count()));
  EXPECT_EQ(bits(actual.footprint.weights.count()),
            bits(expected.footprint.weights.count()));
  EXPECT_EQ(bits(actual.footprint.peak_activation.count()),
            bits(expected.footprint.peak_activation.count()));
  EXPECT_EQ(actual.memory_ok, expected.memory_ok);
  EXPECT_EQ(bits(actual.penalized.count()), bits(expected.penalized.count()));
}

// Layer ranges a skeleton set may own: the whole spine, its first layer,
// six consecutive chunks, the middle third and the last three layers.
std::vector<std::pair<int, int>> ranges_of(const graph::ConvSpine& spine) {
  const int n = spine.size();
  std::vector<std::pair<int, int>> ranges{{0, n}, {0, 1}, {n / 3, 2 * n / 3},
                                          {n - 3, n}};
  for (int chunk = 0; chunk < 6; ++chunk) {
    ranges.emplace_back(chunk * n / 6, (chunk + 1) * n / 6);
  }
  return ranges;
}

// Runs greedy and set_cost on every candidate AccSet x design x range and
// compares each with the oracle. Returns how many skeletons went through
// the memory repair.
int expect_matches_oracle(const Problem& problem, const SecondLevelConfig& config) {
  const SecondLevelSearch search(problem, config);
  const AnalyticalCostModel& model = search.model();
  std::vector<accel::DesignId> designs{accel::kInvalidDesign};
  if (problem.adaptive) designs = problem.designs->ids();

  int repaired = 0;
  for (const topology::AccSetCandidate& candidate :
       topology::accset_candidates(*problem.topo)) {
    for (accel::DesignId design : designs) {
      for (const auto& [begin, end] : ranges_of(*problem.spine)) {
        LayerAssignment skeleton;
        skeleton.accs = candidate.mask;
        skeleton.design = design;
        skeleton.begin = begin;
        skeleton.end = end;
        const std::string where = topology::mask_to_string(skeleton.accs) +
                                  " design " + std::to_string(design) + " [" +
                                  std::to_string(begin) + ", " +
                                  std::to_string(end) + ")";

        bool repair = false;
        const SecondLevelResult expected =
            oracle::greedy(model, config, skeleton, &repair);
        repaired += repair ? 1 : 0;
        const SecondLevelResult actual = search.greedy(skeleton);
        EXPECT_EQ(actual.strategies, expected.strategies) << where;
        expect_identical(actual.cost, expected.cost, where + " greedy");

        LayerAssignment full = skeleton;
        full.strategies = expected.strategies;
        expect_identical(model.set_cost(full), oracle::set_cost(model, full),
                         where + " set_cost");

        full.strategies.clear();
        for (int layer = begin; layer < end; ++layer) {
          full.strategies.push_back(oracle::options(problem, config, layer,
                                                    skeleton.num_accs())
                                        .back());
        }
        expect_identical(model.set_cost(full), oracle::set_cost(model, full),
                         where + " set_cost of the last options");
      }
    }
  }
  return repaired;
}

TEST(SecondLevelOracle, Resnet34OnF1) {
  testing::AdaptiveFixture fx("resnet34");
  expect_matches_oracle(fx.problem, SecondLevelConfig{});
}

TEST(SecondLevelOracle, Resnet34OnF1WithoutSs) {
  testing::AdaptiveFixture fx("resnet34");
  SecondLevelConfig config;
  config.enable_ss = false;
  expect_matches_oracle(fx.problem, config);
}

TEST(SecondLevelOracle, Resnet152OnF1) {
  testing::AdaptiveFixture fx("resnet152");
  expect_matches_oracle(fx.problem, SecondLevelConfig{});
}

TEST(SecondLevelOracle, FixedDesignH2hCloud) {
  testing::FixedFixture fx("casia_surf", gbps(8.0));
  expect_matches_oracle(fx.problem, SecondLevelConfig{});
}

TEST(SecondLevelOracle, MemoryRepairWithAndWithoutSs) {
  testing::TightFixture fx(48.0);
  EXPECT_GT(expect_matches_oracle(fx.problem, SecondLevelConfig{}), 0);
  SecondLevelConfig no_ss;
  no_ss.enable_ss = false;
  EXPECT_GT(expect_matches_oracle(fx.problem, no_ss), 0);
}

TEST(SecondLevelOracle, ConcurrentFirstUseMatchesOracle) {
  // Four pool threads each walk the whole candidate list on a fresh
  // search, all starting at the same set size, so every option slot is
  // first requested from several threads at once.
  testing::AdaptiveFixture fx("resnet34");
  const SecondLevelSearch search(fx.problem, SecondLevelConfig{});
  std::vector<LayerAssignment> skeletons;
  for (const topology::AccSetCandidate& candidate :
       topology::accset_candidates(fx.topo)) {
    LayerAssignment skeleton;
    skeleton.accs = candidate.mask;
    skeleton.design = 0;
    skeleton.begin = 0;
    skeleton.end = fx.spine.size();
    skeletons.push_back(skeleton);
  }
  constexpr int kThreads = 4;
  std::vector<SecondLevelResult> results(kThreads * skeletons.size());
  util::WorkerPool pool(kThreads);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    results[i] = search.greedy(skeletons[i % skeletons.size()]);
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LayerAssignment& skeleton = skeletons[i % skeletons.size()];
    const SecondLevelResult expected =
        oracle::greedy(search.model(), search.config(), skeleton);
    EXPECT_EQ(results[i].strategies, expected.strategies) << i;
    expect_identical(results[i].cost, expected.cost,
                     topology::mask_to_string(skeleton.accs));
  }
}

TEST(SecondLevelOracle, SpanningBytesMatchTheEdgeSum) {
  for (const std::string& name : graph::models::zoo_names()) {
    SCOPED_TRACE(name);
    const graph::ConvSpine spine =
        graph::ConvSpine::extract(graph::models::by_name(name));
    for (int index = 0; index < spine.size(); ++index) {
      EXPECT_EQ(bits(spine.spanning_bytes(index).count()),
                bits(oracle::spanning_bytes(spine, index).count()))
          << "node " << index;
    }
  }
}

}  // namespace
}  // namespace mars::core
