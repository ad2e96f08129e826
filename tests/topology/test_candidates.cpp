#include "mars/topology/candidates.h"

#include <gtest/gtest.h>

#include <set>

#include "mars/topology/presets.h"
#include "mars/util/error.h"
#include "mars/util/rng.h"

namespace mars::topology {
namespace {

TEST(Candidates, F1FamilyIsLaminarAndComplete) {
  const Topology topo = f1_16xlarge();
  const std::vector<AccSetCandidate> candidates = accset_candidates(topo);

  std::set<AccMask> masks;
  for (const AccSetCandidate& c : candidates) masks.insert(c.mask);

  // Both 4-FPGA groups, their 2-FPGA bisections, and all singletons.
  EXPECT_TRUE(masks.count(0b00001111u));
  EXPECT_TRUE(masks.count(0b11110000u));
  EXPECT_TRUE(masks.count(0b00000011u));
  EXPECT_TRUE(masks.count(0b00001100u));
  EXPECT_TRUE(masks.count(0b00110000u));
  EXPECT_TRUE(masks.count(0b11000000u));
  for (AccId id = 0; id < topo.size(); ++id) {
    EXPECT_TRUE(masks.count(mask_of(id))) << id;
  }
  // The full 8-FPGA mask is NOT a candidate: the two groups have no direct
  // links, so the edge-removal heuristic never yields a connected whole.
  EXPECT_FALSE(masks.count(topo.full_mask()));
}

TEST(Candidates, AllCandidatesAreConnected) {
  const Topology topo = f1_16xlarge();
  for (const AccSetCandidate& c : accset_candidates(topo)) {
    EXPECT_TRUE(topo.connected(c.mask)) << mask_to_string(c.mask);
    EXPECT_GT(c.internal_bw.bits_per_second(), 0.0);
  }
}

TEST(Candidates, SortedBySizeDescending) {
  const Topology topo = f1_16xlarge();
  const std::vector<AccSetCandidate> candidates = accset_candidates(topo);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(mask_count(candidates[i - 1].mask), mask_count(candidates[i].mask));
  }
}

TEST(Candidates, CliqueFamilyIncludesFullSet) {
  const Topology topo = fully_connected(8, gbps(4.0), gbps(4.0));
  const std::vector<AccSetCandidate> candidates = accset_candidates(topo);
  std::set<AccMask> masks;
  for (const AccSetCandidate& c : candidates) masks.insert(c.mask);
  EXPECT_TRUE(masks.count(topo.full_mask()));
  EXPECT_TRUE(masks.count(0b00001111u));  // bisection half
  EXPECT_TRUE(masks.count(0b00000011u));  // quarter
}

TEST(Candidates, HierarchicalBandwidthLevels) {
  // 0-1 at 8, 2-3 at 8, bridge 1-2 at 2: levels produce {0,1},{2,3} and
  // the whole chain.
  Topology topo("chain");
  for (int i = 0; i < 4; ++i) {
    topo.add_accelerator("a" + std::to_string(i), gibibytes(1.0), gbps(2.0));
  }
  topo.connect(0, 1, gbps(8.0));
  topo.connect(2, 3, gbps(8.0));
  topo.connect(1, 2, gbps(2.0));

  std::set<AccMask> masks;
  for (const AccSetCandidate& c : accset_candidates(topo)) masks.insert(c.mask);
  EXPECT_TRUE(masks.count(0b1111u));
  EXPECT_TRUE(masks.count(0b0011u));
  EXPECT_TRUE(masks.count(0b1100u));
}

TEST(Candidates, RingBisectionsStayConnected) {
  const Topology topo = ring(8, gbps(8.0), gbps(2.0));
  for (const AccSetCandidate& c : accset_candidates(topo)) {
    EXPECT_TRUE(topo.connected(c.mask)) << mask_to_string(c.mask);
  }
}

TEST(DecodePartition, HighestPriorityDisjointCover) {
  const Topology topo = f1_16xlarge();
  const std::vector<AccSetCandidate> candidates = accset_candidates(topo);

  // Push both 4-groups to the top.
  std::vector<double> priorities(candidates.size(), 0.1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].mask == 0b00001111u || candidates[i].mask == 0b11110000u) {
      priorities[i] = 1.0;
    }
  }
  const std::vector<std::size_t> partition =
      decode_partition(topo, candidates, priorities);
  ASSERT_EQ(partition.size(), 2u);
  EXPECT_EQ(candidates[partition[0]].mask, 0b00001111u);
  EXPECT_EQ(candidates[partition[1]].mask, 0b11110000u);
}

TEST(DecodePartition, AlwaysTilesExactly) {
  const Topology topo = f1_16xlarge();
  const std::vector<AccSetCandidate> candidates = accset_candidates(topo);
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> priorities;
    priorities.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      priorities.push_back(rng.uniform());
    }
    AccMask covered = 0;
    AccMask last_lowest = 0;
    for (const std::size_t index :
         decode_partition(topo, candidates, priorities)) {
      const AccMask mask = candidates[index].mask;
      EXPECT_EQ(covered & mask, 0u);  // disjoint
      covered |= mask;
      // Presented by lowest member id.
      EXPECT_GT(mask & ~(mask - 1), last_lowest);
      last_lowest = mask & ~(mask - 1);
    }
    EXPECT_EQ(covered, topo.full_mask());
  }
}

TEST(DecodePartition, RejectsArityMismatch) {
  const Topology topo = f1_16xlarge();
  const std::vector<AccSetCandidate> candidates = accset_candidates(topo);
  EXPECT_THROW((void)decode_partition(topo, candidates, std::vector{1.0}),
               InvalidArgument);
}

}  // namespace
}  // namespace mars::topology
