// Golden rows for comap::CoMapEngine: every observable of a small
// fixed-seed joint search, pinned per (encoding, seed) so any change to the
// engine that is meant to be behaviour-preserving can be checked against
// them. A row pins a hash over each tenant's describe() text, each
// tenant's placement, the winner and independent rollout fitness, the
// rollout memo counters, the engine's evaluation count and each member's
// evaluation count. Every row must match at threads = 1 and threads = 3.
//
// Tolerance: fitness is compared at 1e-9 relative (as in
// tests/plan/test_ga_engine_golden.cpp); everything else exactly.
// Regenerate with:
//   MARS_REGEN_GOLDENS=1 ./mars_test_comap --gtest_filter='*CoMapGolden*'
// and paste the printed rows over kGoldens.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mars/accel/registry.h"
#include "mars/comap/engine.h"
#include "mars/core/mapping.h"
#include "mars/graph/models/models.h"
#include "mars/graph/spine.h"
#include "mars/topology/presets.h"
#include "mars/util/hash.h"

namespace mars::comap {
namespace {

constexpr std::size_t kTenants = 2;

struct Golden {
  const char* encoding;
  std::uint64_t seed;
  std::uint64_t mappings;  // hash of every tenant's core::describe(mapping)
  topology::AccMask placements[kTenants];
  double fitness;
  double independent_fitness;
  long long rollout_hits;
  long long rollout_misses;
  long long evaluations;
  long long member_evaluations[kTenants];
};

// Generated via MARS_REGEN_GOLDENS — see the header comment.
constexpr Golden kGoldens[] = {
    {"partition", 3, 0xa659db37a1a8c00cull, {0x3u, 0xcu},
     20.230737026794174, 24.174950364165902, 11, 5, 15, {20, 20}},
    {"partition", 7, 0xa659db37a1a8c00cull, {0x3u, 0xcu},
     20.230737026794174, 24.174950364165902, 12, 4, 15, {20, 20}},
    {"partition", 11, 0x06e3c9f2b3ca3f5eull, {0x3u, 0xcu},
     14.164403501555453, 24.174950364165902, 11, 5, 15, {20, 20}},
    {"interleave", 3, 0x7c44b449a157cd16ull, {0x0u, 0x0u},
     9.1243266353100232, 24.174950364165902, 5, 15, 19, {0, 0}},
    {"interleave", 7, 0x1cd45ea090f83225ull, {0x0u, 0x0u},
     24.174950364165902, 24.174950364165902, 9, 6, 15, {20, 20}},
    {"interleave", 11, 0x873684049d162ee2ull, {0x0u, 0x0u},
     17.197455227678002, 24.174950364165902, 2, 14, 15, {0, 0}},
};

constexpr const char* kEncodings[] = {"partition", "interleave"};
constexpr std::uint64_t kSeeds[] = {3, 7, 11};

/// Two tenants on the 4-accelerator fixed-design cloud, with a schedule
/// small enough to stay fast under sanitizers (the same shape as
/// test_engine.cpp's search fixture).
struct System {
  topology::Topology topo = topology::h2h_cloud(4, gbps(4.0), 4);
  accel::DesignRegistry designs = accel::h2h_designs();
  CoMapProblem problem;

  System() {
    problem.tenants = {Tenant{"alexnet", 1.0, Seconds{}},
                       Tenant{"resnet18", 1.0, Seconds{}}};
    problem.topo = &topo;
    problem.designs = &designs;
    problem.adaptive = false;
    problem.rollout.rate = 120.0;
    problem.rollout.duration = Seconds(0.3);
    problem.rollout.seed = 7;
    problem.rollout.default_slo = milliseconds(80.0);
  }
};

CoMapConfig config_for(const std::string& encoding, std::uint64_t seed,
                       int threads) {
  CoMapConfig config;
  config.encoding = parse_encoding(encoding);
  config.seed = seed;
  config.threads = threads;
  config.ga.population = 6;
  config.ga.generations = 3;
  config.ga.stall_generations = 2;
  config.inner.seed = seed;
  config.inner.first_ga.population = 8;
  config.inner.first_ga.generations = 3;
  config.inner.first_ga.stall_generations = 2;
  config.inner.second.ga.population = 6;
  config.inner.second.ga.generations = 2;
  return config;
}

struct Observed {
  std::uint64_t mappings = 0;
  topology::AccMask placements[kTenants] = {};
  double fitness = 0.0;
  double independent_fitness = 0.0;
  long long rollout_hits = 0;
  long long rollout_misses = 0;
  long long evaluations = 0;
  long long member_evaluations[kTenants] = {};
};

Observed observe(const std::string& encoding, std::uint64_t seed,
                 int threads) {
  const System system;
  const CoMapResult result =
      CoMapEngine(config_for(encoding, seed, threads)).search(system.problem);

  Observed observed;
  EXPECT_EQ(result.mappings.size(), kTenants);
  EXPECT_EQ(result.provenance.members.size(), kTenants);
  std::uint64_t hash = util::kFnvOffset;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const graph::ConvSpine spine = graph::ConvSpine::extract(
        graph::models::by_name(system.problem.tenants[t].model));
    hash = util::fnv1a(core::describe(result.mappings[t], spine,
                                      system.designs, system.problem.adaptive),
                       hash);
    observed.placements[t] = result.tenants[t].placement;
    observed.member_evaluations[t] = result.provenance.members[t].evaluations;
  }
  observed.mappings = hash;
  observed.fitness = result.score.fitness;
  observed.independent_fitness = result.independent_score.fitness;
  observed.rollout_hits = result.rollout_hits;
  observed.rollout_misses = result.rollout_misses;
  observed.evaluations = result.provenance.evaluations;
  return observed;
}

double relative_gap(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300});
}

TEST(CoMapGoldenTest, EveryEncodingAndSeedMatchesPinnedRows) {
  if (std::getenv("MARS_REGEN_GOLDENS") != nullptr) {
    for (const char* encoding : kEncodings) {
      for (const std::uint64_t seed : kSeeds) {
        const Observed o = observe(encoding, seed, 1);
        std::printf(
            "    {\"%s\", %llu, 0x%016llxull, {0x%llxu, 0x%llxu},\n"
            "     %.17g, %.17g, %lld, %lld, %lld, {%lld, %lld}},\n",
            encoding, static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(o.mappings),
            static_cast<unsigned long long>(o.placements[0]),
            static_cast<unsigned long long>(o.placements[1]), o.fitness,
            o.independent_fitness, o.rollout_hits, o.rollout_misses,
            o.evaluations, o.member_evaluations[0], o.member_evaluations[1]);
      }
    }
    GTEST_SKIP() << "golden regeneration run — paste the rows above";
  }

  ASSERT_EQ(std::size(kGoldens), std::size(kEncodings) * std::size(kSeeds));
  for (const Golden& golden : kGoldens) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(golden.encoding) + " / seed " +
                   std::to_string(golden.seed) + " / threads " +
                   std::to_string(threads));
      const Observed o = observe(golden.encoding, golden.seed, threads);
      EXPECT_EQ(o.mappings, golden.mappings);
      for (std::size_t t = 0; t < kTenants; ++t) {
        EXPECT_EQ(o.placements[t], golden.placements[t]) << "tenant " << t;
        EXPECT_EQ(o.member_evaluations[t], golden.member_evaluations[t])
            << "tenant " << t;
      }
      EXPECT_LT(relative_gap(o.fitness, golden.fitness), 1e-9)
          << "got " << std::scientific << o.fitness << " want "
          << golden.fitness;
      EXPECT_LT(relative_gap(o.independent_fitness, golden.independent_fitness),
                1e-9)
          << "got " << std::scientific << o.independent_fitness << " want "
          << golden.independent_fitness;
      EXPECT_EQ(o.rollout_hits, golden.rollout_hits);
      EXPECT_EQ(o.rollout_misses, golden.rollout_misses);
      EXPECT_EQ(o.evaluations, golden.evaluations);
    }
  }
}

}  // namespace
}  // namespace mars::comap
