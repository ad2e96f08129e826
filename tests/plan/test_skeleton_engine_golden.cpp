// Golden rows for plan::AnnealingEngine and plan::RandomEngine: the
// observables of a small fixed-seed search, pinned per (problem, engine
// variant) so a change to how these engines price their genomes that is
// meant to be behaviour-preserving can be checked against them. A row pins
// the evaluation and iteration counts, the stop reason, the second-level
// memo hit/miss counters, a hash of the decoded mapping's describe() text
// and the analytic makespan. Every row must match at threads = 1 and
// threads = 3.
//
// Tolerance: the makespan is compared at 1e-9 relative (as in
// tests/plan/test_ga_engine_golden.cpp); everything else exactly.
// Regenerate with:
//   MARS_REGEN_GOLDENS=1 ./mars_test_plan --gtest_filter='*SkeletonEngineGolden*'
// and paste the printed rows over kGoldens.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "mars/accel/registry.h"
#include "mars/core/mapping.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"
#include "mars/util/hash.h"

namespace mars::plan {
namespace {

struct Golden {
  const char* problem;
  const char* variant;
  long long evaluations;
  int iterations;
  const char* stopped;
  long long memo_hits;
  long long memo_misses;
  std::uint64_t mapping;  // hash of core::describe(mapping)
  double makespan;        // analytic, seconds
};

// Generated via MARS_REGEN_GOLDENS — see the header comment.
constexpr Golden kGoldens[] = {
    {"alexnet", "anneal", 161, 40, "completed", 318, 6,
     0x235f1c84305871b4ull, 0.0042380957499999995},
    {"alexnet", "anneal-no-seedbase", 164, 40, "completed", 790, 46,
     0x90dce86821a528c4ull, 0.0082064126249999994},
    {"alexnet", "anneal-wide-moves", 161, 40, "completed", 213, 156,
     0x46c4a050681e0db8ull, 0.0040794477499999995},
    {"alexnet", "anneal-budget", 70, 18, "evaluation-budget", 138, 4,
     0x4f471f235ff9eac7ull, 0.0047873917499999998},
    {"alexnet", "random", 90, 90, "completed", 269, 196,
     0x4f471f235ff9eac7ull, 0.0047860713749999992},
    {"alexnet", "random-no-seedbase", 90, 90, "completed", 278, 194,
     0xe9f603b9ae8ccbecull, 0.0069112959999999999},
    {"alexnet", "random-budget", 50, 50, "evaluation-budget", 119, 144,
     0x4f471f235ff9eac7ull, 0.0047873917499999998},
    {"resnet34", "anneal", 161, 40, "completed", 302, 22,
     0xed1355938500d9f2ull, 0.013462995749999998},
    {"resnet34", "anneal-no-seedbase", 164, 40, "completed", 799, 133,
     0xf7158e017d0ac236ull, 0.026180162625},
    {"resnet34", "anneal-wide-moves", 161, 40, "completed", 164, 204,
     0x22579284a91b5c04ull, 0.011831979749999997},
    {"resnet34", "anneal-budget", 70, 18, "evaluation-budget", 128, 14,
     0x16165a5e08105450ull, 0.01346299575},
    {"resnet34", "random", 90, 90, "completed", 91, 437,
     0xe102d18d63c52c1dull, 0.013462995750000002},
    {"resnet34", "random-no-seedbase", 90, 90, "completed", 96, 440,
     0xf910013096584f1cull, 0.024607872749999999},
    {"resnet34", "random-budget", 50, 50, "evaluation-budget", 34, 268,
     0xe102d18d63c52c1dull, 0.013462995750000002},
    {"casia_surf", "anneal", 161, 40, "completed", 318, 6,
     0x4e391258c01fe7c9ull, 0.026492016312500005},
    {"casia_surf", "anneal-no-seedbase", 164, 40, "completed", 594, 69,
     0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "anneal-wide-moves", 161, 40, "completed", 155, 164,
     0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "anneal-budget", 70, 18, "evaluation-budget", 138, 4,
     0x47bc2b096020e8daull, 0.026546684312500006},
    {"casia_surf", "random", 90, 90, "completed", 120, 362,
     0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "random-no-seedbase", 90, 90, "completed", 121, 360,
     0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "random-budget", 50, 50, "evaluation-budget", 42, 217,
     0x16602a961ed6ee26ull, 0.016712420625000005},
};

constexpr const char* kProblems[] = {"alexnet", "resnet34", "casia_surf"};
constexpr const char* kVariants[] = {
    "anneal",        "anneal-no-seedbase", "anneal-wide-moves",
    "anneal-budget", "random",             "random-no-seedbase",
    "random-budget",
};

core::SecondLevelConfig tiny_second() {
  core::SecondLevelConfig second;
  second.ga.population = 4;
  second.ga.generations = 2;
  return second;
}

struct Variant {
  std::unique_ptr<SearchEngine> engine;
  Budget budget;
};

Variant variant(const std::string& name, int threads) {
  Variant v;
  if (name.rfind("anneal", 0) == 0) {
    AnnealConfig config;
    config.second = tiny_second();
    config.seed = 9;
    config.iterations = 40;
    config.chains = 4;
    config.threads = threads;
    if (name == "anneal-no-seedbase") config.seed_baseline = false;
    // Enough edits per proposal to touch over a quarter of the genome.
    if (name == "anneal-wide-moves") config.moves_per_step = 40;
    if (name == "anneal-budget") v.budget = Budget::evaluations(70);
    v.engine = std::make_unique<AnnealingEngine>(config);
  } else {
    RandomConfig config;
    config.second = tiny_second();
    config.seed = 9;
    config.samples = 90;
    config.threads = threads;
    if (name == "random-no-seedbase") config.seed_baseline = false;
    if (name == "random-budget") v.budget = Budget::evaluations(50);
    v.engine = std::make_unique<RandomEngine>(config);
  }
  return v;
}

struct System {
  topology::Topology topo;
  accel::DesignRegistry designs;
  bool adaptive;
};

/// casia_surf runs on the fixed-design H2H cloud; the CNNs on F1.
System system_for(const std::string& problem) {
  if (problem == "casia_surf") {
    return {topology::h2h_cloud(8, gbps(4.0), 4), accel::h2h_designs(), false};
  }
  return {topology::f1_16xlarge(), accel::table2_designs(), true};
}

struct Observed {
  long long evaluations = 0;
  int iterations = 0;
  std::string stopped;
  long long memo_hits = 0;
  long long memo_misses = 0;
  std::uint64_t mapping = 0;
  double makespan = 0.0;
};

Observed observe(const std::string& problem, const std::string& name,
                 int threads) {
  const System system = system_for(problem);
  const Planner planner = Planner::for_model(problem, system.topo,
                                             system.designs, system.adaptive);
  const Variant v = variant(name, threads);

  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_metrics(&registry);
  const PlanResult result = planner.plan(*v.engine, v.budget);
  obs::install_metrics(previous);

  Observed observed;
  observed.evaluations = result.provenance.evaluations;
  observed.iterations = result.provenance.iterations;
  observed.stopped = to_string(result.provenance.stopped);
  observed.memo_hits = registry.counter_value("search.space.memo.hits");
  observed.memo_misses = registry.counter_value("search.space.memo.misses");
  observed.mapping = util::fnv1a(
      core::describe(result.mapping, planner.spine(), system.designs,
                     system.adaptive),
      util::kFnvOffset);
  observed.makespan = result.summary.analytic_makespan.count();
  return observed;
}

double relative_gap(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300});
}

TEST(SkeletonEngineGoldenTest, AnnealAndRandomMatchPinnedRows) {
  if (std::getenv("MARS_REGEN_GOLDENS") != nullptr) {
    for (const char* problem : kProblems) {
      for (const char* name : kVariants) {
        const Observed o = observe(problem, name, 1);
        std::printf(
            "    {\"%s\", \"%s\", %lld, %d, \"%s\", %lld, %lld,\n"
            "     0x%016llxull, %.17g},\n",
            problem, name, o.evaluations, o.iterations, o.stopped.c_str(),
            o.memo_hits, o.memo_misses,
            static_cast<unsigned long long>(o.mapping), o.makespan);
      }
    }
    GTEST_SKIP() << "golden regeneration run — paste the rows above";
  }

  ASSERT_EQ(std::size(kGoldens), std::size(kProblems) * std::size(kVariants));
  for (const Golden& golden : kGoldens) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(golden.problem) + " / " + golden.variant +
                   " / threads " + std::to_string(threads));
      const Observed o = observe(golden.problem, golden.variant, threads);
      EXPECT_EQ(o.evaluations, golden.evaluations);
      EXPECT_EQ(o.iterations, golden.iterations);
      EXPECT_EQ(o.stopped, golden.stopped);
      EXPECT_EQ(o.memo_hits, golden.memo_hits);
      EXPECT_EQ(o.memo_misses, golden.memo_misses);
      EXPECT_EQ(o.mapping, golden.mapping);
      EXPECT_LT(relative_gap(o.makespan, golden.makespan), 1e-9)
          << "got " << std::scientific << o.makespan << " want "
          << golden.makespan;
    }
  }
}

}  // namespace
}  // namespace mars::plan
