// Golden rows for plan::GaEngine: every observable of a small fixed-seed
// search, pinned per (problem, config variant) so any change to the GA's
// search path that is meant to be behaviour-preserving can be checked
// against them. A row pins the evaluation and iteration counts, the stop
// reason, the second-level memo counters (and a hash over every
// `search.space.*` counter), the budget poll count, the number of progress
// callbacks, a hash of the decoded mapping's describe() text and the
// analytic makespan. Every row must match at threads = 1 and threads = 3.
//
// Tolerance: the makespan is compared at 1e-9 relative (as in
// tests/core/test_golden_makespans.cpp); everything else exactly.
// Regenerate with:
//   MARS_REGEN_GOLDENS=1 ./mars_test_plan --gtest_filter='*GaEngineGolden*'
// and paste the printed rows over kGoldens.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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
  std::uint64_t space_counters;  // hash over every search.space.* counter
  long long polls;               // plan.budget.polls
  int progress_calls;
  std::uint64_t mapping;  // hash of core::describe(mapping)
  double makespan;        // analytic, seconds
};

// Generated via MARS_REGEN_GOLDENS — see the header comment.
constexpr Golden kGoldens[] = {
    {"alexnet", "tiny", 26, 4, "completed", 28, 56, 0x9f2c0b784a6b95b0ull,
     0, 0, 0x4f471f235ff9eac7ull, 0.0047872797499999998},
    {"alexnet", "flat", 38, 5, "completed", 0, 0, 0xcbf29ce484222325ull,
     0, 0, 0x8b0ee044afa643c7ull, 0.0070800331562499994},
    {"alexnet", "no-profiled-init", 38, 5, "completed", 44, 66, 0x98ddb9847791b477ull,
     0, 0, 0x9818f41cd7047d76ull, 0.0046076157499999994},
    {"alexnet", "no-refine", 26, 4, "completed", 28, 56, 0x9f2c0b784a6b95b0ull,
     0, 0, 0x4f471f235ff9eac7ull, 0.0047873917499999998},
    {"alexnet", "no-ss", 26, 4, "completed", 28, 56, 0x9f2c0b784a6b95b0ull,
     0, 0, 0x4f471f235ff9eac7ull, 0.0047872797499999998},
    {"alexnet", "no-heuristics", 38, 5, "completed", 140, 66, 0x3b555f99555d3c46ull,
     0, 0, 0xbde9588e6f3c24ebull, 0.0095413506250000002},
    {"alexnet", "eval-budget-30", 26, 4, "completed", 28, 56, 0x9f2c0b784a6b95b0ull,
     5, 0, 0x4f471f235ff9eac7ull, 0.0047872797499999998},
    {"alexnet", "progress", 26, 4, "completed", 28, 56, 0x9f2c0b784a6b95b0ull,
     5, 4, 0x4f471f235ff9eac7ull, 0.0047872797499999998},
    {"resnet34", "tiny", 38, 5, "completed", 37, 78, 0x58cd646264c4b5d4ull,
     0, 0, 0x49f367318fe91759ull, 0.01345665175},
    {"resnet34", "flat", 38, 5, "completed", 0, 0, 0xcbf29ce484222325ull,
     0, 0, 0xccca346db5d563ecull, 0.043473146499999997},
    {"resnet34", "no-profiled-init", 26, 4, "completed", 17, 77, 0x72d615079087c51dull,
     0, 0, 0xe102d18d63c52c1dull, 0.013462995750000002},
    {"resnet34", "no-refine", 38, 5, "completed", 37, 78, 0x58cd646264c4b5d4ull,
     0, 0, 0x49f367318fe91759ull, 0.013462995749999998},
    {"resnet34", "no-ss", 38, 5, "completed", 37, 78, 0x58cd646264c4b5d4ull,
     0, 0, 0x49f367318fe91759ull, 0.01345665175},
    {"resnet34", "no-heuristics", 38, 5, "completed", 88, 160, 0x4c026c3a20466c54ull,
     0, 0, 0x952268db784bb70dull, 0.034820386625000005},
    {"resnet34", "eval-budget-30", 32, 5, "evaluation-budget", 29, 74, 0x91eeed4d883c2551ull,
     6, 0, 0x49f367318fe91759ull, 0.013462995749999998},
    {"resnet34", "progress", 38, 5, "completed", 37, 78, 0x58cd646264c4b5d4ull,
     6, 6, 0x49f367318fe91759ull, 0.01345665175},
    {"casia_surf", "tiny", 26, 4, "completed", 13, 84, 0x5e04fb8283912eefull,
     0, 0, 0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "flat", 38, 5, "completed", 0, 0, 0xcbf29ce484222325ull,
     0, 0, 0xe2d4a024916516bbull, 0.049751588062499998},
    {"casia_surf", "no-profiled-init", 32, 5, "completed", 21, 67, 0x6d0c94aa45cf4609ull,
     0, 0, 0xe5584c11bd1f84c6ull, 0.020683376312500005},
    {"casia_surf", "no-refine", 26, 4, "completed", 13, 84, 0x5e04fb8283912eefull,
     0, 0, 0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "no-ss", 26, 4, "completed", 13, 84, 0x5e04fb8283912eefull,
     0, 0, 0x16602a961ed6ee26ull, 0.016710492625000004},
    {"casia_surf", "no-heuristics", 38, 5, "completed", 137, 158, 0x10814a958d06ab48ull,
     0, 0, 0x677b8ac352532de7ull, 0.045479192124999998},
    {"casia_surf", "eval-budget-30", 26, 4, "completed", 13, 84, 0x5e04fb8283912eefull,
     5, 0, 0x16602a961ed6ee26ull, 0.016712420625000005},
    {"casia_surf", "progress", 26, 4, "completed", 13, 84, 0x5e04fb8283912eefull,
     5, 4, 0x16602a961ed6ee26ull, 0.016712420625000005},
};

constexpr const char* kProblems[] = {"alexnet", "resnet34", "casia_surf"};
constexpr const char* kVariants[] = {
    "tiny",          "flat",          "no-profiled-init",
    "no-refine",     "no-ss",         "no-heuristics",
    "eval-budget-30", "progress",
};

core::MarsConfig tiny_config() {
  core::MarsConfig config;
  config.seed = 5;
  config.first_ga.population = 8;
  config.first_ga.generations = 5;
  config.first_ga.stall_generations = 3;
  config.second.ga.population = 4;
  config.second.ga.generations = 2;
  return config;
}

struct Variant {
  core::MarsConfig config = tiny_config();
  Budget budget;
  bool progress = false;
};

Variant variant(const std::string& name) {
  Variant v;
  if (name == "flat") v.config.two_level = false;
  if (name == "no-profiled-init") v.config.profiled_init = false;
  if (name == "no-refine") v.config.refine_winner = false;
  if (name == "no-ss") v.config.second.enable_ss = false;
  if (name == "no-heuristics") {
    v.config.heuristic_candidates = false;
    v.config.seed_baseline = false;
  }
  if (name == "eval-budget-30") v.budget = Budget::evaluations(30);
  if (name == "progress") v.progress = true;
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
  std::uint64_t space_counters = 0;
  long long polls = 0;
  int progress_calls = 0;
  std::uint64_t mapping = 0;
  double makespan = 0.0;
};

Observed observe(const std::string& problem, const std::string& name,
                 int threads) {
  const System system = system_for(problem);
  const Planner planner = Planner::for_model(problem, system.topo,
                                             system.designs, system.adaptive);
  Variant v = variant(name);
  v.config.threads = threads;

  Observed observed;
  ProgressFn progress;
  if (v.progress) {
    progress = [&observed](const Progress&) { ++observed.progress_calls; };
  }
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_metrics(&registry);
  const PlanResult result =
      planner.plan(GaEngine(v.config), v.budget, progress);
  obs::install_metrics(previous);

  observed.evaluations = result.provenance.evaluations;
  observed.iterations = result.provenance.iterations;
  observed.stopped = to_string(result.provenance.stopped);
  observed.memo_hits = registry.counter_value("search.space.memo.hits");
  observed.memo_misses = registry.counter_value("search.space.memo.misses");
  std::uint64_t hash = util::kFnvOffset;
  for (const auto& [counter, value] : registry.counter_values()) {
    if (counter.rfind("search.space.", 0) != 0) continue;
    hash = util::fnv1a(counter + '=' + std::to_string(value) + ';', hash);
  }
  observed.space_counters = hash;
  observed.polls = registry.counter_value("plan.budget.polls");
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

TEST(GaEngineGoldenTest, EveryVariantMatchesPinnedRows) {
  if (std::getenv("MARS_REGEN_GOLDENS") != nullptr) {
    for (const char* problem : kProblems) {
      for (const char* name : kVariants) {
        const Observed o = observe(problem, name, 1);
        std::printf(
            "    {\"%s\", \"%s\", %lld, %d, \"%s\", %lld, %lld, "
            "0x%016llxull,\n     %lld, %d, 0x%016llxull, %.17g},\n",
            problem, name, o.evaluations, o.iterations, o.stopped.c_str(),
            o.memo_hits, o.memo_misses,
            static_cast<unsigned long long>(o.space_counters), o.polls,
            o.progress_calls, static_cast<unsigned long long>(o.mapping),
            o.makespan);
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
      EXPECT_EQ(o.space_counters, golden.space_counters);
      EXPECT_EQ(o.polls, golden.polls);
      EXPECT_EQ(o.progress_calls, golden.progress_calls);
      EXPECT_EQ(o.mapping, golden.mapping);
      EXPECT_LT(relative_gap(o.makespan, golden.makespan), 1e-9)
          << "got " << std::scientific << o.makespan << " want "
          << golden.makespan;
    }
  }
}

}  // namespace
}  // namespace mars::plan
