// Micro-benchmarks (google-benchmark): the per-call costs that set the
// search throughput — analytical design models, shard-plan construction,
// the layer cost function, greedy second-level selection, skeleton
// fitness (the first-level oracle every plan engine calls), the
// full-vs-incremental mutation pricing paths, and the event-driven
// executor.
//
// `bench_micro --smoke` skips google-benchmark and runs the CI gate
// instead: a quick differential check (incremental pricing must be
// bit-identical to the full path) followed by a full-vs-incremental
// throughput comparison against the checked-in floors in
// bench/micro_floor.txt. Exits non-zero when a floor regresses by more
// than 20%.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "mars/accel/registry.h"
#include "mars/core/evaluator.h"
#include "mars/core/second_level.h"
#include "mars/core/skeleton_space.h"
#include "mars/graph/models/models.h"
#include "mars/obs/metrics.h"
#include "mars/parallel/sharding.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"
#include "mars/util/strings.h"
#include "mars/util/worker_pool.h"
#include "support/mutation_stream.h"

namespace {

using namespace mars;  // NOLINT: bench-local convenience

struct Fixture {
  topology::Topology topo = topology::f1_16xlarge();
  accel::DesignRegistry designs = accel::table2_designs();
  // The Planner owns the graph -> spine -> Problem chain.
  plan::Planner planner{graph::models::vgg16(), topo, designs,
                        /*adaptive=*/true};
  const graph::ConvSpine& spine = planner.spine();
  const core::Problem& problem = planner.problem();
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_DesignCycleModel(benchmark::State& state) {
  const auto& fx = fixture();
  const accel::AcceleratorDesign& design =
      fx.designs.design(static_cast<int>(state.range(0)));
  const graph::ConvShape shape{256, 256, 28, 28, 3, 3, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        design.conv_cycles(shape, graph::DataType::kFix16).total());
  }
}
BENCHMARK(BM_DesignCycleModel)->Arg(0)->Arg(1)->Arg(2);

void BM_EnumerateStrategies(benchmark::State& state) {
  const graph::ConvShape shape{256, 256, 28, 28, 3, 3, 1, 1};
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel::enumerate_strategies(shape, p, 3));
  }
}
BENCHMARK(BM_EnumerateStrategies)->Arg(2)->Arg(4)->Arg(8);

void BM_MakePlan(benchmark::State& state) {
  const graph::ConvShape shape{256, 256, 28, 28, 3, 3, 1, 1};
  const parallel::Strategy strategy({{parallel::Dim::kH, 2}, {parallel::Dim::kW, 2}},
                                    parallel::Dim::kCout);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::make_plan(shape, graph::DataType::kFix16, strategy, 4));
  }
}
BENCHMARK(BM_MakePlan);

void BM_LayerCost(benchmark::State& state) {
  const auto& fx = fixture();
  const core::AnalyticalCostModel model(fx.problem);
  core::LayerAssignment set;
  set.accs = 0b1111;
  set.design = 0;
  set.begin = 0;
  set.end = fx.spine.size();
  const parallel::Strategy strategy({{parallel::Dim::kCout, 4}}, std::nullopt);
  const Bandwidth internal_bw = model.internal_bandwidth(set);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.layer_cost(set, 5, strategy, std::nullopt, internal_bw));
  }
}
BENCHMARK(BM_LayerCost);

void BM_GreedySecondLevel(benchmark::State& state) {
  const auto& fx = fixture();
  const core::SecondLevelSearch search(fx.problem, core::SecondLevelConfig{});
  core::LayerAssignment skeleton;
  skeleton.accs = 0b1111;
  skeleton.design = 0;
  skeleton.begin = 0;
  skeleton.end = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.greedy(skeleton));
  }
}
BENCHMARK(BM_GreedySecondLevel)->Arg(4)->Arg(8)->Arg(16);

void BM_SkeletonFitness(benchmark::State& state) {
  const auto& fx = fixture();
  // Steady-state cost: after the first (miss) call this measures the
  // memoised path plus the DAG aggregation — what the inner GA/SA loop
  // pays for a revisited skeleton.
  core::SkeletonSpace space(fx.problem, {});
  const core::Skeleton skeleton = space.baseline();
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.fitness(skeleton));
  }
}
BENCHMARK(BM_SkeletonFitness);

void BM_EventSimVgg(benchmark::State& state) {
  const auto& fx = fixture();
  const core::SecondLevelSearch search(fx.problem, core::SecondLevelConfig{});
  core::LayerAssignment set;
  set.accs = 0b1111;
  set.design = 0;
  set.begin = 0;
  set.end = fx.spine.size();
  set.strategies = search.greedy(set).strategies;
  core::Mapping mapping;
  mapping.sets = {set};
  const core::MappingEvaluator evaluator(fx.problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.simulate(mapping).result.makespan);
  }
}
BENCHMARK(BM_EventSimVgg);

void BM_SpineExtraction(benchmark::State& state) {
  const graph::Graph model = graph::models::resnet101();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ConvSpine::extract(model));
  }
}
BENCHMARK(BM_SpineExtraction);

// ------------------------------------------------------------------------
// Full vs incremental mutation pricing (the GA/anneal inner loop).
//
// A stream is a chain of engine-shaped cohorts (see
// tests/support/mutation_stream.h); both paths price the identical
// children in steady state (warm caches), so evals/sec is the number the
// search engines actually see. The delta path's win scales with move
// locality: anneal edits 1-3 genes, GA mutation ~10, crossover ~half the
// genome (where fitness_delta_batch intentionally bails to the full
// subpath).

constexpr testing::MoveShape kShapes[] = {
    testing::MoveShape::kAnneal,
    testing::MoveShape::kGaMutate,
    testing::MoveShape::kGaCross,
};
constexpr const char* kShapeNames[] = {"anneal-move", "ga-mutate", "ga-cross"};

std::vector<testing::MutationCohort> make_stream(core::SkeletonSpace& space,
                                                 testing::MoveShape shape,
                                                 int num_cohorts,
                                                 std::size_t cohort_size,
                                                 unsigned seed) {
  Rng rng(seed);
  std::vector<ga::Genome> cur = testing::random_parents(space, cohort_size, rng);
  (void)space.fitness_batch(cur, nullptr);
  std::vector<testing::MutationCohort> cohorts;
  cohorts.reserve(static_cast<std::size_t>(num_cohorts));
  for (int i = 0; i < num_cohorts; ++i) {
    cohorts.push_back(testing::breed_cohort(cur, shape, cohort_size, rng));
    cur = cohorts.back().children;
  }
  return cohorts;
}

void BM_MutationEvalFull(benchmark::State& state) {
  const auto& fx = fixture();
  core::SkeletonSpace space(fx.problem, {});
  const auto shape = kShapes[state.range(0)];
  const auto cohorts = make_stream(space, shape, 64, 8, 2023);
  for (const auto& c : cohorts) {  // warm the second-level cache
    benchmark::DoNotOptimize(space.fitness_batch(c.children, nullptr));
  }
  long evals = 0;
  for (auto _ : state) {
    for (const auto& c : cohorts) {
      benchmark::DoNotOptimize(space.fitness_batch(c.children, nullptr));
      evals += static_cast<long>(c.children.size());
    }
  }
  state.SetItemsProcessed(evals);
  state.SetLabel(kShapeNames[state.range(0)]);
}
BENCHMARK(BM_MutationEvalFull)->DenseRange(0, 2);

void BM_MutationEvalIncremental(benchmark::State& state) {
  const auto& fx = fixture();
  core::SkeletonSpace space(fx.problem, {});
  const auto shape = kShapes[state.range(0)];
  const auto cohorts = make_stream(space, shape, 64, 8, 2023);
  for (const auto& c : cohorts) {  // warm caches and genome records
    benchmark::DoNotOptimize(
        space.fitness_delta_batch(c.parents, c.children, c.deltas, nullptr));
  }
  long evals = 0;
  for (auto _ : state) {
    for (const auto& c : cohorts) {
      benchmark::DoNotOptimize(
          space.fitness_delta_batch(c.parents, c.children, c.deltas, nullptr));
      evals += static_cast<long>(c.children.size());
    }
  }
  state.SetItemsProcessed(evals);
  state.SetLabel(kShapeNames[state.range(0)]);
}
BENCHMARK(BM_MutationEvalIncremental)->DenseRange(0, 2);

// --------------------------------------------------------------- smoke gate

/// Floors are speedup ratios (incremental / full evals/sec), not absolute
/// throughputs, so the gate is portable across CI machines. Keep in sync
/// with bench/micro_floor.txt (the checked-in copy wins when readable).
std::map<std::string, double> default_floors() {
  return {{"anneal-move", 2.00}, {"ga-mutate", 1.00}, {"ga-cross", 0.90}};
}

std::map<std::string, double> load_floors(const std::string& path) {
  std::map<std::string, double> floors = default_floors();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "[smoke] floor file %s not readable; using built-in floors\n",
                 path.c_str());
    return floors;
  }
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream row(line);
    std::string name;
    std::string value;
    if (!(row >> name >> value)) continue;
    if (const std::optional<double> floor = parse_double(value)) {
      floors[name] = *floor;
    } else {
      std::fprintf(stderr, "[smoke] floor file %s: bad floor '%s' for %s; "
                   "using the built-in floor\n",
                   path.c_str(), value.c_str(), name.c_str());
    }
  }
  return floors;
}

/// Bit-identity spot check: the incremental path must return the exact
/// fitness values and cache counters of the full path, serial and pooled.
bool run_differential(const core::Problem& problem) {
  for (int threads : {1, 4}) {
    util::WorkerPool pool(threads);
    util::WorkerPool* pool_ptr = threads == 1 ? nullptr : &pool;
    for (std::size_t s = 0; s < 3; ++s) {
      core::SkeletonSpace full(problem, {});
      core::SkeletonSpace inc(problem, {});
      const auto cohorts = make_stream(full, kShapes[s], 25, 8, 77 + static_cast<unsigned>(s));
      {
        Rng rng(77 + static_cast<unsigned>(s));  // replay the stream's parent draw
        (void)inc.fitness_batch(testing::random_parents(inc, 8, rng), pool_ptr);
      }
      for (const auto& c : cohorts) {
        const std::vector<double> want = full.fitness_batch(c.children, pool_ptr);
        const std::vector<double> got =
            inc.fitness_delta_batch(c.parents, c.children, c.deltas, pool_ptr);
        if (want != got || full.cache_hits() != inc.cache_hits() ||
            full.cache_misses() != inc.cache_misses()) {
          std::fprintf(stderr,
                       "[smoke] FAIL: incremental != full (%s, threads=%d)\n",
                       kShapeNames[s], threads);
          return false;
        }
      }
    }
  }
  std::printf("[smoke] differential check: incremental == full (3 shapes, threads 1 and 4)\n");
  return true;
}

int run_smoke_gate(const std::string& floor_path) {
  const auto& fx = fixture();
  if (!run_differential(fx.problem)) return 1;

  const auto floors = load_floors(floor_path);
  bool ok = true;
  for (std::size_t s = 0; s < 3; ++s) {
    core::SkeletonSpace full(fx.problem, {});
    core::SkeletonSpace inc(fx.problem, {});
    const auto cohorts = make_stream(full, kShapes[s], 80, 8, 2023);
    {
      Rng rng(2023);
      (void)inc.fitness_batch(testing::random_parents(inc, 8, rng), nullptr);
    }
    long evals = 0;
    for (const auto& c : cohorts) {
      (void)full.fitness_batch(c.children, nullptr);
      (void)inc.fitness_delta_batch(c.parents, c.children, c.deltas, nullptr);
      evals += static_cast<long>(c.children.size());
    }
    // Interleave timed passes and keep the fastest of each so a load
    // spike on a shared CI runner cannot skew the ratio one way.
    double best_full = 1e30;
    double best_inc = 1e30;
    double sink = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      for (const auto& c : cohorts) sink += full.fitness_batch(c.children, nullptr)[0];
      auto t1 = std::chrono::steady_clock::now();
      for (const auto& c : cohorts) {
        sink += inc.fitness_delta_batch(c.parents, c.children, c.deltas, nullptr)[0];
      }
      auto t2 = std::chrono::steady_clock::now();
      best_full = std::min(best_full, std::chrono::duration<double>(t1 - t0).count());
      best_inc = std::min(best_inc, std::chrono::duration<double>(t2 - t1).count());
    }
    benchmark::DoNotOptimize(sink);
    const double full_eps = static_cast<double>(evals) / best_full;
    const double inc_eps = static_cast<double>(evals) / best_inc;
    const double speedup = inc_eps / full_eps;
    const double floor = floors.count(kShapeNames[s]) != 0U
                             ? floors.at(kShapeNames[s])
                             : default_floors().at(kShapeNames[s]);
    const double gate = floor * 0.8;  // 20% regression allowance
    const bool pass = speedup >= gate;
    ok = ok && pass;
    std::printf(
        "[smoke] %-11s full %9.0f evals/s  incremental %9.0f evals/s  "
        "speedup %.2fx  (floor %.2fx, gate %.2fx) %s\n",
        kShapeNames[s], full_eps, inc_eps, speedup, floor, gate,
        pass ? "ok" : "REGRESSED");
  }
  return ok ? 0 : 1;
}

/// Smoke gate wrapped in a metrics session: every SkeletonSpace built by
/// the gate flushes its cache counters here on destruction, and the
/// snapshot documents what the gate actually measured (memo hit mix,
/// record-table churn) alongside the pass/fail line.
int run_smoke(const std::string& floor_path) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_metrics(&registry);
  const int status = run_smoke_gate(floor_path);
  obs::install_metrics(previous);
  for (const auto& [name, value] : registry.counter_values()) {
    std::printf("[smoke] metric %s=%lld\n", name.c_str(), value);
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
#ifdef MARS_BENCH_DIR
  std::string floor_path = std::string(MARS_BENCH_DIR) + "/micro_floor.txt";
#else
  std::string floor_path = "bench/micro_floor.txt";
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--floor=", 0) == 0) floor_path = std::string(arg.substr(8));
  }
  if (smoke) return run_smoke(floor_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
