// Micro-benchmarks (google-benchmark): the per-call costs that set the
// search throughput — analytical design models, shard-plan construction,
// the layer cost function, greedy second-level selection, skeleton
// fitness (the first-level oracle every plan engine calls), batch genome
// pricing, the event-driven executor, and a serving replay through the
// same event engine.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <vector>

#include "mars/accel/registry.h"
#include "mars/core/evaluator.h"
#include "mars/core/second_level.h"
#include "mars/core/skeleton_space.h"
#include "mars/ga/operators.h"
#include "mars/graph/models/models.h"
#include "mars/parallel/sharding.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/workload.h"
#include "mars/topology/presets.h"
#include "mars/util/worker_pool.h"

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
  // pays for a revisited skeleton, priced as a one-skeleton batch.
  core::SkeletonSpace space(fx.problem, {});
  util::WorkerPool caller(1);
  const std::vector<core::Skeleton> skeleton{space.baseline()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.fitness_batch(skeleton, caller));
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

/// A serve-overload-shaped fleet: facebagnet and resnet50 planned with a
/// quick GA on f1.16xlarge, and the first 100 arrivals of a 200 rps
/// Poisson stream, about 1.7x the fleet's capacity.
struct ServeFixture {
  topology::Topology topo = topology::f1_16xlarge();
  accel::DesignRegistry designs = accel::table2_designs();
  std::vector<std::unique_ptr<serve::ModelService>> services;
  std::vector<serve::Request> arrivals;

  ServeFixture() {
    core::MarsConfig config;
    config.first_ga.population = 12;
    config.first_ga.generations = 8;
    config.second.ga.population = 8;
    config.second.ga.generations = 6;
    services = serve::plan_services({"facebagnet", "resnet50"}, topo, designs,
                                    /*adaptive=*/true, plan::GaEngine(config));
    arrivals = serve::poisson_arrivals({1.0, 1.0}, 200.0, Seconds(2.0), 1);
    arrivals.resize(100);
  }
};

void BM_ServeReplay(benchmark::State& state) {
  // The online scheduler replays the stream on the event engine while a
  // backlog builds. Items are executed tasks, so items/s is the engine's
  // per-task rate under contention.
  static const ServeFixture fx;
  std::vector<const serve::ModelService*> refs;
  for (const auto& service : fx.services) refs.push_back(service.get());
  const serve::OnlineScheduler scheduler(fx.topo, refs);
  long long tasks = 0;
  for (auto _ : state) {
    const serve::ServeResult result = scheduler.run(fx.arrivals);
    tasks += result.tasks_executed;
    benchmark::DoNotOptimize(result.horizon);
  }
  state.SetItemsProcessed(tasks);
}
BENCHMARK(BM_ServeReplay);

void BM_SpineExtraction(benchmark::State& state) {
  const graph::Graph model = graph::models::resnet101();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ConvSpine::extract(model));
  }
}
BENCHMARK(BM_SpineExtraction);

void BM_GenomeBatchFitness(benchmark::State& state) {
  // The GA's inner loop in steady state: a chain of 64 cohorts of 8
  // genomes, each cohort the previous one under the GA's default gaussian
  // mutation, priced through SkeletonSpace::fitness_batch on warm caches.
  const auto& fx = fixture();
  core::SkeletonSpace space(fx.problem, {});
  const ga::GaConfig ga;
  Rng rng(2023);
  std::vector<std::vector<ga::Genome>> cohorts(64);
  for (int i = 0; i < 8; ++i) {
    cohorts[0].push_back(
        ga::random_genome(space.codec().genome_size(), 0.0, 1.0, rng));
  }
  for (std::size_t c = 1; c < cohorts.size(); ++c) {
    cohorts[c] = cohorts[c - 1];
    for (ga::Genome& genome : cohorts[c]) {
      ga::gaussian_mutate(genome, ga.mutation_rate, ga.mutation_sigma,
                          ga.gene_lo, ga.gene_hi, rng);
    }
  }
  util::WorkerPool caller(1);
  for (const auto& cohort : cohorts) {  // warm the second-level memo
    benchmark::DoNotOptimize(space.fitness_batch(cohort, caller));
  }
  long evals = 0;
  for (auto _ : state) {
    for (const auto& cohort : cohorts) {
      benchmark::DoNotOptimize(space.fitness_batch(cohort, caller));
      evals += static_cast<long>(cohort.size());
    }
  }
  state.SetItemsProcessed(evals);
}
BENCHMARK(BM_GenomeBatchFitness);

}  // namespace

BENCHMARK_MAIN();
