// Experiment F3 — Fig. 3: the two-level genetic algorithm in action.
// Emits the first-level convergence curve (best overall latency per
// generation) and a second-level refinement curve for the winning skeleton,
// on VGG16 / F1 — the search dynamics the paper's Fig. 3 sketches.
#include "bench_common.h"

#include "mars/core/second_level.h"

namespace mars::bench {
namespace {

void run(const Options& options) {
  std::cout << "=== Fig. 3: two-level GA convergence (vgg16 on F1) ===\n";
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model("vgg16", topo, designs);

  core::MarsConfig config = mars_config(options);
  config.first_ga.stall_generations = 0;  // full curve
  const GaSearch search = ga_search(planner, config);
  const plan::PlanResult& result = search.result;

  Table first({"Generation", "Best overall latency /ms"});
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t g = 0; g < result.history.size(); ++g) {
    first.add_row(
        {std::to_string(g), format_double(result.history[g] * 1e3, 3)});
    csv_rows.push_back(
        {"first", std::to_string(g), format_double(result.history[g] * 1e3, 4)});
  }
  std::cout << "First level (" << result.provenance.evaluations
            << " evaluations, " << search.memo_misses
            << " distinct sub-problems, " << search.memo_hits
            << " cache hits):\n"
            << first;

  // Second-level curve on the winner's largest set.
  const core::LayerAssignment* largest = &result.mapping.sets.front();
  for (const core::LayerAssignment& set : result.mapping.sets) {
    if (set.num_layers() > largest->num_layers()) largest = &set;
  }
  core::LayerAssignment skeleton = *largest;
  skeleton.strategies.clear();
  core::SecondLevelSearch second(planner.problem(), config.second);
  Rng rng(options.seed + 1);
  ga::GaResult curve;
  (void)second.refine(skeleton, rng, nullptr, &curve);

  Table second_table({"Generation", "Best set latency /ms"});
  for (std::size_t g = 0; g < curve.history.size(); ++g) {
    second_table.add_row(
        {std::to_string(g), format_double(curve.history[g] * 1e3, 3)});
    csv_rows.push_back(
        {"second", std::to_string(g), format_double(curve.history[g] * 1e3, 4)});
  }
  std::cout << "\nSecond level on " << topology::mask_to_string(largest->accs)
            << " (layers " << largest->begin << ".." << largest->end - 1
            << "):\n"
            << second_table;

  std::cout << "\nFinal mapping ("
            << format_double(result.summary.simulated.millis(), 3) << " ms):\n"
            << core::describe(result.mapping, planner.spine(), designs, true);
  maybe_write_csv(options, {"level", "generation", "best_ms"}, csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
