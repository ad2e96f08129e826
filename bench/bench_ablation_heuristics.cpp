// Ablation A3 — the Section V heuristics: profiled design-gene
// initialisation, baseline seeding, and the edge-removal AccSet candidate
// family. Each is switched off individually; the table reports both final
// quality and the generation at which the search reached within 5% of its
// final value (search efficiency).
#include "bench_common.h"

namespace mars::bench {
namespace {

int generations_to_95_percent(const std::vector<double>& history) {
  if (history.empty()) return 0;
  const double target = history.back() * 1.05;
  for (std::size_t g = 0; g < history.size(); ++g) {
    if (history[g] <= target) return static_cast<int>(g);
  }
  return static_cast<int>(history.size()) - 1;
}

void run(const Options& options) {
  std::cout << "=== Ablation A3: search heuristics (vgg16 on F1) ===\n";
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model("vgg16", topo, designs);

  struct Variant {
    const char* label;
    bool profiled_init;
    bool seed_baseline;
    bool heuristic_candidates;
  };
  const Variant variants[] = {
      {"full heuristics", true, true, true},
      {"no profiled init", false, true, true},
      {"no baseline seed", true, false, true},
      {"no init at all", false, false, true},
      {"trivial candidates", true, true, false},
  };

  Table table({"Variant", "Latency /ms", "Gens to 95%", "Evaluations"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const Variant& v : variants) {
    // Deliberately tight budget: the heuristics' value is reaching a good
    // mapping EARLY; with a lavish budget every variant converges.
    core::MarsConfig config = mars_config(options);
    config.first_ga.population = options.quick ? 8 : 12;
    config.first_ga.generations = options.quick ? 6 : 12;
    config.first_ga.stall_generations = 0;  // comparable curves
    config.profiled_init = v.profiled_init;
    config.seed_baseline = v.seed_baseline;
    config.heuristic_candidates = v.heuristic_candidates;
    const plan::PlanResult result = planner.plan(plan::GaEngine(config));
    const int generations = generations_to_95_percent(result.history);
    table.add_row({v.label,
                   format_double(result.summary.simulated.millis(), 3),
                   std::to_string(generations),
                   std::to_string(result.provenance.evaluations)});
    csv_rows.push_back({v.label,
                        format_double(result.summary.simulated.millis(), 4),
                        std::to_string(generations)});
  }
  std::cout << table
            << "(the heuristics buy faster convergence and/or better final "
               "mappings; 'trivial candidates' removes the edge-removal "
               "family so only whole-system/singleton sets exist)\n";
  maybe_write_csv(options, {"variant", "latency_ms", "gens_to_95"}, csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
