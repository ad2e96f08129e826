// Extension experiment P2: scalability — the paper motivates MARS with
// "high scalability" of multi-accelerator systems. Sweeps the system size
// (groups x per-group) and reports MARS latency, parallel efficiency
// against the 1-accelerator run, and search cost.
#include <chrono>

#include "bench_common.h"

namespace mars::bench {
namespace {

void run(const Options& options) {
  std::cout << "=== P2 (extension): scaling resnet34 across system sizes ===\n";

  // Single-accelerator reference (best single design, no communication).
  const accel::DesignRegistry designs = accel::table2_designs();
  const topology::Topology f1 = topology::f1_16xlarge();
  const plan::Planner reference =
      plan::Planner::for_model("resnet34", f1, designs);
  const accel::ProfileMatrix& profile = reference.profile();
  double best_single_cycles = profile.total_cycles(0);
  for (accel::DesignId d = 1; d < designs.size(); ++d) {
    best_single_cycles = std::min(best_single_cycles, profile.total_cycles(d));
  }
  const Seconds single =
      designs.design(0).frequency().time_for(best_single_cycles);
  std::cout << "1 accelerator (best single design, compute only): "
            << format_double(single.millis(), 2) << " ms\n";

  struct Shape {
    int groups;
    int per_group;
  };
  Table table({"System", "Accs", "MARS /ms", "Speedup", "Efficiency",
               "Sets used", "Search /s"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const Shape shape : {Shape{1, 2}, Shape{1, 4}, Shape{2, 2}, Shape{2, 4},
                            Shape{2, 8}, Shape{4, 4}}) {
    const topology::Topology topo = topology::grouped(
        shape.groups, shape.per_group, gbps(8.0), gbps(2.0));
    const plan::Planner planner =
        plan::Planner::for_model("resnet34", topo, designs);
    const auto t0 = std::chrono::steady_clock::now();
    const plan::PlanResult result =
        planner.plan(plan::GaEngine(mars_config(options)));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const int accs = shape.groups * shape.per_group;
    const double speedup = single / result.summary.simulated;
    const std::string label =
        std::to_string(shape.groups) + "x" + std::to_string(shape.per_group);
    table.add_row({label, std::to_string(accs),
                   format_double(result.summary.simulated.millis(), 2),
                   format_double(speedup, 2) + "x",
                   format_double(100.0 * speedup / accs, 0) + "%",
                   std::to_string(result.mapping.sets.size()),
                   format_double(elapsed, 1)});
    csv_rows.push_back({label, std::to_string(accs),
                        format_double(result.summary.simulated.millis(), 3),
                        format_double(speedup, 3)});
  }
  std::cout << table
            << "(efficiency falls as communication and shard fragmentation "
               "grow — the design space MARS navigates)\n";
  maybe_write_csv(options, {"system", "accs", "mars_ms", "speedup"}, csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
