// Extension experiment P1 (beyond the paper's single-inference latency
// formulation): pipelined multi-image throughput. When a mapping uses
// several accelerator sets, consecutive images overlap across sets — the
// latency-optimal mapping is not necessarily the throughput-optimal one.
// Compares the MARS (latency-optimised) mapping against hand-built 1-set
// and per-group pipelined mappings across batch sizes.
#include "bench_common.h"

#include "mars/core/second_level.h"

namespace mars::bench {
namespace {

core::Mapping balanced_two_set(const plan::Planner& planner,
                               const core::SecondLevelSearch& search) {
  // Two groups, layer split balancing profiled compute.
  const core::Skeleton skeleton =
      core::baseline_skeleton(planner.problem(), planner.profile());
  core::Mapping mapping;
  for (const core::LayerAssignment& set : skeleton.sets) {
    core::LayerAssignment full = set;
    full.strategies = search.greedy(set).strategies;
    mapping.sets.push_back(std::move(full));
  }
  return mapping;
}

void run(const Options& options) {
  std::cout << "=== P1 (extension): pipelined throughput across accelerator "
               "sets (resnet34 on F1) ===\n";
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  const plan::Planner planner =
      plan::Planner::for_model("resnet34", topo, designs);
  const core::SecondLevelSearch search(planner.problem(),
                                       core::SecondLevelConfig{});
  const core::MappingEvaluator evaluator(planner.problem());

  const core::Mapping latency_best =
      planner.plan(plan::GaEngine(mars_config(options))).mapping;
  const core::Mapping two_set = balanced_two_set(planner, search);

  Table table({"Batch", "MARS-latency mapping img/s", "Two-set pipeline img/s",
               "Two-set speedup", "Two-set pipeline overlap"});
  std::vector<std::vector<std::string>> csv_rows;
  for (int batch : {1, 2, 4, 8, 16}) {
    const auto a = evaluator.evaluate_throughput(latency_best, batch);
    const auto b = evaluator.evaluate_throughput(two_set, batch);
    table.add_row({std::to_string(batch),
                   format_double(a.images_per_second, 1),
                   format_double(b.images_per_second, 1),
                   format_double(b.images_per_second / a.images_per_second, 2) +
                       "x",
                   format_double(b.pipeline_speedup, 2) + "x"});
    csv_rows.push_back({std::to_string(batch),
                        format_double(a.images_per_second, 2),
                        format_double(b.images_per_second, 2),
                        format_double(b.pipeline_speedup, 3)});
  }
  std::cout << table
            << "(a two-set mapping loses on single-image latency but its "
               "stage pipeline catches up as the batch grows — the "
               "latency/throughput trade the paper leaves to future work)\n";
  maybe_write_csv(options,
                  {"batch", "latency_mapping_ips", "two_set_ips",
                   "two_set_pipeline_speedup"},
                  csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
