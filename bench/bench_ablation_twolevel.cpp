// Ablation A1 — the paper's central algorithmic claim (Section V): "simply
// tuning [everything] in one pass of the search is easy to fall into local
// optimums". Compares the two-level GA against a flat single-level GA that
// decides sets, designs AND per-layer strategies in one genome, at a
// comparable evaluation budget.
#include "bench_common.h"

namespace mars::bench {
namespace {

void run(const Options& options) {
  std::cout << "=== Ablation A1: two-level GA vs flat single-level GA ===\n";
  Table table({"Model", "Two-level /ms", "Flat /ms", "Flat vs two-level"});
  std::vector<std::vector<std::string>> csv_rows;

  core::MarsConfig flat = mars_config(options);
  flat.two_level = false;
  // The flat genome is much larger; give it the same generation budget
  // (the paper's point is that budget alone does not rescue it).
  const plan::GaEngine two_level_engine(mars_config(options));
  const plan::GaEngine flat_engine(flat);

  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  for (const char* model : {"alexnet", "vgg16", "resnet34"}) {
    const plan::Planner planner =
        plan::Planner::for_model(model, topo, designs);
    const Seconds two_level = planner.plan(two_level_engine).summary.simulated;
    const Seconds flat_latency = planner.plan(flat_engine).summary.simulated;

    table.add_row({model, format_double(two_level.millis(), 3),
                   format_double(flat_latency.millis(), 3),
                   signed_percent(flat_latency / two_level - 1.0, 1)});
    csv_rows.push_back({model, format_double(two_level.millis(), 4),
                        format_double(flat_latency.millis(), 4)});
  }
  std::cout << table
            << "(positive % = the flat search is slower: the division into "
               "two levels pays off)\n";
  maybe_write_csv(options, {"model", "two_level_ms", "flat_ms"}, csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
