// Experiment T3 — Table III: baseline vs MARS latency on the five CNN
// workloads over the F1-style adaptive multi-accelerator system.
//
// Paper reference (for shape, not absolute numbers — see docs/EXPERIMENTS.md):
//   AlexNet  0.832 -> 0.748 ms (-10.1%)     VGG16    20.6 -> 14.9 (-27.7%)
//   ResNet34 4.43  -> 2.76 (-37.7%)         ResNet101 14.9 -> 7.95 (-46.6%)
//   WRN-50-2 16.7  -> 10.1 (-39.5%)         average -32.2%
#include <chrono>

#include "bench_common.h"
#include "mars/core/report.h"

namespace mars::bench {
namespace {

struct PaperRow {
  const char* model;
  double baseline_ms;
  double mars_ms;
};

constexpr PaperRow kPaper[] = {
    {"alexnet", 0.832, 0.748},   {"vgg16", 20.6, 14.9},
    {"resnet34", 4.43, 2.76},    {"resnet101", 14.9, 7.95},
    {"wrn50_2", 16.7, 10.1},
};

void run(const Options& options) {
  std::cout << "=== Table III: latency comparison, baseline vs MARS (F1-style "
               "system: 8 FPGAs, 2 groups, 8 Gb/s intra-group, 2 Gb/s host) ===\n";

  Table table({"Model", "#Convs", "#Params", "MACs", "Baseline /ms", "MARS /ms",
               "Reduction", "Paper", "Mapping found by MARS"});
  std::vector<std::vector<std::string>> csv_rows;
  double reduction_sum = 0.0;
  int rows = 0;

  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  for (const PaperRow& ref : kPaper) {
    const auto t0 = std::chrono::steady_clock::now();
    const plan::Planner planner =
        plan::Planner::for_model(ref.model, topo, designs);
    const core::Mapping baseline =
        core::baseline_mapping(planner.problem(), planner.profile());
    const core::MappingEvaluator evaluator(planner.problem());
    const Seconds baseline_latency = evaluator.evaluate(baseline).simulated;

    const GaSearch search = ga_search(planner, mars_config(options));
    const plan::PlanResult& result = search.result;
    const Seconds mars_latency = result.summary.simulated;
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    const double reduction = mars_latency / baseline_latency - 1.0;
    reduction_sum += reduction;
    ++rows;

    const core::WorkloadSummary workload = core::summarize(planner.model());
    std::string mapping_text =
        core::describe(result.mapping, planner.spine(), designs, true);
    for (char& c : mapping_text) {
      if (c == '\n') c = ' ';
    }
    const std::string paper_ref =
        format_double(ref.baseline_ms, 3) + "->" + format_double(ref.mars_ms, 3) +
        " (" + signed_percent(ref.mars_ms / ref.baseline_ms - 1.0, 1) + ")";

    table.add_row({workload.name, std::to_string(workload.num_convs),
                   si_count(workload.params), si_count(workload.macs),
                   format_double(baseline_latency.millis(), 3),
                   format_double(mars_latency.millis(), 3),
                   signed_percent(reduction, 1), paper_ref,
                   mapping_text.substr(0, 70)});
    csv_rows.push_back({workload.name,
                        format_double(baseline_latency.millis(), 4),
                        format_double(mars_latency.millis(), 4),
                        format_double(reduction * 100.0, 2),
                        format_double(ref.baseline_ms, 3),
                        format_double(ref.mars_ms, 3)});

    std::cout << "  [" << workload.name << "] baseline "
              << format_double(baseline_latency.millis(), 3) << " ms, MARS "
              << format_double(mars_latency.millis(), 3) << " ms ("
              << signed_percent(reduction, 1) << ", paper "
              << signed_percent(ref.mars_ms / ref.baseline_ms - 1.0, 1)
              << "), search " << format_double(elapsed, 1) << " s, cache "
              << search.memo_hits << "/"
              << (search.memo_hits + search.memo_misses) << "\n"
              << core::describe(result.mapping, planner.spine(), designs,
                                true);
  }

  std::cout << '\n' << table;
  std::cout << "Average latency reduction: "
            << signed_percent(reduction_sum / rows, 1) << " (paper: -32.2%)\n";
  maybe_write_csv(options,
                  {"model", "baseline_ms", "mars_ms", "reduction_percent",
                   "paper_baseline_ms", "paper_mars_ms"},
                  csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
