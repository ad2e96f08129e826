// Experiment T4 — Table IV: MARS vs H2H on heterogeneous multi-modal
// models over a fixed-design cloud multi-FPGA system, swept across the five
// H2H bandwidth levels (1 / 1.2 / 2 / 4 / 10 Gb/s).
//
// Paper reference (shape target): MARS reduces latency by 50-74% at every
// level, with low-bandwidth mappings drifting toward H/W partitioning.
#include "bench_common.h"

#include "mars/parallel/strategy.h"

namespace mars::bench {
namespace {

struct Level {
  const char* label;
  double gbps_value;
};

constexpr Level kLevels[] = {{"Low-(1Gbps)", 1.0},
                             {"Low(1.2Gbps)", 1.2},
                             {"Mid-(2Gbps)", 2.0},
                             {"Mid(4Gbps)", 4.0},
                             {"High(10Gbps)", 10.0}};

struct PaperRef {
  const char* model;
  double h2h[5];
  double mars[5];
};

constexpr PaperRef kPaper[] = {
    {"casia_surf", {360.0, 340.0, 260.0, 230.0, 180.0},
     {124.6, 120.3, 100.9, 74.3, 46.8}},
    {"facebagnet", {520.0, 450.0, 320.0, 230.0, 170.0},
     {237.4, 224.6, 159.4, 112.1, 76.5}},
};

// Fraction of MARS's layer shards that split spatial dims (H/W) — the
// paper observes this rises as bandwidth falls.
double spatial_fraction(const core::Mapping& mapping) {
  int spatial = 0;
  int total = 0;
  for (const core::LayerAssignment& set : mapping.sets) {
    for (const parallel::Strategy& s : set.strategies) {
      ++total;
      if (s.ways_of(parallel::Dim::kH) > 1 || s.ways_of(parallel::Dim::kW) > 1) {
        ++spatial;
      }
    }
  }
  return total > 0 ? static_cast<double>(spatial) / total : 0.0;
}

void run(const Options& options) {
  std::cout << "=== Table IV: latency (ms) comparison with H2H on "
               "heterogeneous models (fixed-design 8-FPGA cloud) ===\n";

  std::vector<std::vector<std::string>> csv_rows;
  const accel::DesignRegistry designs = accel::h2h_designs();
  const plan::GaEngine engine(mars_config(options));
  for (const PaperRef& ref : kPaper) {
    Table table({"Bandwidth", "H2H /ms", "MARS /ms", "Reduction",
                 "Paper (H2H->MARS)", "Spatial-ES share"});
    double reduction_sum = 0.0;
    std::cout << "\n--- " << ref.model << " ---\n";
    for (std::size_t level = 0; level < 5; ++level) {
      const topology::Topology topo =
          topology::h2h_cloud(8, gbps(kLevels[level].gbps_value), 4);
      const plan::Planner planner = plan::Planner::for_model(
          ref.model, topo, designs, /*adaptive=*/false);

      const core::H2HResult h2h = core::H2HMapper(planner.problem()).map();
      const plan::PlanResult result = planner.plan(engine);

      const double reduction =
          result.summary.simulated / h2h.simulated - 1.0;
      reduction_sum += reduction;
      const std::string paper =
          format_double(ref.h2h[level], 1) + "->" +
          format_double(ref.mars[level], 1) + " (" +
          signed_percent(ref.mars[level] / ref.h2h[level] - 1.0, 1) + ")";
      table.add_row({kLevels[level].label,
                     format_double(h2h.simulated.millis(), 2),
                     format_double(result.summary.simulated.millis(), 2),
                     signed_percent(reduction, 1), paper,
                     format_double(spatial_fraction(result.mapping) * 100.0, 0) +
                         "%"});
      csv_rows.push_back({ref.model, format_double(kLevels[level].gbps_value, 1),
                          format_double(h2h.simulated.millis(), 4),
                          format_double(result.summary.simulated.millis(), 4),
                          format_double(reduction * 100.0, 2),
                          format_double(spatial_fraction(result.mapping), 4)});
    }
    std::cout << table;
    std::cout << "Average reduction for " << ref.model << ": "
              << signed_percent(reduction_sum / 5.0, 1) << '\n';
  }
  std::cout << "\n(paper overall average: -59.4%)\n";
  maybe_write_csv(options,
                  {"model", "bandwidth_gbps", "h2h_ms", "mars_ms",
                   "reduction_percent", "spatial_es_fraction"},
                  csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
