// Ablation A2 — shared shards (Section IV): how much of MARS's win needs
// the SS strategy on top of exclusive shards, and what SS does to the
// worst-case per-accelerator memory footprint.
#include "bench_common.h"

namespace mars::bench {
namespace {

void run(const Options& options) {
  std::cout << "=== Ablation A2: ES-only vs ES+SS strategy space ===\n";
  Table table({"Model", "ES+SS /ms", "ES-only /ms", "ES-only vs ES+SS",
               "Footprint ES+SS", "Footprint ES-only"});
  std::vector<std::vector<std::string>> csv_rows;

  core::MarsConfig no_ss = mars_config(options);
  no_ss.second.enable_ss = false;
  const plan::GaEngine with_ss_engine(mars_config(options));
  const plan::GaEngine no_ss_engine(no_ss);

  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  for (const char* model : {"vgg16", "resnet34", "wrn50_2"}) {
    const plan::Planner planner =
        plan::Planner::for_model(model, topo, designs);
    const plan::PlanResult r_ss = planner.plan(with_ss_engine);
    const plan::PlanResult r_es = planner.plan(no_ss_engine);

    table.add_row(
        {model, format_double(r_ss.summary.simulated.millis(), 3),
         format_double(r_es.summary.simulated.millis(), 3),
         signed_percent(r_es.summary.simulated / r_ss.summary.simulated - 1.0, 1),
         format_double(r_ss.summary.worst_set_footprint.mib(), 1) + " MiB",
         format_double(r_es.summary.worst_set_footprint.mib(), 1) + " MiB"});
    csv_rows.push_back({model,
                        format_double(r_ss.summary.simulated.millis(), 4),
                        format_double(r_es.summary.simulated.millis(), 4),
                        format_double(r_ss.summary.worst_set_footprint.mib(), 2),
                        format_double(r_es.summary.worst_set_footprint.mib(), 2)});
  }
  std::cout << table;

  // SS's memory role sharpens under tight DRAM (Section IV's motivation).
  std::cout << "\nTight-DRAM variant (48 MiB per accelerator, vgg16):\n";
  const topology::Topology tight =
      topology::f1_16xlarge(gbps(8.0), gbps(2.0), mebibytes(48.0));
  const plan::Planner planner =
      plan::Planner::for_model("vgg16", tight, designs);
  const plan::PlanResult r_ss = planner.plan(with_ss_engine);
  const plan::PlanResult r_es = planner.plan(no_ss_engine);
  std::cout << "  ES+SS:   " << format_double(r_ss.summary.simulated.millis(), 3)
            << " ms, memory_ok=" << (r_ss.summary.memory_ok ? "yes" : "NO")
            << ", worst set "
            << format_double(r_ss.summary.worst_set_footprint.mib(), 1)
            << " MiB\n";
  std::cout << "  ES-only: " << format_double(r_es.summary.simulated.millis(), 3)
            << " ms, memory_ok=" << (r_es.summary.memory_ok ? "yes" : "NO")
            << ", worst set "
            << format_double(r_es.summary.worst_set_footprint.mib(), 1)
            << " MiB\n";
  maybe_write_csv(options,
                  {"model", "es_ss_ms", "es_only_ms", "es_ss_footprint_mib",
                   "es_only_footprint_mib"},
                  csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
