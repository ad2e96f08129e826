// Heterogeneous model on a fixed-design cloud (the paper's Section VI-C
// scenario): a three-stream face anti-spoofing network mapped onto eight
// FPGAs whose designs are already burnt in. Compares the H2H-style
// comparator (one layer per accelerator, no intra-layer parallelism)
// against MARS, and exports a Chrome trace of the MARS schedule
// (open chrome://tracing or ui.perfetto.dev on mars_schedule.json).
//
// Build & run:  ./build/example_multimodel_cloud [bandwidth-gbps]
#include <fstream>
#include <iostream>

#include "mars/accel/registry.h"
#include "mars/core/evaluator.h"
#include "mars/core/h2h.h"
#include "mars/graph/models/models.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/sim/trace.h"
#include "mars/topology/presets.h"
#include "mars/util/strings.h"

int main(int argc, char** argv) {
  using namespace mars;

  const double bandwidth =
      argc > 1 ? parse_double(argv[1]).value_or(0.0) : 4.0;
  if (bandwidth <= 0.0) {
    std::cerr << "usage: example_multimodel_cloud [bandwidth-gbps > 0]\n";
    return 1;
  }

  // Eight FPGAs, uniform links, four designs burnt in two-by-two.
  const topology::Topology topo = topology::h2h_cloud(8, gbps(bandwidth), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();

  // adaptive=false: designs are fixed per accelerator.
  const plan::Planner planner(graph::models::facebagnet(), topo, designs,
                              /*adaptive=*/false);

  std::cout << "facebagnet (" << planner.spine().size()
            << " layers, 3 streams) on an 8-FPGA " << bandwidth
            << " Gb/s cloud\n\n";

  // H2H-style: computation+communication-aware, layer-per-accelerator.
  const core::H2HResult h2h = core::H2HMapper(planner.problem()).map();
  std::cout << "H2H-style mapper: " << h2h.simulated.millis() << " ms\n";

  // MARS: multi-level parallelism on the same fixed system.
  const plan::GaEngine engine;
  const plan::PlanResult result = planner.plan(engine);
  std::cout << "MARS:             " << result.summary.simulated.millis()
            << " ms (" << (result.summary.simulated / h2h.simulated - 1.0) * 100.0
            << "% vs H2H)\n\n"
            << core::describe(result.mapping, planner.spine(), designs, false);

  // Export the executed schedule for visual inspection.
  const core::MappingEvaluator evaluator(planner.problem());
  const core::MappingEvaluator::SimOutput output =
      evaluator.simulate(result.mapping);
  std::ofstream trace("mars_schedule.json");
  trace << sim::to_chrome_trace(output.graph, output.result);
  std::cout << "\nwrote mars_schedule.json (" << output.graph.size()
            << " tasks) — load it in chrome://tracing\n";
  return 0;
}
