// Online multi-tenant serving walkthrough: two models co-resident on the
// F1-style system, driven by an open-loop Poisson request stream.
//
// The offline story (examples/multimodel_cloud.cpp) ends with a mapping
// that minimises one inference's makespan. This example takes the next
// step the serving regime demands: plan a mapping per model, then replay
// a shared request stream against the shared topology, where the two
// models' compute and transfer tasks queue on the same accelerators and
// links. It sweeps the batching policy to show the classic trade:
// batching raises goodput at high load but adds queueing latency at the
// tail.
//
// Build & run:  ./build/example_multitenant_serving [rate-rps]
#include <iostream>
#include <memory>

#include "mars/plan/engines.h"
#include "mars/serve/metrics.h"
#include "mars/serve/report.h"
#include "mars/serve/scheduler.h"
#include "mars/topology/presets.h"
#include "mars/util/strings.h"
#include "mars/util/table.h"

int main(int argc, char** argv) {
  using namespace mars;

  const double rate = argc > 1 ? parse_double(argv[1]).value_or(0.0) : 60.0;
  if (rate <= 0.0) {
    std::cerr << "usage: example_multitenant_serving [rate-rps > 0]\n";
    return 1;
  }
  const Seconds duration(5.0);
  const Seconds slo = milliseconds(60.0);

  // 1. The shared platform: eight adaptive FPGAs, two host-bridged groups.
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();

  // 2. One MARS mapping per co-resident model (quick search budget).
  //    Swap the engine (plan::make_engine("anneal"|"random"|"baseline"))
  //    to compare mappers on the same serving workload.
  core::MarsConfig config;
  config.first_ga.population = 12;
  config.first_ga.generations = 8;
  config.second.ga.population = 8;
  config.second.ga.generations = 6;
  const plan::GaEngine engine(config);
  const std::vector<std::string> names = {"facebagnet", "resnet34"};
  const auto services =
      serve::plan_services(names, topo, designs, /*adaptive=*/true, engine);
  std::cout << "Planned fleet:\n" << serve::describe_fleet(services) << '\n';

  std::vector<const serve::ModelService*> refs;
  for (const auto& service : services) refs.push_back(service.get());

  // 3. A deterministic Poisson stream, 2:1 traffic in favour of facebagnet.
  const std::vector<serve::Request> arrivals =
      serve::poisson_arrivals({2.0, 1.0}, rate, duration, /*seed=*/1);
  std::cout << arrivals.size() << " requests over " << duration.count()
            << " s (offered " << rate << " rps, SLO " << slo.millis()
            << " ms)\n\n";

  // 4. Replay the same stream under each batching policy.
  Table sweep({"Policy", "p50 /ms", "p99 /ms", "Goodput /rps",
               "SLO attainment", "Mean batch"});
  for (const serve::BatchPolicy& policy :
       {serve::BatchPolicy::none(), serve::BatchPolicy::size(4),
        serve::BatchPolicy::with_timeout(8, milliseconds(2.0))}) {
    serve::SchedulerOptions options;
    options.policy = policy;
    const serve::OnlineScheduler scheduler(topo, refs, options);
    const serve::ServeMetrics metrics =
        serve::summarize(scheduler.run(arrivals), names, slo);
    sweep.add_row({policy.to_string(),
                   format_double(metrics.latency.p50.millis(), 2),
                   format_double(metrics.latency.p99.millis(), 2),
                   format_double(metrics.goodput_rps, 1),
                   format_double(metrics.slo_attainment * 100.0, 1) + "%",
                   format_double(metrics.mean_batch, 2)});
  }
  std::cout << sweep << '\n';

  // 5. Full report for the no-batching run, including per-accelerator
  // utilization — the contention picture batching is meant to improve.
  const serve::OnlineScheduler scheduler(topo, refs, {});
  const serve::ServeMetrics metrics =
      serve::summarize(scheduler.run(arrivals), names, slo);
  std::cout << serve::describe(metrics);
  return 0;
}
