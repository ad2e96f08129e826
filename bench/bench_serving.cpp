// Experiment S1 — online serving sweep: offered rate x policy x link
// bandwidth for a two-model fleet (facebagnet + resnet50) on an
// 8-accelerator cloud. Policies now cover both families: batching (none,
// size:4, timeout:2:8) and admission control (slo:60, shed:8), so the
// sweep shows the goodput-vs-shed-rate trade load shedding buys under
// overload.
//
// Three extra modes:
//   --autoscale     fleet size x offered rate -> goodput frontier (the
//                   autoscaling planning curve: how many accelerators a
//                   traffic level needs before goodput collapses);
//   --fleet-scale   sharded-serving throughput: ~1M simulated requests
//                   routed across {1,2,4,8} replica groups at --threads
//                   {1,4}, with an in-bench byte-identity gate (any
//                   thread count, and repeat runs, must produce the
//                   identical merged result — exit 1 on mismatch).
//                   --smoke shrinks the stream for CI;
//   (always)        a mapping-cache demonstration first: the same fleet
//                   is planned cold (GA search) and warm (cache load),
//                   and both startup times are reported.
//
// Extension beyond the paper: MARS optimises one inference's makespan;
// this harness measures what its mappings deliver under the multi-tenant
// serving regime the ROADMAP targets — tail latency (p50/p95/p99), SLO
// goodput, shed rate, and per-accelerator utilization, with co-resident
// models contending for the same links and accelerators.
#include "bench_common.h"
#include "bench_tenants.h"

#include <chrono>
#include <filesystem>

#include "mars/serve/cache.h"
#include "mars/serve/fleet.h"
#include "mars/serve/metrics.h"
#include "mars/serve/report.h"
#include "mars/serve/scheduler.h"

namespace mars::bench {
namespace {

constexpr double kSlOMillis = 60.0;

/// The policy grid: batching-only baselines plus the two admission knobs.
std::vector<serve::PolicySpec> policy_grid() {
  return {serve::PolicySpec::parse("none"), serve::PolicySpec::parse("size:4"),
          serve::PolicySpec::parse("timeout:2:8"),
          serve::PolicySpec::parse("slo:" + format_double(kSlOMillis, 0)),
          serve::PolicySpec::parse("shed:8")};
}

/// Plans the 8-accelerator fleet twice against a fresh cache directory:
/// the first pass runs the GA per model and populates the cache, the
/// second rehydrates. Prints both startup times — the cache's reason to
/// exist is the ratio between those two numbers.
void run_cache_demo(const Options& options) {
  const topology::Topology topo = topology::h2h_cloud(8, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mars-bench-serving-cache-seed" + std::to_string(options.seed));
  std::filesystem::remove_all(dir);
  const serve::MappingCache cache(dir.string());

  std::cout << "=== Mapping cache: cold vs warm fleet startup ("
            << join(fleet_models(), " + ") << ", cache at " << dir.string()
            << ") ===\n";
  Table table({"Startup", "Mapping source", "Plan time /s"});
  double cold_s = 0.0;
  double warm_s = 0.0;
  for (const bool warm : {false, true}) {
    const auto start = std::chrono::steady_clock::now();
    const auto services =
        serve::plan_services(fleet_models(), topo, designs, /*adaptive=*/false,
                             *bench_engine(options), &cache);
    const double elapsed = seconds_since(start);
    (warm ? warm_s : cold_s) = elapsed;
    std::vector<std::string> sources;
    for (const auto& service : services) {
      sources.push_back(serve::to_string(service->mapping_source()));
    }
    table.add_row({warm ? "warm (2nd run)" : "cold (1st run)",
                   join(sources, ", "), format_double(elapsed, 3)});
  }
  std::cout << table << "Warm startup speedup: "
            << format_double(warm_s > 0.0 ? cold_s / warm_s : 0.0, 1)
            << "x\n\n";
}

void run_rate_sweep(const Options& options) {
  std::cout << "=== Serving sweep: rate x policy x bandwidth ("
            << join(fleet_models(), " + ")
            << ", 8-accelerator cloud, SLO " << kSlOMillis << " ms) ===\n";

  const std::vector<double> mix = {1.0, 1.0};
  const Seconds duration(options.quick ? 2.0 : 5.0);
  const std::vector<double> bandwidths =
      options.quick ? std::vector<double>{4.0} : std::vector<double>{2.0, 4.0, 10.0};
  const std::vector<double> rates = options.quick
                                        ? std::vector<double>{50.0, 150.0}
                                        : std::vector<double>{25.0, 50.0, 100.0, 200.0};
  const std::vector<serve::PolicySpec> policies = policy_grid();

  std::vector<std::vector<std::string>> csv_rows;
  for (double bandwidth : bandwidths) {
    const topology::Topology topo = topology::h2h_cloud(8, gbps(bandwidth), 4);
    const accel::DesignRegistry designs = accel::h2h_designs();
    // One mapping per model per platform; every (rate, policy) cell
    // replays against the same fleet.
    const auto services =
        serve::plan_services(fleet_models(), topo, designs, /*adaptive=*/false,
                             *bench_engine(options));
    const std::vector<const serve::ModelService*> refs = as_refs(services);

    std::cout << "\n--- " << bandwidth << " Gb/s links ---\n"
              << serve::describe_fleet(services);
    Table table({"Rate /rps", "Policy", "p50 /ms", "p95 /ms", "p99 /ms",
                 "Goodput /rps", "Shed rate", "SLO att.", "Mean util.",
                 "Mean batch"});
    for (double rate : rates) {
      const std::vector<serve::Request> arrivals =
          serve::poisson_arrivals(mix, rate, duration, options.seed);
      for (const serve::PolicySpec& policy : policies) {
        serve::SchedulerOptions sched_options;
        sched_options.policy = policy.batch;
        sched_options.admission = policy.admission;
        const serve::OnlineScheduler scheduler(topo, refs, sched_options);
        const serve::ServeMetrics metrics = serve::summarize(
            scheduler.run(arrivals), fleet_models(), milliseconds(kSlOMillis));
        table.add_row({format_double(rate, 0), policy.to_string(),
                       format_double(metrics.latency.p50.millis(), 2),
                       format_double(metrics.latency.p95.millis(), 2),
                       format_double(metrics.latency.p99.millis(), 2),
                       format_double(metrics.goodput_rps, 1),
                       format_double(metrics.shed_rate * 100.0, 1) + "%",
                       format_double(metrics.slo_attainment * 100.0, 1) + "%",
                       format_double(mean_utilization(metrics) * 100.0, 1) + "%",
                       format_double(metrics.mean_batch, 2)});
        csv_rows.push_back(
            {format_double(bandwidth, 1), format_double(rate, 0),
             policy.to_string(),
             format_double(metrics.latency.p50.millis(), 4),
             format_double(metrics.latency.p95.millis(), 4),
             format_double(metrics.latency.p99.millis(), 4),
             format_double(metrics.throughput_rps, 2),
             format_double(metrics.goodput_rps, 2),
             std::to_string(metrics.offered),
             std::to_string(metrics.rejected),
             format_double(metrics.shed_rate, 4),
             format_double(metrics.slo_attainment, 4),
             format_double(mean_utilization(metrics), 4),
             format_double(metrics.mean_batch, 3)});
      }
      table.add_separator();
    }
    std::cout << table;
  }
  maybe_write_csv(options,
                  {"bandwidth_gbps", "rate_rps", "policy", "p50_ms", "p95_ms",
                   "p99_ms", "throughput_rps", "goodput_rps", "offered",
                   "rejected", "shed_rate", "slo_attainment",
                   "mean_utilization", "mean_batch"},
                  csv_rows);
}

/// Autoscaling frontier: for each fleet size, sweep the offered rate and
/// report goodput under `none` vs SLO-aware admission. Reading a column
/// top-to-bottom answers "how many accelerators does this traffic level
/// need"; comparing the two policies shows what shedding salvages once
/// the fleet is undersized.
void run_autoscale_sweep(const Options& options) {
  std::cout << "=== Autoscaling sweep: fleet size x rate -> goodput frontier ("
            << join(fleet_models(), " + ") << ", 4 Gb/s cloud, SLO "
            << kSlOMillis << " ms) ===\n";

  const std::vector<double> mix = {1.0, 1.0};
  const Seconds duration(options.quick ? 2.0 : 5.0);
  const std::vector<int> fleet_sizes = options.quick
                                           ? std::vector<int>{2, 4}
                                           : std::vector<int>{2, 4, 8, 12};
  const std::vector<double> rates = options.quick
                                        ? std::vector<double>{50.0, 150.0}
                                        : std::vector<double>{50.0, 100.0,
                                                              200.0, 400.0};
  const std::vector<serve::PolicySpec> policies = {
      serve::PolicySpec::parse("none"),
      serve::PolicySpec::parse("slo:" + format_double(kSlOMillis, 0))};

  // One cache for the whole sweep: each fleet size is a distinct
  // fingerprint, so re-running the bench (same seed) replans nothing.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mars-bench-autoscale-cache-seed" + std::to_string(options.seed));
  const serve::MappingCache cache(dir.string());

  std::vector<std::vector<std::string>> csv_rows;
  Table table({"Fleet", "Rate /rps", "Policy", "p99 /ms", "Throughput /rps",
               "Goodput /rps", "Shed rate", "SLO att.", "Mean util."});
  for (int size : fleet_sizes) {
    const topology::Topology topo = topology::h2h_cloud(size, gbps(4.0), 4);
    const accel::DesignRegistry designs = accel::h2h_designs();
    const auto plan_start = std::chrono::steady_clock::now();
    const auto services =
        serve::plan_services(fleet_models(), topo, designs, /*adaptive=*/false,
                             *bench_engine(options), &cache);
    std::cout << "\nfleet " << size << ": planned in "
              << format_double(seconds_since(plan_start), 3) << " s ("
              << serve::to_string(services[0]->mapping_source()) << ")\n";
    const std::vector<const serve::ModelService*> refs = as_refs(services);

    for (double rate : rates) {
      const std::vector<serve::Request> arrivals =
          serve::poisson_arrivals(mix, rate, duration, options.seed);
      for (const serve::PolicySpec& policy : policies) {
        serve::SchedulerOptions sched_options;
        sched_options.policy = policy.batch;
        sched_options.admission = policy.admission;
        const serve::OnlineScheduler scheduler(topo, refs, sched_options);
        const serve::ServeMetrics metrics = serve::summarize(
            scheduler.run(arrivals), fleet_models(), milliseconds(kSlOMillis));
        table.add_row({std::to_string(size), format_double(rate, 0),
                       policy.to_string(),
                       format_double(metrics.latency.p99.millis(), 2),
                       format_double(metrics.throughput_rps, 1),
                       format_double(metrics.goodput_rps, 1),
                       format_double(metrics.shed_rate * 100.0, 1) + "%",
                       format_double(metrics.slo_attainment * 100.0, 1) + "%",
                       format_double(mean_utilization(metrics) * 100.0, 1) +
                           "%"});
        csv_rows.push_back(
            {std::to_string(size), format_double(rate, 0), policy.to_string(),
             format_double(metrics.latency.p99.millis(), 4),
             format_double(metrics.throughput_rps, 2),
             format_double(metrics.goodput_rps, 2),
             std::to_string(metrics.offered),
             std::to_string(metrics.rejected),
             format_double(metrics.shed_rate, 4),
             format_double(metrics.slo_attainment, 4),
             format_double(mean_utilization(metrics), 4)});
      }
    }
    table.add_separator();
  }
  std::cout << '\n' << table;
  maybe_write_csv(options,
                  {"fleet_size", "rate_rps", "policy", "p99_ms",
                   "throughput_rps", "goodput_rps", "offered", "rejected",
                   "shed_rate", "slo_attainment", "mean_utilization"},
                  csv_rows);
}

/// Fleet-scale throughput: one Poisson request stream routed across
/// {1,2,4,8} replica groups (each a 4-accelerator cloud running the
/// two-model fleet), at worker-thread counts {1,4}. Admission control
/// (shed:8) keeps every configuration saturated-but-bounded, so the
/// bench measures the router + per-shard event loop, not unbounded
/// queue growth. Every (shards) row asserts the merged result is
/// byte-identical across thread counts and across a repeat run; any
/// mismatch fails the bench (exit 1) — this is the CI determinism gate.
int run_fleet_scale(const Options& options, bool smoke) {
  const double rate = smoke ? 25000.0 : 100000.0;
  const Seconds duration(smoke ? 2.0 : 10.0);
  std::cout << "=== Fleet-scale sharded serving: ~"
            << static_cast<long long>(rate * duration.count())
            << " simulated requests (" << join(fleet_models(), " + ")
            << ", 4-accelerator replica groups, policy shed:8) ===\n";

  // One replica group's topology; every shard is a copy, so all shard
  // counts share the same planned services.
  const topology::Topology group = topology::h2h_cloud(4, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const auto services =
      serve::plan_services(fleet_models(), group, designs, /*adaptive=*/false,
                           *bench_engine(options, "baseline"));
  const std::vector<const serve::ModelService*> refs = as_refs(services);

  const std::vector<double> mix = {1.0, 1.0};
  const std::vector<serve::Request> arrivals =
      serve::poisson_arrivals(mix, rate, duration, options.seed);
  const serve::PolicySpec policy = serve::PolicySpec::parse("shed:8");

  bool all_identical = true;
  std::vector<std::vector<std::string>> csv_rows;
  Table table({"Shards", "Threads", "Offered", "Served", "Shed rate",
               "p99 /ms", "Wall /s", "Wall req/s", "Identical"});
  for (int shards : {1, 2, 4, 8}) {
    std::optional<std::uint64_t> reference;
    for (int threads : {1, 4}) {
      serve::FleetOptions fleet_options;
      fleet_options.shards = shards;
      fleet_options.threads = threads;
      fleet_options.scheduler.policy = policy.batch;
      fleet_options.scheduler.admission = policy.admission;
      const serve::FleetScheduler scheduler(group, refs, fleet_options);

      const auto start = std::chrono::steady_clock::now();
      const serve::ServeResult result = scheduler.run(arrivals);
      const double wall = seconds_since(start);
      std::uint64_t digest = result_digest(result);
      // Repeat the 4-thread run: same seed, same bytes, or the gate fails.
      if (threads == 4) {
        const std::uint64_t again = result_digest(scheduler.run(arrivals));
        if (again != digest) {
          std::cerr << "FLEET-SCALE MISMATCH: shards=" << shards
                    << " threads=4 repeat run diverged\n";
          all_identical = false;
        }
      }
      if (!reference) reference = digest;
      const bool identical = digest == *reference;
      if (!identical) {
        std::cerr << "FLEET-SCALE MISMATCH: shards=" << shards
                  << " threads=" << threads
                  << " diverged from the threads=1 reference\n";
        all_identical = false;
      }

      const serve::ServeMetrics metrics = serve::summarize(
          result, fleet_models(), milliseconds(kSlOMillis));
      const double wall_rps =
          wall > 0.0 ? static_cast<double>(metrics.offered) / wall : 0.0;
      table.add_row({std::to_string(shards), std::to_string(threads),
                     std::to_string(metrics.offered),
                     std::to_string(metrics.requests),
                     format_double(metrics.shed_rate * 100.0, 1) + "%",
                     format_double(metrics.latency.p99.millis(), 2),
                     format_double(wall, 3), format_double(wall_rps, 0),
                     identical ? "yes" : "NO"});
      csv_rows.push_back(
          {std::to_string(shards), std::to_string(threads),
           std::to_string(metrics.offered), std::to_string(metrics.requests),
           std::to_string(metrics.rejected),
           format_double(metrics.shed_rate, 4),
           format_double(metrics.latency.p99.millis(), 4),
           format_double(metrics.throughput_rps, 2), format_double(wall, 4),
           format_double(wall_rps, 0), identical ? "1" : "0"});
    }
    table.add_separator();
  }
  std::cout << table;
  maybe_write_csv(options,
                  {"shards", "threads", "offered", "served", "rejected",
                   "shed_rate", "p99_ms", "sim_throughput_rps", "wall_s",
                   "wall_rps", "identical"},
                  csv_rows);
  if (!all_identical) {
    std::cerr << "fleet-scale determinism gate FAILED\n";
    return 1;
  }
  std::cout << "determinism gate: all shard/thread configurations "
               "byte-identical\n";
  return 0;
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  const mars::bench::Options options = mars::bench::parse_options(
      argc, argv, {"--autoscale", "--fleet-scale", "--smoke"});
  if (options.switches.contains("--fleet-scale")) {
    return mars::bench::run_fleet_scale(options,
                                        options.switches.contains("--smoke"));
  }
  if (options.switches.contains("--autoscale")) {
    mars::bench::run_autoscale_sweep(options);
    return 0;
  }
  mars::bench::run_cache_demo(options);
  mars::bench::run_rate_sweep(options);
  return 0;
}
