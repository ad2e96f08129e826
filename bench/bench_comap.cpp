// Experiment C1 — joint multi-tenant co-mapping vs independent planning:
// the contended two-model fleet (facebagnet + resnet50, bench_tenants.h)
// on an 8-accelerator cloud, priced by the serving-objective rollout.
//
// Default mode sweeps encoding x offered rate and reports joint vs
// independent SLO goodput, tail latency, and search cost — the headline
// "what does co-mapping buy" table.
//
// --smoke is the CI gate: one contended configuration (150 rps), both
// encodings, asserting
//   (a) the joint search never loses to independent planning (and the
//       partition encoding strictly beats it on this pair),
//   (b) results are byte-identical at --threads 1 vs 4 — fitness bits,
//       rollout hit/miss counters, history, placements — and across a
//       repeat run.
// Any violation exits 1.
#include "bench_common.h"
#include "bench_tenants.h"

#include <bit>
#include <chrono>

#include "mars/comap/engine.h"

namespace mars::bench {
namespace {

constexpr double kSloMillis = 100.0;

comap::CoMapProblem make_problem(const topology::Topology& topo,
                                 const accel::DesignRegistry& designs,
                                 double rate, Seconds duration,
                                 std::uint64_t seed) {
  comap::CoMapProblem problem;
  for (const std::string& name : fleet_models()) {
    problem.tenants.push_back(comap::Tenant{name, 1.0, Seconds{}});
  }
  problem.topo = &topo;
  problem.designs = &designs;
  problem.adaptive = false;
  problem.rollout.rate = rate;
  problem.rollout.duration = duration;
  problem.rollout.seed = seed;
  problem.rollout.default_slo = milliseconds(kSloMillis);
  return problem;
}

comap::CoMapConfig make_config(const Options& options,
                               comap::Encoding encoding, bool smoke,
                               int threads) {
  comap::CoMapConfig config;
  config.encoding = encoding;
  config.seed = options.seed;
  config.threads = threads;
  config.inner = mars_config(options);
  if (smoke || options.quick) {
    config.inner.first_ga.population = 12;
    config.inner.first_ga.generations = 8;
    config.inner.first_ga.stall_generations = 4;
    config.inner.second.ga.population = 8;
    config.inner.second.ga.generations = 6;
    config.ga.population = 8;
    config.ga.generations = 6;
    config.ga.stall_generations = 4;
  }
  config.inner.seed = options.seed;
  config.inner.threads = threads;
  return config;
}

/// Order-sensitive digest of everything a CoMapResult determines: fitness
/// bits, rollout detail, placements, history, and the memo counters the
/// determinism contract covers.
std::uint64_t comap_digest(const comap::CoMapResult& result) {
  std::uint64_t hash = util::kLegacyFnvOffset;
  const auto mix = [&](std::uint64_t value) {
    hash = util::fnv1a_le(value, hash);
  };
  const auto mix_double = [&](double value) {
    mix(std::bit_cast<std::uint64_t>(value));
  };
  const auto mix_score = [&](const comap::ServingObjective::Score& s) {
    mix_double(s.fitness);
    mix(static_cast<std::uint64_t>(s.offered));
    mix(static_cast<std::uint64_t>(s.completed));
    mix(static_cast<std::uint64_t>(s.good));
    mix(static_cast<std::uint64_t>(s.rejected));
    mix_double(s.p99.count());
  };
  mix_score(result.score);
  mix_score(result.independent_score);
  mix(result.joint_won ? 1 : 0);
  for (double h : result.history) mix_double(h);
  for (const comap::TenantOutcome& tenant : result.tenants) {
    mix(static_cast<std::uint64_t>(tenant.placement));
  }
  mix(static_cast<std::uint64_t>(result.provenance.evaluations));
  mix(static_cast<std::uint64_t>(result.rollout_hits));
  mix(static_cast<std::uint64_t>(result.rollout_misses));
  return hash;
}

void run_sweep(const Options& options) {
  const topology::Topology topo = topology::h2h_cloud(8, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const Seconds duration(options.quick ? 0.5 : 1.0);
  const std::vector<double> rates =
      options.quick ? std::vector<double>{150.0}
                    : std::vector<double>{100.0, 150.0, 200.0};

  std::cout << "=== Co-mapping vs independent planning ("
            << join(fleet_models(), " + ") << ", 8-accelerator cloud, SLO "
            << kSloMillis << " ms, rollout "
            << format_double(duration.count() * 1000.0, 0) << " ms) ===\n";
  Table table({"Encoding", "Rate /rps", "Joint good /rps", "Indep good /rps",
               "Joint p99 /ms", "Indep p99 /ms", "Joint won", "Evals",
               "Rollouts", "Wall /s"});
  std::vector<std::vector<std::string>> csv_rows;
  for (const comap::Encoding encoding :
       {comap::Encoding::kPartition, comap::Encoding::kInterleave}) {
    for (double rate : rates) {
      const comap::CoMapProblem problem =
          make_problem(topo, designs, rate, duration, options.seed);
      const comap::CoMapEngine engine(
          make_config(options, encoding, /*smoke=*/false, /*threads=*/1));
      const auto start = std::chrono::steady_clock::now();
      const comap::CoMapResult result = engine.search(problem);
      const double wall = seconds_since(start);
      table.add_row(
          {comap::to_string(encoding), format_double(rate, 0),
           format_double(result.score.goodput_rps(duration), 1),
           format_double(result.independent_score.goodput_rps(duration), 1),
           format_double(result.score.p99.millis(), 2),
           format_double(result.independent_score.p99.millis(), 2),
           result.joint_won ? "yes" : "no",
           std::to_string(result.provenance.evaluations),
           std::to_string(result.rollout_misses), format_double(wall, 2)});
      csv_rows.push_back(
          {comap::to_string(encoding), format_double(rate, 0),
           format_double(result.score.goodput_rps(duration), 3),
           format_double(result.independent_score.goodput_rps(duration), 3),
           format_double(result.score.p99.millis(), 4),
           format_double(result.independent_score.p99.millis(), 4),
           result.joint_won ? "1" : "0",
           std::to_string(result.provenance.evaluations),
           std::to_string(result.rollout_misses), format_double(wall, 4)});
    }
    table.add_separator();
  }
  std::cout << table;
  maybe_write_csv(options,
                  {"encoding", "rate_rps", "joint_goodput_rps",
                   "indep_goodput_rps", "joint_p99_ms", "indep_p99_ms",
                   "joint_won", "evaluations", "rollouts", "wall_s"},
                  csv_rows);
}

/// The CI gate (see the file comment).
int run_smoke(const Options& options) {
  const topology::Topology topo = topology::h2h_cloud(8, gbps(4.0), 4);
  const accel::DesignRegistry designs = accel::h2h_designs();
  const comap::CoMapProblem problem =
      make_problem(topo, designs, /*rate=*/150.0, Seconds(0.5), options.seed);

  std::cout << "=== comap smoke gate (" << join(fleet_models(), " + ")
            << ", 150 rps) ===\n";
  bool ok = true;
  for (const comap::Encoding encoding :
       {comap::Encoding::kPartition, comap::Encoding::kInterleave}) {
    const comap::CoMapEngine serial(
        make_config(options, encoding, /*smoke=*/true, /*threads=*/1));
    const comap::CoMapEngine threaded(
        make_config(options, encoding, /*smoke=*/true, /*threads=*/4));
    const comap::CoMapResult result = serial.search(problem);
    const std::uint64_t reference = comap_digest(result);
    const std::uint64_t at4 = comap_digest(threaded.search(problem));
    const std::uint64_t repeat = comap_digest(serial.search(problem));

    std::cout << comap::to_string(encoding) << ": joint fitness "
              << format_double(result.score.fitness, 4) << " vs independent "
              << format_double(result.independent_score.fitness, 4) << " ("
              << (result.joint_won ? "joint won" : "independent kept")
              << "), digests " << (at4 == reference ? "match" : "DIVERGE")
              << " at --threads 4, repeat "
              << (repeat == reference ? "match" : "DIVERGE") << '\n';

    if (result.score.fitness > result.independent_score.fitness) {
      std::cerr << "COMAP SMOKE FAILED: " << comap::to_string(encoding)
                << " joint result lost to independent planning\n";
      ok = false;
    }
    if (encoding == comap::Encoding::kPartition && !result.joint_won) {
      std::cerr << "COMAP SMOKE FAILED: partition co-mapping did not beat "
                   "independent planning on the contended pair\n";
      ok = false;
    }
    if (at4 != reference || repeat != reference) {
      std::cerr << "COMAP SMOKE FAILED: " << comap::to_string(encoding)
                << " results are not byte-identical across threads/repeat\n";
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "comap smoke gate FAILED\n";
    return 1;
  }
  std::cout << "comap smoke gate: joint >= independent, byte-identical at "
               "--threads 1 vs 4 and across repeat runs\n";
  return 0;
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  const mars::bench::Options options =
      mars::bench::parse_options(argc, argv, {"--smoke"});
  if (options.switches.contains("--smoke")) {
    return mars::bench::run_smoke(options);
  }
  mars::bench::run_sweep(options);
  return 0;
}
