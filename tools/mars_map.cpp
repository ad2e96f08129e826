// mars_map — command-line front end to the MARS mapping framework.
//
//   mars_map models
//       List the model zoo.
//   mars_map profile --model vgg16
//       Per-layer design profile (Table II style).
//   mars_map map --model resnet34 [--topology f1 | cloud:<n>:<gbps>]
//                [--mapper ga|anneal|random|baseline|portfolio|race:...]
//                [--search-budget MS] [--search-evals N] [--threads N]
//                [--seed N] [--json out.json] [--quick] [--fixed]
//       Run a mapping search (default: the two-level GA) and print (or
//       export) the mapping with its provenance. --threads fans fitness
//       evaluation across a worker pool (identical results, less wall
//       clock); --mapper portfolio races ga+anneal+random under one
//       budget and keeps the winner.
//   mars_map baseline --model resnet34
//       The Herald-extended baseline mapping and latency.
//   mars_map throughput --model resnet34 --batch 8
//       Pipelined multi-image throughput of the searched mapping.
//   mars_map serve --model facebagnet --model resnet50 --rate 200 --duration 10
//       Online multi-tenant serving simulation over the shared topology.
//       --model takes name[:weight[:sloMS]] — a per-model SLO overrides
//       --slo for both the goodput report and slo: admission.
//       --mapping-cache DIR persists searched mappings across runs;
//       --policy composes batching and admission ("size:4+slo:60");
//       --replay CSV replays a recorded arrival trace; --shards N splits
//       the fleet into N replica groups behind a deterministic router
//       (docs/SERVING.md), run in parallel under --threads;
//       --shard-models 'a+b/c' pins each replica group to a subset of the
//       models (one '/'-separated entry per shard, '+'-separated names).
//   mars_map comap --model facebagnet --model resnet50 --rate 150
//       Joint multi-tenant co-mapping (docs/COMAP.md): searches the
//       tenants together under a serving-objective fitness (seeded
//       rollouts of the shared request stream) and reports the joint
//       vs independent SLO goodput. --encoding partition|interleave
//       picks the composite genome; --rollout MS sets the rollout
//       horizon; budget/thread/cache/trace flags work as in map/serve.
//   mars_map explore --model alexnet [--space SPEC] [--objectives LIST]
//       Hardware-mapping co-search (docs/EXPLORE.md): evolves hardware
//       points (interconnect family, accelerator count, link bandwidth,
//       design menu) with an NSGA-II loop, pricing each point by an
//       inner mapping search, and prints the Pareto front over
//       --objectives (default makespan,energy,cost). --space uses the
//       axis grammar "families=clique,ring;accs=2,4;bw=8;menus=full";
//       --front-size truncates the printed front by crowding distance;
//       --points / --search-budget bound the outer search; --search-evals
//       bounds each inner search; --csv/--json export the front
//       byte-identically at any --threads and cache state.
//   mars_map warm --models a,b,c --mapping-cache DIR
//       Pre-populate the mapping cache: plan every listed model on the
//       configured (topology, mapper) and store the results, so later
//       serve/comap startups are cache hits.
//
// Every command that searches (map, throughput, serve, comap, explore,
// warm) accepts `--trace FILE.json` (Chrome Trace Event / Perfetto timeline
// of the run) and `--metrics FILE.json` (counter registry snapshot). Both
// write their files after the command finishes and report to stderr only —
// stdout is byte-identical with and without them.
//
// Each command reads exactly the flags of its table in commands() below
// (util/flags.h): an unknown or inapplicable flag, a positional token or
// a malformed or out-of-range value is a usage error.
//
// The full flag reference lives in docs/CLI.md; the serving data flow in
// docs/SERVING.md; clock domains and the trace determinism contract in
// docs/OBSERVABILITY.md.
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mars/accel/profiler.h"
#include "mars/comap/engine.h"
#include "mars/core/evaluator.h"
#include "mars/core/serialize.h"
#include "mars/explore/engine.h"
#include "mars/graph/models/models.h"
#include "mars/graph/parser.h"
#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/serve/cache.h"
#include "mars/serve/fleet.h"
#include "mars/serve/metrics.h"
#include "mars/serve/report.h"
#include "mars/serve/scheduler.h"
#include "mars/topology/presets.h"
#include "mars/util/flags.h"
#include "mars/util/strings.h"
#include "mars/util/table.h"
#include "mars/util/worker_pool.h"

namespace {

using namespace mars;
using enum util::FlagKind;

/// Per-command observability session: `--trace FILE.json` installs a
/// TraceRecorder, and a MetricsRegistry is always installed so component
/// destructors have somewhere to flush their counters. Declare this FIRST
/// in a command so every component destructs — and flushes — before this
/// destructor uninstalls and exports. Everything the session prints goes
/// to stderr: stdout stays byte-identical with and without --trace.
struct ObsSession {
  std::optional<obs::TraceRecorder> recorder;
  obs::MetricsRegistry registry;
  std::string trace_path;
  std::string metrics_path;

  explicit ObsSession(const util::Flags& flags)
      : trace_path(flags.text("trace")), metrics_path(flags.text("metrics")) {
    if (!trace_path.empty()) {
      recorder.emplace();
      obs::install_trace(&*recorder);
    }
    obs::install_metrics(&registry);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    obs::install_metrics(nullptr);
    if (recorder) obs::install_trace(nullptr);
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      recorder->write(file);
      std::clog << "wrote trace (" << recorder->event_count()
                << " events) to " << trace_path << '\n';
    }
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      file << registry.to_json().dump() << '\n';
      std::clog << "wrote metrics to " << metrics_path << '\n';
    }
    // Counter snapshot as stderr provenance whenever observability was
    // asked for (quiet otherwise — normal runs keep a clean stderr).
    if (recorder || !metrics_path.empty()) {
      for (const auto& [name, value] : registry.counter_values()) {
        std::clog << "metric " << name << "=" << value << '\n';
      }
      for (const auto& [name, value] : registry.ratio_values()) {
        std::clog << "metric " << name << "=" << value << '\n';
      }
    }
  }
};

/// The accelerator count of `--topology family:<n>:<gbps>`: a whole
/// decimal from `least` up to topology::kMaxAccelerators.
int topology_count(const std::string& spec, const std::string& text,
                   std::uint64_t least) {
  const std::optional<std::uint64_t> n = parse_u64(text);
  if (!n || *n < least || *n > topology::kMaxAccelerators) {
    throw InvalidArgument("--topology '" + spec +
                          "' needs an integer count of " +
                          std::to_string(least) + " to " +
                          std::to_string(topology::kMaxAccelerators) +
                          " accelerators, got '" + text + "'");
  }
  return static_cast<int>(*n);
}

/// The link bandwidth of `--topology family:<n>:<gbps>`: a whole finite
/// positive number.
double topology_gbps(const std::string& spec, const std::string& text) {
  const std::optional<double> value = parse_double(text);
  if (!value || *value <= 0.0) {
    throw InvalidArgument("--topology '" + spec +
                          "' needs a positive bandwidth in Gbps, got '" +
                          text + "'");
  }
  return *value;
}

/// Builds the topology named by `--topology`. `size_override > 0` rebuilds
/// the same family at a different accelerator count — how `serve --shards`
/// derives one replica group from the fleet spec. Only the sizable
/// families (cloud, ring) can be resized; f1 is a fixed preset.
topology::Topology make_topology(const util::Flags& flags,
                                 int size_override = 0) {
  const std::string spec = flags.text("topology", "f1");
  if (spec == "f1") {
    if (size_override > 0) {
      throw InvalidArgument(
          "--shards > 1 needs a sizable topology (cloud:<n>:<gbps> or "
          "ring:<n>:<gbps>); f1 is a fixed preset");
    }
    return topology::f1_16xlarge();
  }
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() == 3 && (parts[0] == "cloud" || parts[0] == "ring")) {
    const bool cloud = parts[0] == "cloud";
    const int n = size_override > 0
                      ? size_override
                      : topology_count(spec, parts[1], cloud ? 1 : 2);
    const Bandwidth bw = gbps(topology_gbps(spec, parts[2]));
    if (cloud) return topology::h2h_cloud(n, bw, flags.has("fixed") ? 4 : 0);
    return topology::ring(n, bw, gbps(2.0));
  }
  throw InvalidArgument("unknown topology '" + spec +
                        "' (use f1 | cloud:<n>:<gbps> | ring:<n>:<gbps>)");
}

/// `--fixed` selects the fixed-design (H2H-style) registry.
accel::DesignRegistry make_designs(const util::Flags& flags) {
  return flags.has("fixed") ? accel::h2h_designs() : accel::table2_designs();
}

/// `--seed` and `--threads`, plus the smoke-sized GA schedule when `quick`
/// (`--quick`, or serving's default unless `--full`).
core::MarsConfig make_config(const util::Flags& flags, bool quick) {
  core::MarsConfig config;
  config.seed = flags.seed("seed", 1);
  config.threads = flags.integer("threads", 1);
  if (quick) {
    config.first_ga.population = 12;
    config.first_ga.generations = 8;
    config.second.ga.population = 8;
    config.second.ga.generations = 6;
  }
  return config;
}

/// `--search-budget MS` (wall clock) plus the evaluation cap `evals_flag`
/// (`--search-evals`, or explore's `--points`); 0 (the default) leaves
/// either unbounded.
plan::Budget make_budget(const util::Flags& flags,
                         const std::string& evals_flag = "search-evals") {
  plan::Budget budget;
  budget.wall_clock = milliseconds(flags.number("search-budget", 0.0));
  budget.max_evaluations = flags.integer(evals_flag, 0);
  return budget;
}

/// `--mapping-cache DIR`, when given.
std::optional<serve::MappingCache> open_cache(const util::Flags& flags) {
  if (!flags.has("mapping-cache")) return std::nullopt;
  return std::optional<serve::MappingCache>(std::in_place,
                                            flags.text("mapping-cache"));
}

int cmd_models(const util::Flags&) {
  Table table({"Model", "#Convs", "Mappable", "#Params", "MACs"});
  for (const std::string& name : graph::models::zoo_names()) {
    const graph::Graph model = graph::models::by_name(name);
    table.add_row({name, std::to_string(model.num_convs()),
                   std::to_string(model.num_spine_layers()),
                   si_count(model.total_params()), si_count(model.total_macs())});
  }
  std::cout << table;
  return 0;
}

/// The `--model` value of a command that plans one model at a time: a bare
/// zoo name. The `:weight:sloMS` suffix belongs to the serve and comap
/// tenant mix, so it gets a usage error here rather than "unknown model".
std::string bare_model(std::string name, const std::string& command) {
  if (name.find(':') != std::string::npos) {
    throw InvalidArgument(command + " takes a bare model name, got --model '" +
                          name + "' (:weight:slo applies only to serve and "
                                 "comap)");
  }
  return name;
}

int cmd_profile(const util::Flags& flags) {
  const graph::Graph model = graph::models::by_name(
      bare_model(flags.text("model", "resnet34"), "profile"));
  const graph::ConvSpine spine = graph::ConvSpine::extract(model);
  const accel::DesignRegistry designs = accel::table2_designs();
  const accel::ProfileMatrix profile(designs, spine);

  Table table({"Layer", "Shape", "Best design", "Cycles", "Utilization"});
  for (int l = 0; l < spine.size(); ++l) {
    const accel::DesignId best = profile.best_design(l);
    table.add_row({spine.node(l).name, graph::to_string(spine.node(l).shape),
                   designs.design(best).name(),
                   si_count(profile.at(best, l).cycles, 1),
                   format_double(profile.at(best, l).utilization * 100.0, 1) +
                       "%"});
  }
  std::cout << table;
  return 0;
}

/// The system side (owned here) plus the model side (owned by the
/// Planner): the whole former graph/spine/Problem assembly chain.
struct LoadedProblem {
  topology::Topology topo;
  accel::DesignRegistry designs;
  plan::Planner planner;

  static graph::Graph load_model(const util::Flags& flags,
                                 const std::string& command) {
    if (flags.has("model-file")) {
      return graph::parse_model_file(flags.text("model-file"));
    }
    return graph::models::by_name(
        bare_model(flags.text("model", "resnet34"), command));
  }

  LoadedProblem(const util::Flags& flags, const std::string& command)
      : topo(make_topology(flags)),
        designs(make_designs(flags)),
        planner(load_model(flags, command), topo, designs,
                !flags.has("fixed")) {}
};

int cmd_map(const util::Flags& flags) {
  const ObsSession session(flags);
  LoadedProblem lp(flags, "map");
  const std::unique_ptr<plan::SearchEngine> engine = plan::make_engine(
      flags.text("mapper", "ga"), make_config(flags, flags.has("quick")));
  const plan::PlanResult result = lp.planner.plan(*engine, make_budget(flags));
  const bool adaptive = lp.planner.problem().adaptive;

  std::cout << core::describe(result.mapping, lp.planner.spine(), lp.designs,
                              adaptive)
            << "simulated latency: " << result.summary.simulated.millis()
            << " ms (memory " << (result.summary.memory_ok ? "ok" : "VIOLATED")
            << ")\n"
            << "search: engine " << result.provenance.engine << ", "
            << result.provenance.evaluations << " evaluations in "
            << format_double(result.provenance.elapsed.count(), 3)
            << " s, stopped: " << plan::to_string(result.provenance.stopped)
            << '\n';
  if (!result.provenance.winner.empty()) {
    std::cout << "portfolio winner: " << result.provenance.winner << " (";
    for (std::size_t i = 0; i < result.provenance.members.size(); ++i) {
      const plan::Provenance& member = result.provenance.members[i];
      std::cout << (i > 0 ? ", " : "") << member.engine << " "
                << member.evaluations << " evals";
    }
    std::cout << ")\n";
  }

  if (flags.has("json")) {
    JsonValue out = JsonValue::object();
    out.set("mapping", core::to_json(result.mapping, lp.planner.spine(),
                                     lp.designs, adaptive));
    out.set("summary", core::to_json(result.summary));
    out.set("provenance", plan::to_json(result.provenance));
    std::ofstream file(flags.text("json"));
    file << out.dump() << '\n';
    std::cout << "wrote " << flags.text("json") << '\n';
  }
  return 0;
}

int cmd_baseline(const util::Flags& flags) {
  LoadedProblem lp(flags, "baseline");
  const plan::BaselineEngine engine;
  const plan::PlanResult result = lp.planner.plan(engine);
  std::cout << core::describe(result.mapping, lp.planner.spine(), lp.designs,
                              lp.planner.problem().adaptive)
            << "simulated latency: " << result.summary.simulated.millis()
            << " ms\n";
  return 0;
}

int cmd_throughput(const util::Flags& flags) {
  const ObsSession session(flags);
  LoadedProblem lp(flags, "throughput");
  const int batch = flags.integer("batch", 8);
  const std::unique_ptr<plan::SearchEngine> engine = plan::make_engine(
      flags.text("mapper", "ga"), make_config(flags, flags.has("quick")));
  const plan::PlanResult result = lp.planner.plan(*engine, make_budget(flags));
  const core::MappingEvaluator evaluator(lp.planner.problem());
  const auto throughput = evaluator.evaluate_throughput(result.mapping, batch);
  std::cout << "batch " << batch << ": " << throughput.makespan.millis()
            << " ms total, " << format_double(throughput.images_per_second, 1)
            << " images/s, pipeline speedup "
            << format_double(throughput.pipeline_speedup, 2) << "x\n";
  return 0;
}

/// The tenant mix from repeated `--model name[:weight[:sloMS]]` flags.
/// `slos` holds zero for models without their own objective (they fall
/// back to the shared `--slo`).
struct ModelMix {
  std::vector<std::string> names;
  std::vector<double> weights;
  std::vector<Seconds> slos;
};

/// Parses every `--model` occurrence; the weight and SLO are finite
/// whole-string numbers (util parse_double) with named errors.
ModelMix parse_model_mix(const util::Flags& flags) {
  ModelMix mix;
  for (const std::string& spec : flags.all("model")) {
    const std::vector<std::string> parts = split(spec, ':');
    if (parts.empty() || parts[0].empty() || parts.size() > 3) {
      throw InvalidArgument("bad --model spec '" + spec +
                            "' (use name[:weight[:sloMS]])");
    }
    const std::optional<double> weight =
        parts.size() >= 2 ? parse_double(parts[1]) : std::optional(1.0);
    if (!weight || *weight < 0.0) {
      throw InvalidArgument("bad --model weight in '" + spec +
                            "' (use name[:weight[:sloMS]])");
    }
    const std::optional<double> slo_ms =
        parts.size() == 3 ? parse_double(parts[2]) : std::optional(0.0);
    if (!slo_ms || (parts.size() == 3 && *slo_ms <= 0.0)) {
      throw InvalidArgument("bad --model SLO in '" + spec +
                            "' (use name[:weight[:sloMS]], SLO in ms > 0)");
    }
    mix.names.push_back(parts[0]);
    mix.weights.push_back(*weight);
    mix.slos.push_back(milliseconds(*slo_ms));
  }
  return mix;
}

/// Parses `--shard-models 'a+b/c'`: one '/'-separated entry per shard,
/// each a '+'-separated list of model names resolved against the
/// `--model` mix. Structural validation (entry count, coverage) is
/// FleetOptions' job; this only translates names to fleet indices.
std::vector<std::vector<int>> parse_shard_models(
    const std::string& spec, const std::vector<std::string>& names) {
  std::vector<std::vector<int>> shard_models;
  for (const std::string& shard : split(spec, '/')) {
    std::vector<int> models;
    for (const std::string& name : split(shard, '+')) {
      const auto it = std::find(names.begin(), names.end(), name);
      if (name.empty() || it == names.end()) {
        throw InvalidArgument("--shard-models references '" + name +
                              "', which is not a --model of this fleet");
      }
      models.push_back(static_cast<int>(it - names.begin()));
    }
    shard_models.push_back(std::move(models));
  }
  return shard_models;
}

int cmd_serve(const util::Flags& flags) {
  const ObsSession session(flags);
  ModelMix mix = parse_model_mix(flags);
  if (mix.names.empty()) {
    mix.names = {"resnet34"};
    mix.weights = {1.0};
    mix.slos = {Seconds(0.0)};
  }
  const std::vector<std::string>& names = mix.names;
  const std::vector<double>& weights = mix.weights;

  // --shards N splits the fleet into N identical replica groups. Services
  // are planned once on the group topology (replica groups are copies);
  // the fleet spec from --topology only sets the accelerator budget being
  // divided. Partition notes go to stderr so sharded stdout stays clean.
  const int shards_requested = flags.integer("shards", 1);
  topology::Topology topo = make_topology(flags);
  serve::FleetPartition partition;
  partition.group_accelerators = topo.size();
  if (shards_requested > 1) {
    partition = serve::partition_fleet(topo.size(), shards_requested);
    topo = make_topology(flags, partition.group_accelerators);
    if (partition.clamped) {
      std::clog << "--shards " << shards_requested << " clamped to "
                << partition.shards
                << " (one accelerator per replica group)\n";
    }
    if (partition.unused_accelerators > 0) {
      std::clog << "sharding leaves " << partition.unused_accelerators
                << " accelerator(s) outside the " << partition.shards
                << " replica groups\n";
    }
  }
  const accel::DesignRegistry designs = make_designs(flags);

  // Serving plans one mapping per model up front; default to the quick
  // search budget (--full restores the offline default, --mapper baseline
  // skips the search entirely).
  const core::MarsConfig config = make_config(flags, !flags.has("full"));
  // "mars" stays accepted as an alias of "ga" for old scripts.
  const std::unique_ptr<plan::SearchEngine> engine =
      plan::make_engine(flags.text("mapper", "ga"), config);
  const plan::Budget search_budget = make_budget(flags);

  // Parse every workload spec, read the replay trace and check the fleet
  // layout before the (expensive) per-model planning so usage errors fail
  // fast, before any output.
  const serve::PolicySpec policy =
      serve::PolicySpec::parse(flags.text("policy", "none"));
  serve::SchedulerOptions options;
  options.policy = policy.batch;
  options.admission = policy.admission;
  // Per-model SLOs (from --model name:weight:sloMS) tighten or relax slo:
  // admission per tenant; models without one keep the policy's shared slo.
  options.admission.per_model_slo = mix.slos;
  const Seconds duration = Seconds(flags.number("duration", 5.0));
  const std::uint64_t seed = config.seed;
  const Seconds slo = milliseconds(flags.number("slo", 100.0));
  const double rate = flags.number("rate", 100.0);
  const int clients = flags.integer("clients", 8);
  const Seconds think = milliseconds(flags.number("think", 0.0));
  if (flags.has("clients") &&
      policy.admission.kind != serve::AdmissionPolicy::Kind::kNone &&
      think.count() <= 0.0) {
    throw InvalidArgument("--policy " + policy.admission.to_string() +
                          " with --clients needs --think > 0 ms (a rejected "
                          "client would retry at the same instant forever)");
  }

  serve::FleetOptions fleet_options;
  fleet_options.shards = partition.shards;
  fleet_options.threads = config.threads;
  fleet_options.scheduler = options;
  if (flags.has("shard-models")) {
    fleet_options.shard_models =
        parse_shard_models(flags.text("shard-models"), names);
  }
  serve::check_fleet_options(fleet_options, names);
  const std::vector<serve::Request> replay =
      flags.has("replay")
          ? serve::replay_trace_file(flags.text("replay"), names)
          : std::vector<serve::Request>{};

  // Optional persistent mapping cache: repeat startups on the same
  // (topology, designs, config) load the searched mappings instead of
  // re-running the GA. Provenance goes to stderr so the serving report on
  // stdout stays byte-identical between cold and warm runs.
  const std::optional<serve::MappingCache> cache = open_cache(flags);

  const auto plan_start = std::chrono::steady_clock::now();
  const std::vector<std::unique_ptr<serve::ModelService>> services =
      serve::plan_services(names, topo, designs, !flags.has("fixed"), *engine,
                           cache ? &*cache : nullptr, search_budget);
  const double plan_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    plan_start)
          .count();
  if (cache) {
    int hits = 0;
    for (const std::unique_ptr<serve::ModelService>& service : services) {
      const bool hit = service->mapping_source() ==
                       serve::ModelService::MappingSource::kCacheHit;
      hits += hit ? 1 : 0;
      std::clog << "mapping cache " << (hit ? "hit" : "miss") << ": "
                << service->name() << '\n';
    }
    std::clog << "planned " << services.size() << " service(s) in "
              << format_double(plan_seconds, 3) << " s (" << hits << "/"
              << services.size() << " from cache at " << cache->dir()
              << ")\n";
    std::clog << "mapping cache counters: hits=" << cache->hits()
              << " misses=" << cache->misses()
              << " corrupt=" << cache->corrupt()
              << " stores=" << cache->stores() << '\n';
  }
  std::cout << "Fleet on " << topo.name() << " (" << topo.size()
            << " accelerators, mapper " << engine->name() << "):\n";
  if (partition.shards > 1) {
    std::cout << "Sharding: " << partition.shards << " replica groups x "
              << partition.group_accelerators << " accelerators\n";
  }
  std::cout << serve::describe_fleet(services) << '\n';

  std::vector<const serve::ModelService*> refs;
  refs.reserve(services.size());
  for (const std::unique_ptr<serve::ModelService>& service : services) {
    refs.push_back(service.get());
  }
  const serve::FleetScheduler scheduler(topo, refs, fleet_options);

  serve::ServeResult result;
  if (flags.has("replay")) {
    result = scheduler.run(replay);
  } else if (flags.has("clients")) {
    const serve::ClosedLoopSpec spec =
        serve::make_closed_loop(weights, clients, think);
    result = scheduler.run_closed_loop(spec, duration);
  } else {
    result =
        scheduler.run(serve::poisson_arrivals(weights, rate, duration, seed));
  }
  const serve::ServeMetrics metrics =
      serve::summarize(result, names, slo, mix.slos);
  std::cout << "Workload: policy " << policy.to_string() << ", "
            << result.batches_dispatched << " batches dispatched\n\n"
            << serve::describe(metrics);

  if (flags.has("json")) {
    const std::string path = flags.text("json");
    std::ofstream file(path);
    file << serve::to_json(metrics).dump() << '\n';
    std::cout << "\nwrote " << path << '\n';
  }
  return 0;
}

int cmd_comap(const util::Flags& flags) {
  const ObsSession session(flags);
  const ModelMix mix = parse_model_mix(flags);
  if (mix.names.empty()) {
    throw InvalidArgument(
        "comap needs at least one --model name[:weight[:sloMS]]");
  }

  const topology::Topology topo = make_topology(flags);
  const accel::DesignRegistry designs = make_designs(flags);

  comap::CoMapProblem problem;
  problem.topo = &topo;
  problem.designs = &designs;
  problem.adaptive = !flags.has("fixed");
  for (std::size_t t = 0; t < mix.names.size(); ++t) {
    problem.tenants.push_back(
        comap::Tenant{mix.names[t], mix.weights[t], mix.slos[t]});
  }
  const double rate = flags.number("rate", 150.0);
  const double rollout_ms = flags.number("rollout", 1000.0);
  problem.rollout.rate = rate;
  problem.rollout.duration = milliseconds(rollout_ms);
  problem.rollout.seed = flags.seed("seed", 1);
  problem.rollout.policy =
      serve::PolicySpec::parse(flags.text("policy", "none"));
  problem.rollout.default_slo = milliseconds(flags.number("slo", 100.0));

  comap::CoMapConfig config;
  config.encoding = comap::parse_encoding(flags.text("encoding", "partition"));
  // Rollouts dominate: the inner per-tenant searches default to the quick
  // serving schedule (--full restores the offline default), and --quick
  // additionally shrinks the outer GA for smoke runs.
  config.inner = make_config(flags, !flags.has("full"));
  config.seed = config.inner.seed;
  config.threads = config.inner.threads;
  if (flags.has("quick")) {
    config.ga.population = 8;
    config.ga.generations = 6;
    config.ga.stall_generations = 4;
  }
  const std::optional<serve::MappingCache> cache = open_cache(flags);

  const comap::CoMapEngine engine(config);
  const comap::CoMapResult result =
      engine.search(problem, make_budget(flags), cache ? &*cache : nullptr);
  // Wall-clock provenance goes to stderr: stdout is a pure function of
  // the (deterministic) result, byte-identical at any --threads.
  std::clog << "comap search took "
            << format_double(result.provenance.elapsed.count(), 3) << " s\n";

  std::cout << "Co-mapping " << problem.tenants.size() << " tenant(s) on "
            << topo.name() << " (" << topo.size() << " accelerators, encoding "
            << comap::to_string(config.encoding) << "):\n";
  for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
    const comap::TenantOutcome& tenant = result.tenants[t];
    std::cout << "  " << tenant.model << ": weight "
              << format_double(problem.tenants[t].weight, 2) << ", slo "
              << format_double(problem.slo_of(t).millis(), 1) << " ms, placement "
              << (tenant.placement == 0
                      ? "full fleet"
                      : topology::mask_to_string(tenant.placement));
    if (!tenant.provenance.engine.empty()) {
      std::cout << " (" << tenant.provenance.engine;
      if (tenant.provenance.evaluations > 0) {
        std::cout << ", " << tenant.provenance.evaluations << " evals";
      }
      std::cout << ")";
    }
    std::cout << '\n';
  }
  std::cout << '\n';
  for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
    std::cout << "-- " << problem.tenants[t].model << " --\n"
              << core::describe(result.mappings[t],
                                graph::ConvSpine::extract(
                                    graph::models::by_name(mix.names[t])),
                                designs, problem.adaptive);
  }

  const Seconds duration = problem.rollout.duration;
  const auto report = [&](const char* label,
                          const comap::ServingObjective::Score& score) {
    std::cout << "  " << label << ": goodput "
              << format_double(score.goodput_rps(duration), 1) << " rps ("
              << score.good << "/" << score.offered << " within SLO, "
              << score.rejected << " shed), p99 "
              << format_double(score.p99.millis(), 3) << " ms\n";
  };
  std::cout << "\nRollout objective (rate " << format_double(rate, 1)
            << " rps, " << format_double(rollout_ms, 0) << " ms, seed "
            << problem.rollout.seed << ", policy "
            << problem.rollout.policy.to_string() << "):\n";
  report("joint      ", result.score);
  report("independent", result.independent_score);
  if (result.joint_won) {
    const double gain = result.score.goodput_rps(duration) -
                        result.independent_score.goodput_rps(duration);
    std::cout << "joint co-mapping beats independent planning by "
              << format_double(gain, 1) << " rps ("
              << result.provenance.winner << " encoding won)\n";
  } else {
    std::cout << "independent planning kept (the joint search found no "
                 "strictly better co-mapping)\n";
  }
  std::cout << "search: " << result.provenance.evaluations
            << " evaluations (" << result.rollout_misses << " rollouts, "
            << result.rollout_hits << " memo hits), "
            << result.provenance.iterations << " generations, stopped: "
            << plan::to_string(result.provenance.stopped) << '\n';

  if (flags.has("json")) {
    const std::string path = flags.text("json");
    JsonValue out = JsonValue::object();
    JsonValue tenants = JsonValue::array();
    for (std::size_t t = 0; t < problem.tenants.size(); ++t) {
      JsonValue tenant = JsonValue::object();
      tenant.set("model", JsonValue::string(mix.names[t]));
      tenant.set("weight", JsonValue::number(problem.tenants[t].weight));
      tenant.set("slo_ms", JsonValue::number(problem.slo_of(t).millis()));
      tenant.set("placement", JsonValue::string(topology::mask_to_string(
                                  result.tenants[t].placement)));
      tenant.set("provenance", plan::to_json(result.tenants[t].provenance));
      tenant.set("mapping",
                 core::to_json(result.mappings[t],
                               graph::ConvSpine::extract(
                                   graph::models::by_name(mix.names[t])),
                               designs, problem.adaptive));
      tenants.push(std::move(tenant));
    }
    out.set("tenants", std::move(tenants));
    const auto score_json = [](const comap::ServingObjective::Score& score) {
      JsonValue v = JsonValue::object();
      v.set("fitness", JsonValue::number(score.fitness));
      v.set("offered", JsonValue::integer(score.offered));
      v.set("good", JsonValue::integer(score.good));
      v.set("rejected", JsonValue::integer(score.rejected));
      v.set("p99_ms", JsonValue::number(score.p99.millis()));
      return v;
    };
    out.set("joint", score_json(result.score));
    out.set("independent", score_json(result.independent_score));
    out.set("joint_won", JsonValue::boolean(result.joint_won));
    out.set("provenance", plan::to_json(result.provenance));
    std::ofstream file(path);
    file << out.dump() << '\n';
    std::cout << "wrote " << path << '\n';
  }
  return 0;
}

int cmd_explore(const util::Flags& flags) {
  const ObsSession session(flags);
  explore::ExploreConfig config;
  config.model = bare_model(flags.text("model", "alexnet"), "explore");
  // Both parsers throw InvalidArgument naming the offending axis/value
  // (docs/EXPLORE.md grammar); an absent --space means the default grid.
  config.space = explore::DesignSpace::parse(flags.text("space"));
  config.objectives = explore::parse_objectives(
      flags.text("objectives", "makespan,energy,cost"));
  config.mapper = flags.text("mapper", "ga");
  config.tuning = make_config(flags, flags.has("quick"));
  config.search_evaluations = flags.integer("search-evals", 0);
  config.population = flags.integer("population", 12);
  config.generations = flags.integer("generations", 6);
  config.seed = config.tuning.seed;
  config.threads = config.tuning.threads;
  config.front_size = flags.integer("front-size", 0);
  // Outer budget: distinct hardware points priced and/or wall clock.
  const plan::Budget outer = make_budget(flags, "points");
  const std::optional<serve::MappingCache> cache = open_cache(flags);

  const explore::ExploreEngine engine(config);
  const explore::ExploreResult result =
      engine.search(cache ? &*cache : nullptr, outer);

  // The front, truncated to --front-size, in canonical order. Everything
  // below is a pure function of (model, space, objectives, engine spec):
  // run-specific provenance (elapsed, cache hits) goes to stderr.
  const std::vector<explore::FrontPoint> front =
      result.front.top(config.front_size);
  Table table({"Point", "Makespan(ms)", "Energy(mJ)", "Cost", "Sets"});
  for (const explore::FrontPoint& fp : front) {
    for (const explore::PointOutcome& out : result.outcomes) {
      if (out.point.spec() != fp.key) continue;
      table.add_row({fp.key, format_double(out.makespan_s * 1e3, 3),
                     format_double(out.energy_j * 1e3, 3),
                     format_double(out.cost, 3),
                     std::to_string(out.sets)});
      break;
    }
  }
  std::cout << table.render();
  std::cout << "front: " << front.size() << " points ("
            << result.front.size() << " non-dominated of "
            << result.provenance.evaluations << " priced, "
            << result.provenance.iterations << " generations)\n";

  // Never-lose report: where each fixed-fleet preset landed relative to
  // the front, on the selected objectives.
  for (const explore::PointOutcome& out : result.outcomes) {
    if (!out.point.preset) continue;
    const explore::FrontPoint fp = out.front_point(config.objectives);
    std::string verdict = "on front";
    for (const explore::FrontPoint& member : result.front.points()) {
      if (explore::dominates(member, fp)) {
        verdict = "dominated by " + member.key;
        break;
      }
    }
    std::cout << "preset " << fp.key << ": " << verdict << '\n';
  }

  std::clog << "search: " << result.provenance.evaluations
            << " points priced in "
            << format_double(result.provenance.elapsed.count(), 3)
            << " s, stopped: " << plan::to_string(result.provenance.stopped)
            << ", cache hits: " << result.cache_hits << '\n';

  if (flags.has("csv")) {
    const std::string path = flags.text("csv");
    std::ofstream file(path);
    file << explore::front_csv(result, config);
    std::cout << "wrote " << path << '\n';
  }
  if (flags.has("json")) {
    const std::string path = flags.text("json");
    std::ofstream file(path);
    file << explore::front_json(result, config) << '\n';
    std::cout << "wrote " << path << '\n';
  }
  return 0;
}

int cmd_warm(const util::Flags& flags) {
  const ObsSession session(flags);
  // Accept --models a,b,c and/or repeated --model NAME (bare names; the
  // cache key is per model, weights/SLOs play no part in planning).
  std::vector<std::string> names;
  for (const std::string& name : flags.all("model")) {
    names.push_back(bare_model(name, "warm"));
  }
  for (const std::string& csv : flags.all("models")) {
    for (const std::string& name : split(csv, ',')) {
      if (!name.empty()) names.push_back(bare_model(name, "warm"));
    }
  }
  if (names.empty()) {
    throw InvalidArgument("warm needs --models a,b,c (or repeated --model)");
  }
  const std::string dir = flags.text("mapping-cache");
  if (dir.empty()) {
    throw InvalidArgument("warm needs --mapping-cache DIR (the cache to fill)");
  }

  const topology::Topology topo = make_topology(flags);
  const accel::DesignRegistry designs = make_designs(flags);
  const std::unique_ptr<plan::SearchEngine> engine = plan::make_engine(
      flags.text("mapper", "ga"), make_config(flags, !flags.has("full")));
  const serve::MappingCache cache(dir);

  const std::vector<std::unique_ptr<serve::ModelService>> services =
      serve::plan_services(names, topo, designs, !flags.has("fixed"), *engine,
                           &cache, make_budget(flags));
  for (const std::unique_ptr<serve::ModelService>& service : services) {
    std::cout << "warm " << service->name() << ": "
              << serve::to_string(service->mapping_source()) << '\n';
  }
  std::cout << "cache " << cache.dir() << ": hits=" << cache.hits()
            << " misses=" << cache.misses() << " stores=" << cache.stores()
            << '\n';
  return 0;
}

int usage(std::ostream& os) {
  os << "usage: mars_map "
        "<models|profile|map|baseline|throughput|serve|comap|explore|warm> "
        "[--model NAME] [--topology f1|cloud:<n>:<gbps>|ring:<n>:<gbps>] "
        "[--model-file PATH] "
        "[--mapper ga|anneal|random|baseline|portfolio|race:<m>+<m>[,MS]] "
        "[--search-budget MS] [--search-evals N] [--threads N] "
        "[--seed N] [--quick] [--fixed] [--json PATH] [--batch N] "
        "[--trace FILE.json] [--metrics FILE.json]\n"
        "serve options: --model NAME[:WEIGHT[:SLO_MS]] (repeatable) "
        "--rate RPS --duration S --slo MS "
        "--policy [none|size:N|timeout:MS[:N]][+slo:MS|+shed:N] "
        "--mapper NAME --threads N --shards N --shard-models 'a+b/c' "
        "--mapping-cache DIR --full --replay CSV --clients N --think MS\n"
        "comap options: --model NAME[:WEIGHT[:SLO_MS]] (repeatable) "
        "--encoding partition|interleave --rate RPS --rollout MS --slo MS "
        "--policy SPEC --seed N --threads N --quick --full "
        "--mapping-cache DIR --json PATH\n"
        "explore options: --model NAME --space "
        "'families=clique,ring;accs=2,4;bw=8;menus=full' "
        "--objectives makespan,energy,cost --front-size N "
        "--population N --generations N --points N --search-budget MS "
        "--search-evals N --mapper NAME --seed N --threads N --quick "
        "--mapping-cache DIR --csv PATH --json PATH\n"
        "warm options: --models a,b,c --mapping-cache DIR [--mapper NAME] "
        "[--full] [--threads N]\n"
        "full reference: docs/CLI.md, docs/SEARCH.md, docs/COMAP.md and "
        "docs/OBSERVABILITY.md\n";
  return 1;
}

/// Rows shared by several commands: the system a mapping runs on, the
/// search knobs, and the observability outputs.
const util::FlagTable kProblemFlags = {{"topology", kText}, {"fixed"}};
const util::FlagTable kSearchFlags = {
    {"seed", kSeed},
    {"threads", kInteger, {1, false, util::kMaxThreads}},
    {"search-budget", kNumber, util::at_least(0)},
    {"search-evals", kInteger, util::at_least(0)}};
const util::FlagTable kObsFlags = {{"trace", kText}, {"metrics", kText}};

util::FlagTable rows(std::initializer_list<util::FlagTable> groups) {
  util::FlagTable table;
  for (const util::FlagTable& group : groups) {
    table.insert(table.end(), group.begin(), group.end());
  }
  return table;
}

/// One subcommand: exactly the flags it reads, and its body.
struct Command {
  std::string name;
  util::FlagTable flags;
  int (*run)(const util::Flags&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"models", {}, cmd_models},
      {"profile", {{"model", kText}}, cmd_profile},
      {"map",
       rows({kProblemFlags, kSearchFlags, kObsFlags,
             {{"model", kText}, {"model-file", kText}, {"mapper", kText},
              {"quick"}, {"json", kText}}}),
       cmd_map},
      {"baseline",
       rows({kProblemFlags, {{"model", kText}, {"model-file", kText}}}),
       cmd_baseline},
      {"throughput",
       rows({kProblemFlags, kSearchFlags, kObsFlags,
             {{"model", kText}, {"model-file", kText}, {"mapper", kText},
              {"quick"}, {"batch", kInteger, util::at_least(1)}}}),
       cmd_throughput},
      {"serve",
       rows({kProblemFlags, kSearchFlags, kObsFlags,
             {{"model", kRepeatable}, {"mapper", kText}, {"full"},
              {"mapping-cache", kText}, {"policy", kText},
              {"rate", kNumber, util::above(0)},
              {"duration", kNumber, util::above(0)},
              {"slo", kNumber, util::at_least(0)}, {"replay", kText},
              {"clients", kInteger, util::at_least(1)},
              {"think", kNumber, util::at_least(0)},
              {"shards", kInteger, util::at_least(1)},
              {"shard-models", kText}, {"json", kText, {}, "serve.json"}}}),
       cmd_serve},
      {"comap",
       rows({kProblemFlags, kSearchFlags, kObsFlags,
             {{"model", kRepeatable}, {"quick"}, {"full"},
              {"mapping-cache", kText}, {"encoding", kText}, {"policy", kText},
              {"rate", kNumber, util::above(0)},
              {"rollout", kNumber, util::above(0)},
              {"slo", kNumber, util::above(0)},
              {"json", kText, {}, "comap.json"}}}),
       cmd_comap},
      {"explore",
       rows({kSearchFlags, kObsFlags,
             {{"model", kText}, {"mapper", kText}, {"quick"},
              {"mapping-cache", kText}, {"space", kText},
              {"objectives", kText}, {"csv", kText}, {"json", kText},
              {"population", kInteger, util::at_least(2)},
              {"generations", kInteger, util::at_least(1)},
              {"points", kInteger, util::at_least(0)},
              {"front-size", kInteger, util::at_least(0)}}}),
       cmd_explore},
      {"warm",
       rows({kProblemFlags, kSearchFlags, kObsFlags,
             {{"model", kRepeatable}, {"models", kRepeatable},
              {"mapper", kText}, {"full"}, {"mapping-cache", kText}}}),
       cmd_warm},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc >= 2 ? argv[1] : "";
  if (name == "help" || name == "--help" || name == "-h") {
    usage(std::cout);
    return 0;
  }
  if (name.empty()) return usage(std::cout);
  const auto command =
      std::find_if(commands().begin(), commands().end(),
                   [&](const Command& c) { return c.name == name; });
  if (command == commands().end()) {
    std::cerr << "error: unknown command '" << name << "'\n";
    return usage(std::cerr);
  }
  try {
    const util::Flags flags =
        util::parse_flags(command->flags, {argv + 2, argv + argc});
    if (flags.help()) {
      usage(std::cout);
      return 0;
    }
    return command->run(flags);
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
