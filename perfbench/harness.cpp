// perfbench harness: runs one benchmark workload against the mars library
// and prints one JSON result line (the last line of stdout).
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--tiny] [--threads N] [--trace-out PATH]
//
// Each workload has a set-up phase (repeated before the timed phase and
// after every pass; set-up time is the median) and a timed phase that
// repeats "passes" over a fixed list of units until --seconds have
// elapsed, after one untimed warm-up pass. A unit is one independent job
// (one model to plan, one arrival stream to serve, one co-mapping search);
// run_s is the sum over units of each unit's median host time, so one slow
// pass moves it little. Every unit's deterministic outputs are checked on
// every pass.
//
// With --trace 0 the end-to-end metrics are printed. With --trace 1 the
// passes alternate untraced / traced: traced passes time every call into
// the library in a span recorded here and install obs::MetricsRegistry,
// and the per-layer metrics come from those spans, the library's public
// result fields and the registry counters. Spans inside the library are
// not used. --tiny shrinks every workload for the self-check; --threads
// overrides the workload's execution-only thread count.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mars/accel/profiler.h"
#include "mars/accel/registry.h"
#include "mars/comap/engine.h"
#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/serve/fleet.h"
#include "mars/serve/metrics.h"
#include "mars/serve/service.h"
#include "mars/serve/workload.h"
#include "mars/topology/presets.h"

namespace {

using namespace mars;
using SteadyClock = std::chrono::steady_clock;

// ------------------------------------------------------------ utilities

double since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Independent child seed `k` of the workload seed (splitmix64 finaliser).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + k + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the textual form of deterministic outputs.
class Digest {
 public:
  Digest& add(const std::string& text) {
    for (const unsigned char c : text) {
      hash_ = (hash_ ^ c) * 0x100000001B3ULL;
    }
    hash_ = (hash_ ^ 0xFF) * 0x100000001B3ULL;
    return *this;
  }
  Digest& add(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return add(std::string(buffer));
  }
  Digest& add(long long value) { return add(std::to_string(value)); }
  [[nodiscard]] std::string hex() const {
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// ---------------------------------------------------------------- spans

/// The benchmark's own span recorder. Spans are kept in memory and
/// written as a Chrome trace when the run ends; per-layer timings are sums
/// of span durations by name over a range of recorded spans.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  /// Spans [begin, end) in recording order: one set-up or one pass.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Runs `fn` inside a span named `name`. Timing is always taken (the
  /// caller may need the duration); the span is stored only when on.
  template <typename Fn>
  auto time(const std::string& name, Fn&& fn) {
    const double start = since(origin_);
    const int index = on_ ? static_cast<int>(spans_.size()) : -1;
    if (on_) spans_.push_back({name, start, start, open_});
    const int saved = open_;
    if (on_) open_ = index;
    struct Close {
      Spans* self;
      int index;
      int saved;
      ~Close() {
        self->open_ = saved;
        if (index >= 0) self->spans_[static_cast<std::size_t>(index)].end =
            since(self->origin_);
      }
    } close{this, index, saved};
    return fn();
  }

  void set_on(bool on) { on_ = on; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Sum of span durations per name over `range`.
  [[nodiscard]] std::map<std::string, double> sums(Range range) const {
    std::map<std::string, double> out;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start;
    }
    return out;
  }

  /// Largest single span of `name` over `range`.
  [[nodiscard]] double max(const std::string& name, Range range) const {
    double out = 0.0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      if (spans_[i].name == name) {
        out = std::max(out, spans_[i].end - spans_[i].start);
      }
    }
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write trace to " + path);
    file << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      file << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << span.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << span.start * 1e6 << ",\"dur\":" << (span.end - span.start) * 1e6
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
           << "}}";
    }
    file << "\n]}\n";
  }

 private:
  SteadyClock::time_point origin_ = SteadyClock::now();
  std::vector<Span> spans_;
  bool on_ = true;
  int open_ = -1;
};

// ------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int threads = 0;  // 0 = the workload's own count
  std::string trace_out;
};

/// What one execution of a unit returns: its deterministic outputs (the
/// digest input and the quality numbers) and the checks it failed.
struct UnitOutput {
  double seconds = 0.0;  // host time of the job alone, checks excluded
  std::string digest;
  std::vector<std::string> failures;
  std::map<std::string, double> quality;  // deterministic, per unit
  std::map<std::string, double> counts;   // exact work counts, per unit
};

/// One benchmark workload: set-up, a list of units, and the end-to-end
/// quality metrics derived from the units' outputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input; called several times, the last one is kept.
  virtual void setup(Spans& spans) = 0;
  [[nodiscard]] virtual int units() const = 0;
  [[nodiscard]] virtual std::string unit_name(int unit) const = 0;
  [[nodiscard]] virtual UnitOutput run_unit(int unit, Spans& spans) = 0;
  /// End-to-end quality metrics from the first pass's outputs.
  [[nodiscard]] virtual std::map<std::string, double> quality(
      const std::vector<UnitOutput>& outputs) const = 0;
  /// Checks on the set-up's own outputs (run once, untimed).
  [[nodiscard]] virtual std::vector<std::string> check_setup() const {
    return {};
  }
};

void check(std::vector<std::string>& failures, bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

/// Validates a mapping against its problem; returns the failure or "".
std::string mapping_problem(const core::Mapping& mapping,
                            const core::Problem& problem,
                            const core::EvaluationSummary& summary) {
  try {
    mapping.validate(*problem.spine, *problem.topo, *problem.designs,
                     problem.adaptive);
  } catch (const std::exception& error) {
    return std::string("invalid mapping: ") + error.what();
  }
  if (!summary.memory_ok) return "mapping exceeds accelerator memory";
  return "";
}

/// The quick search budget `mars_map serve` and `comap` use by default.
void use_quick_budget(core::MarsConfig& config) {
  config.first_ga.population = 12;
  config.first_ga.generations = 8;
  config.second.ga.population = 8;
  config.second.ga.generations = 6;
}

std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ---- map-zoo: Table III plus the largest spine, planned one after another

class MapZoo final : public Workload {
 public:
  MapZoo(const Options& options)
      : topo_(topology::f1_16xlarge()), designs_(accel::table2_designs()) {
    models_ = options.tiny
                  ? std::vector<std::string>{"alexnet", "resnet34"}
                  : std::vector<std::string>{"alexnet",   "vgg16",
                                             "resnet34",  "resnet101",
                                             "wrn50_2",   "resnet152"};
    // Unit i plans model i % models with GA seed i: kSeedsPerModel
    // independent searches per model.
    const std::size_t units = models_.size() * (options.tiny ? 1 : kSeedsPerModel);
    for (std::size_t i = 0; i < units; ++i) {
      core::MarsConfig config;
      config.seed = sub_seed(options.seed, i);
      config.threads = options.threads > 0 ? options.threads : 1;
      if (options.tiny) use_quick_budget(config);
      engines_.emplace_back(config);
    }
  }

  void setup(Spans& spans) override {
    planners_.clear();
    for (const std::string& model : models_) {
      planners_.push_back(spans.time("graph.build", [&] {
        return plan::Planner::for_model(model, topo_, designs_);
      }));
      const plan::Planner& planner = planners_.back();
      spans.time("accel.profile", [&] { return &planner.profile(); });
    }
  }

  [[nodiscard]] int units() const override {
    return static_cast<int>(engines_.size());
  }
  [[nodiscard]] std::string unit_name(int unit) const override {
    const auto u = static_cast<std::size_t>(unit);
    return models_[u % models_.size()] + "#" +
           std::to_string(u / models_.size());
  }

  UnitOutput run_unit(int unit, Spans& spans) override {
    const auto u = static_cast<std::size_t>(unit);
    const std::string model = unit_name(unit);
    const plan::Planner& planner = planners_[u % planners_.size()];
    const auto start = SteadyClock::now();
    const plan::PlanResult result = spans.time(
        "plan.search", [&] { return planner.plan(engines_[u]); });
    const core::Mapping baseline = spans.time("core.baseline", [&] {
      return core::baseline_mapping(planner.problem(), planner.profile());
    });
    const core::MappingEvaluator evaluator(planner.problem());
    const core::EvaluationSummary base = spans.time(
        "core.evaluate", [&] { return evaluator.evaluate(baseline); });

    UnitOutput out;
    out.seconds = since(start);
    for (const auto& [mapping, summary] :
         {std::pair{&result.mapping, &result.summary},
          std::pair{&baseline, &base}}) {
      const std::string problem =
          mapping_problem(*mapping, planner.problem(), *summary);
      check(out.failures, problem.empty(), model + ": " + problem);
    }
    const double ga_ms = result.summary.simulated.millis();
    const double base_ms = base.simulated.millis();
    check(out.failures, ga_ms > 0.0 && base_ms > 0.0,
          model + ": non-positive simulated latency");
    out.quality["ga_ms"] = ga_ms;
    out.quality["reduction_pct"] = (1.0 - ga_ms / base_ms) * 100.0;
    out.counts["plan.evals"] =
        static_cast<double>(result.provenance.evaluations);
    out.digest = Digest()
                     .add(core::describe(result.mapping, planner.spine(),
                                         designs_, true))
                     .add(ga_ms)
                     .add(base_ms)
                     .add(result.provenance.evaluations)
                     .hex();
    return out;
  }

  /// Mean reduction over the models. Goodput is that of one closed-loop
  /// client running each mapped model once in turn: the inferences per
  /// simulated second that meet the 100 ms objective.
  std::map<std::string, double> quality(
      const std::vector<UnitOutput>& outputs) const override {
    double reduction = 0.0;
    double total_ms = 0.0;
    int good = 0;
    for (const UnitOutput& out : outputs) {
      const double ms = out.quality.at("ga_ms");
      reduction += out.quality.at("reduction_pct");
      total_ms += ms;
      good += ms <= kSloMs ? 1 : 0;
    }
    return {{"latency_reduction_pct", reduction / outputs.size()},
            {"goodput_rps", good / (total_ms / 1000.0)}};
  }

 private:
  static constexpr double kSloMs = 100.0;
  static constexpr std::size_t kSeedsPerModel = 2;
  topology::Topology topo_;
  accel::DesignRegistry designs_;
  std::vector<std::string> models_;
  std::vector<plan::GaEngine> engines_;
  std::vector<plan::Planner> planners_;
};

// ---- serve-overload / serve-steady: open-loop Poisson streams at D and 2D
//
// A stream is served twice: its first `requests` arrivals (simulated
// duration D ~= requests / rate) and its first 2 x `requests` (2D). Fixing
// the request count rather than the duration keeps the backlog an
// overloaded fleet accumulates, and with it the work, from swinging with
// the Poisson count of each stream.

struct ServeSpec {
  std::string name;
  bool sharded = false;   // cloud fleet split into replica groups
  double rate = 200.0;    // requests per simulated second
  int requests = 100;     // arrivals in the D run; the 2D run has twice as many
  int streams = 1;        // independent arrival streams per pass
  int threads = 1;
  double slo_ms = 100.0;  // <= 0: goodput counts every completion
};

/// The fleet is planned the way `mars_map serve` plans it by default (quick
/// GA budget, GA seed 1), so it is the same for every workload seed: the GA
/// breaks latency ties by seed, and the placements it picks change the
/// fleet's capacity several-fold. The workload seed drives the arrivals.
class Serve final : public Workload {
 public:
  // Sharded: cloud:16:4 split into four replica groups of four accelerators.
  Serve(const ServeSpec& spec, const Options& options)
      : spec_(spec),
        seed_(options.seed),
        threads_(options.threads > 0 ? options.threads : spec.threads),
        topo_(spec.sharded ? topology::h2h_cloud(4, gbps(4.0))
                           : topology::f1_16xlarge()),
        designs_(accel::table2_designs()),
        engine_(fleet_config(threads_)) {}

  void setup(Spans& spans) override {
    scheduler_.reset();
    single_.reset();
    services_ = spans.time("serve.plan_services", [&] {
      return serve::plan_services(names_, topo_, designs_, true, engine_);
    });
    arrivals_.clear();
    const auto wanted = static_cast<std::size_t>(2 * spec_.requests);
    for (int k = 0; k < spec_.streams; ++k) {
      const std::uint64_t seed = sub_seed(seed_, static_cast<std::uint64_t>(k));
      // 3x the expected span of 2 x `requests` arrivals; doubled in the
      // (vanishingly rare) case it still holds too few.
      double span = 3.0 * static_cast<double>(wanted) / spec_.rate;
      std::vector<serve::Request> stream;
      while (stream.size() < wanted) {
        stream = spans.time("serve.arrivals", [&] {
          return serve::poisson_arrivals({1.0, 1.0}, spec_.rate, Seconds(span),
                                         seed);
        });
        span *= 2.0;
      }
      stream.resize(wanted);
      arrivals_.emplace_back(stream.begin(), stream.begin() + spec_.requests);
      arrivals_.push_back(std::move(stream));
    }
    std::vector<const serve::ModelService*> refs;
    for (const auto& service : services_) refs.push_back(service.get());
    if (spec_.sharded) {
      serve::FleetOptions fleet;
      fleet.shards = 4;
      fleet.threads = threads_;
      scheduler_ = std::make_unique<serve::FleetScheduler>(topo_, refs, fleet);
    } else {
      single_ = std::make_unique<serve::OnlineScheduler>(topo_, refs);
    }
  }

  [[nodiscard]] int units() const override { return spec_.streams; }
  [[nodiscard]] std::string unit_name(int unit) const override {
    return "stream" + std::to_string(unit);
  }

  UnitOutput run_unit(int unit, Spans& spans) override {
    UnitOutput out;
    Digest digest;
    const Seconds slo = milliseconds(spec_.slo_ms);
    for (int half = 0; half < 2; ++half) {
      const std::vector<serve::Request>& arrivals =
          arrivals_[static_cast<std::size_t>(2 * unit + half)];
      const char* span = half == 0 ? "serve.run.D" : "serve.run.2D";
      const auto start = SteadyClock::now();
      const serve::ServeResult result = spans.time(span, [&] {
        return single_ ? single_->run(arrivals) : scheduler_->run(arrivals);
      });
      const serve::ServeMetrics metrics = spans.time(
          "serve.summarize", [&] { return serve::summarize(result, names_, slo); });
      out.seconds += since(start);

      const std::string label = spec_.name + " " + unit_name(unit) +
                                (half == 0 ? " D" : " 2D") + ": ";
      check(out.failures,
            result.completed.size() + result.rejected.size() == arrivals.size(),
            label + "completed + rejected != offered");
      check(out.failures, result.tasks_executed > 0,
            label + "no tasks executed");
      check(out.failures,
            std::all_of(result.completed.begin(), result.completed.end(),
                        [](const serve::CompletedRequest& done) {
                          return done.completion >= done.request.arrival;
                        }),
            label + "a completion precedes its arrival");
      out.counts["serve.tasks"] += static_cast<double>(result.tasks_executed);
      digest.add(static_cast<long long>(result.completed.size()))
          .add(result.tasks_executed)
          .add(result.horizon.count())
          .add(metrics.latency.p99.count())
          .add(metrics.goodput_rps);
      if (half == 1) {
        out.quality["goodput_rps"] = metrics.goodput_rps;
        out.quality["p99_ms"] = metrics.latency.p99.millis();
      }
    }
    out.digest = digest.hex();
    return out;
  }

  std::map<std::string, double> quality(
      const std::vector<UnitOutput>& outputs) const override {
    double goodput = 0.0;
    double p99 = 0.0;
    for (const UnitOutput& out : outputs) {
      goodput += out.quality.at("goodput_rps");
      p99 += out.quality.at("p99_ms");
    }
    const auto n = static_cast<double>(outputs.size());
    return {{"latency_reduction_pct", reduction_pct()},
            {"goodput_rps", goodput / n},
            {"serve.p99_ms", p99 / n}};
  }

  std::vector<std::string> check_setup() const override {
    std::vector<std::string> failures;
    for (const auto& service : services_) {
      const core::MappingEvaluator evaluator(service->problem());
      const std::string problem = mapping_problem(
          service->mapping(), service->problem(),
          evaluator.evaluate(service->mapping()));
      check(failures, problem.empty(), service->name() + ": " + problem);
    }
    return failures;
  }

 private:
  static core::MarsConfig fleet_config(int threads) {
    core::MarsConfig config;
    config.threads = threads;
    use_quick_budget(config);
    return config;
  }

  /// Mean simulated-latency reduction of the served mappings vs baseline.
  [[nodiscard]] double reduction_pct() const {
    double sum = 0.0;
    for (const auto& service : services_) {
      const core::Problem& problem = service->problem();
      const accel::ProfileMatrix profile(*problem.designs, *problem.spine);
      const core::MappingEvaluator evaluator(problem);
      const double base =
          evaluator.evaluate(core::baseline_mapping(problem, profile))
              .simulated.count();
      const double served = evaluator.evaluate(service->mapping()).simulated.count();
      sum += (1.0 - served / base) * 100.0;
    }
    return sum / static_cast<double>(services_.size());
  }

  ServeSpec spec_;
  std::uint64_t seed_;
  int threads_;
  topology::Topology topo_;
  accel::DesignRegistry designs_;
  std::vector<std::string> names_{"facebagnet", "resnet50"};
  plan::GaEngine engine_;
  std::vector<std::unique_ptr<serve::ModelService>> services_;
  std::vector<std::vector<serve::Request>> arrivals_;
  std::unique_ptr<serve::FleetScheduler> scheduler_;
  std::unique_ptr<serve::OnlineScheduler> single_;
};

// ---- comap-contended: joint co-mapping of a contended tenant pair

class CoMap final : public Workload {
 public:
  CoMap(const Options& options)
      : topo_(topology::f1_16xlarge()), designs_(accel::table2_designs()) {
    searches_ = options.tiny ? 1 : kSearches;
    const int threads = options.threads > 0 ? options.threads : 2;
    for (int k = 0; k < searches_; ++k) {
      const std::uint64_t seed =
          sub_seed(options.seed, static_cast<std::uint64_t>(k));
      comap::CoMapConfig config;
      config.seed = seed;
      config.threads = threads;
      // `mars_map comap --quick`: quick inner searches, small outer GA.
      use_quick_budget(config.inner);
      config.inner.seed = seed;
      config.inner.threads = threads;
      config.ga.population = 8;
      config.ga.generations = 6;
      config.ga.stall_generations = 4;
      engines_.emplace_back(config);
      comap::CoMapProblem problem;
      problem.topo = &topo_;
      problem.designs = &designs_;
      problem.adaptive = true;
      for (const char* model : {"facebagnet", "resnet50"}) {
        problem.tenants.push_back(comap::Tenant{model, 1.0, Seconds(0.0)});
      }
      problem.rollout.rate = 150.0;
      problem.rollout.duration = milliseconds(options.tiny ? 100.0 : 250.0);
      problem.rollout.seed = seed;
      problems_.push_back(problem);
    }
  }

  void setup(Spans& spans) override {
    planners_.clear();
    for (const comap::Tenant& tenant : problems_.front().tenants) {
      planners_.push_back(spans.time("graph.build", [&] {
        return plan::Planner::for_model(tenant.model, topo_, designs_);
      }));
      const plan::Planner& planner = planners_.back();
      spans.time("accel.profile", [&] { return &planner.profile(); });
    }
  }

  [[nodiscard]] int units() const override { return searches_; }
  [[nodiscard]] std::string unit_name(int unit) const override {
    return "search" + std::to_string(unit);
  }

  UnitOutput run_unit(int unit, Spans& spans) override {
    const auto u = static_cast<std::size_t>(unit);
    const comap::CoMapProblem& problem = problems_[u];
    const auto start = SteadyClock::now();
    const comap::CoMapResult result = spans.time(
        "comap.search", [&] { return engines_[u].search(problem); });

    UnitOutput out;
    out.seconds = since(start);
    const Seconds duration = problem.rollout.duration;
    const std::string label = "comap " + unit_name(unit) + ": ";
    check(out.failures,
          result.score.goodput_rps(duration) >=
              result.independent_score.goodput_rps(duration),
          label + "joint goodput below the independent plan's");
    check(out.failures, result.mappings.size() == planners_.size(),
          label + "one mapping per tenant expected");
    Digest digest;
    double reduction = 0.0;
    for (std::size_t t = 0; t < result.mappings.size() && t < planners_.size();
         ++t) {
      // Price each tenant's mapping against the baseline confined to the
      // same fleet slice.
      const plan::Planner& planner = planners_[t];
      core::Problem placed = planner.problem();
      placed.placement = result.tenants[t].placement;
      const core::MappingEvaluator evaluator(placed);
      const core::EvaluationSummary summary =
          evaluator.evaluate(result.mappings[t]);
      const std::string bad = mapping_problem(result.mappings[t], placed, summary);
      check(out.failures, bad.empty(),
            label + problem.tenants[t].model + ": " + bad);
      const double base =
          evaluator.evaluate(core::baseline_mapping(placed, planner.profile()))
              .simulated.count();
      reduction += (1.0 - summary.simulated.count() / base) * 100.0;
      digest.add(core::describe(result.mappings[t], planner.spine(), designs_, true))
          .add(static_cast<long long>(result.tenants[t].placement));
    }
    out.quality["reduction_pct"] =
        reduction / static_cast<double>(result.mappings.size());
    out.quality["goodput_rps"] = result.score.goodput_rps(duration);
    out.quality["p99_ms"] = result.score.p99.millis();
    out.counts["comap.rollouts"] = static_cast<double>(result.rollout_misses);
    out.counts["comap.rollout_hits"] = static_cast<double>(result.rollout_hits);
    out.digest = digest.add(result.score.fitness)
                     .add(result.independent_score.fitness)
                     .add(result.rollout_misses)
                     .add(result.rollout_hits)
                     .hex();
    return out;
  }

  std::map<std::string, double> quality(
      const std::vector<UnitOutput>& outputs) const override {
    // Reduction and p99 cluster on a few winners with rare outliers, so
    // they take the median; goodput is spread evenly, so it takes the mean.
    std::map<std::string, std::vector<double>> values;
    for (const UnitOutput& out : outputs) {
      for (const auto& [key, value] : out.quality) values[key].push_back(value);
    }
    const std::vector<double>& goodput = values["goodput_rps"];
    double goodput_sum = 0.0;
    for (const double g : goodput) goodput_sum += g;
    return {{"latency_reduction_pct", median(values["reduction_pct"])},
            {"goodput_rps", goodput_sum / static_cast<double>(goodput.size())},
            {"comap.p99_ms", median(values["p99_ms"])}};
  }

 private:
  static constexpr int kSearches = 8;
  topology::Topology topo_;
  accel::DesignRegistry designs_;
  int searches_ = 1;
  std::vector<comap::CoMapEngine> engines_;
  std::vector<comap::CoMapProblem> problems_;
  std::vector<plan::Planner> planners_;
};

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "map-zoo") return std::make_unique<MapZoo>(options);
  if (options.workload == "serve-overload") {
    // At 1.7x capacity only the first requests of a stream meet 100 ms,
    // so goodput counts every completion: the saturated fleet's rate.
    ServeSpec spec{.name = "serve-overload",
                   .rate = 200.0,
                   .requests = options.tiny ? 20 : 50,
                   .streams = options.tiny ? 1 : 16,
                   .slo_ms = 0.0};
    return std::make_unique<Serve>(spec, options);
  }
  if (options.workload == "serve-steady") {
    ServeSpec spec{.name = "serve-steady",
                   .sharded = true,
                   .rate = 200.0,
                   .requests = options.tiny ? 40 : 400,
                   .streams = options.tiny ? 1 : 4,
                   .threads = 2};
    return std::make_unique<Serve>(spec, options);
  }
  if (options.workload == "comap-contended") {
    return std::make_unique<CoMap>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

// ------------------------------------------------------------------ main

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--trace") {
      options.trace = value() != "0";
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--threads") {
      options.threads = std::stoi(value());
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  if (options.workload.empty()) throw std::invalid_argument("--workload needs a name");
  return options;
}

struct Metric {
  double value;
  const char* unit;
};

/// Peak resident set of this process (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries it over from the parent across execve.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double ratio(long long hits, long long misses) {
  return hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
}

// Set-up runs kFirstSetups times (and for at least kFirstSetupSeconds)
// before the timed phase, then again after every pass, so its median
// samples the same stretch of host time as run_s. Repeats stop early at
// kMaxSetupsPerRound for set-ups far below a millisecond.
constexpr std::size_t kFirstSetups = 3;
constexpr double kFirstSetupSeconds = 0.25;
constexpr double kPassSetupSeconds = 0.05;
constexpr std::size_t kMaxSetupsPerRound = 500;

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  Spans spans;

  // Set-up time and the per-layer set-up timings are medians over every
  // set-up of the run.
  std::vector<double> setup_times;
  std::map<std::string, std::vector<double>> setup_layers;
  const auto set_up = [&](std::size_t min_reps, double min_seconds) {
    spans.set_on(true);
    const auto round_start = SteadyClock::now();
    for (std::size_t rep = 0;
         rep < min_reps ||
         (since(round_start) < min_seconds && rep < kMaxSetupsPerRound);
         ++rep) {
      const std::size_t first_span = spans.size();
      const auto start = SteadyClock::now();
      workload->setup(spans);
      setup_times.push_back(since(start));
      for (const auto& [name, seconds] :
           spans.sums({first_span, spans.size()})) {
        setup_layers[name].push_back(seconds);
      }
    }
  };
  set_up(kFirstSetups, kFirstSetupSeconds);

  std::vector<std::string> failures;
  long long attempted = 0;
  long long failed = 0;
  {
    const std::vector<std::string> setup_failures = workload->check_setup();
    ++attempted;
    failed += setup_failures.empty() ? 0 : 1;
    failures.insert(failures.end(), setup_failures.begin(),
                    setup_failures.end());
  }

  // Timed phase: passes over every unit until the time is spent. Pass 0
  // warms caches and the allocator and is checked but not timed. In trace
  // mode the timed passes alternate untraced / traced, and at least one of
  // each kind runs.
  const int n = workload->units();
  std::vector<UnitOutput> first(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> unit_times(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> traced_unit_times(static_cast<std::size_t>(n));
  std::vector<Spans::Range> traced_passes;
  obs::MetricsRegistry registry;
  const auto phase_start = SteadyClock::now();
  double last_pass = 0.0;
  for (int pass = 0;; ++pass) {
    const bool warm_up = pass == 0;
    const bool traced = options.trace && !warm_up && pass % 2 == 0;
    const int min_passes = options.trace ? 3 : 2;
    if (pass >= min_passes &&
        since(phase_start) + 0.5 * last_pass >= options.seconds) {
      break;
    }
    spans.set_on(traced);
    const std::size_t first_span = spans.size();
    if (traced) obs::install_metrics(&registry);
    const auto pass_start = SteadyClock::now();
    std::vector<double> pass_times;
    for (int u = 0; u < n; ++u) {
      UnitOutput out = workload->run_unit(u, spans);
      pass_times.push_back(out.seconds);
      if (!warm_up) {
        (traced ? traced_unit_times : unit_times)[static_cast<std::size_t>(u)]
            .push_back(out.seconds);
      }
      ++attempted;
      UnitOutput& reference = first[static_cast<std::size_t>(u)];
      if (pass == 0) {
        reference = out;
        std::cout << "digest " << options.workload << " "
                  << workload->unit_name(u) << " " << out.digest;
        for (const auto& [key, value] : out.quality) {
          std::cout << " " << key << "=" << fmt(value);
        }
        std::cout << '\n';
      } else if (out.digest != reference.digest) {
        out.failures.push_back(workload->unit_name(u) +
                               ": output differs between passes");
      }
      if (!out.failures.empty()) ++failed;
      failures.insert(failures.end(), out.failures.begin(), out.failures.end());
    }
    last_pass = since(pass_start);
    std::cerr << "pass " << pass << (warm_up ? " warm-up" : "")
              << (traced ? " traced" : "") << ": " << fmt(last_pass)
              << " s; units:";
    for (const double seconds : pass_times) std::cerr << " " << fmt(seconds);
    std::cerr << '\n';
    if (traced) {
      obs::install_metrics(nullptr);
      traced_passes.push_back({first_span, spans.size()});
    }
    set_up(1, kPassSetupSeconds);
  }
  for (const std::string& failure : failures) {
    std::cerr << "check failed: " << failure << '\n';
  }

  const auto run_s = [&](const std::vector<std::vector<double>>& times) {
    double total = 0.0;
    for (const std::vector<double>& t : times) total += median(t);
    return total;
  };
  const std::map<std::string, double> quality = workload->quality(first);
  const auto quality_or_zero = [&](const std::string& name) {
    const auto it = quality.find(name);
    return it == quality.end() ? 0.0 : it->second;
  };
  std::map<std::string, Metric> metrics;
  if (!options.trace) {
    metrics.emplace("setup_s", Metric{median(setup_times), "s"});
    metrics.emplace("run_s", Metric{run_s(unit_times), "s"});
    metrics.emplace("peak_rss_mb", Metric{peak_rss_mb(), "MB"});
    metrics.emplace("latency_reduction_pct",
                     Metric{quality.at("latency_reduction_pct"), "%"});
    metrics.emplace("goodput_rps", Metric{quality.at("goodput_rps"), "1/s"});
  } else {
    // Per-layer: per traced pass sums, then the median over traced passes.
    const auto layer = [&](const std::string& name) {
      std::vector<double> per_pass;
      for (const Spans::Range pass : traced_passes) {
        const std::map<std::string, double> sums = spans.sums(pass);
        const auto it = sums.find(name);
        per_pass.push_back(it == sums.end() ? 0.0 : it->second);
      }
      return median(per_pass);
    };
    const auto setup_layer = [&](const std::string& name) {
      const auto it = setup_layers.find(name);
      return it == setup_layers.end() ? 0.0 : median(it->second);
    };
    const auto count = [&](const std::string& name) {
      double total = 0.0;
      for (const UnitOutput& out : first) {
        const auto it = out.counts.find(name);
        if (it != out.counts.end()) total += it->second;
      }
      return total;
    };
    std::vector<double> search_max;
    for (const Spans::Range pass : traced_passes) {
      search_max.push_back(spans.max("plan.search", pass));
    }
    const double search_s = layer("plan.search");
    const double evals = count("plan.evals");
    const double serve_d = layer("serve.run.D");
    const double serve_2d = layer("serve.run.2D");
    const double serve_run = serve_d + serve_2d;
    const double tasks = count("serve.tasks");
    const double comap_s = layer("comap.search");
    const double rollouts = count("comap.rollouts");
    const double untraced = run_s(unit_times);
    const double traced = run_s(traced_unit_times);

    metrics = {
        {"graph.build_s", {setup_layer("graph.build"), "s"}},
        {"accel.profile_s", {setup_layer("accel.profile"), "s"}},
        {"plan.search_s", {search_s, "s"}},
        {"plan.search_max_s", {median(search_max), "s"}},
        {"plan.evals", {evals, "count"}},
        {"plan.evals_per_s", {search_s > 0 ? evals / search_s : 0.0, "1/s"}},
        {"search.memo_hit_ratio",
         {ratio(registry.counter_value("search.space.memo.hits"),
                registry.counter_value("search.space.memo.misses")),
          "ratio"}},
        {"search.records_hit_ratio",
         {ratio(registry.counter_value("search.space.records.hits"),
                registry.counter_value("search.space.records.misses")),
          "ratio"}},
        {"core.baseline_s", {layer("core.baseline"), "s"}},
        {"core.evaluate_s", {layer("core.evaluate"), "s"}},
        {"serve.plan_services_s", {setup_layer("serve.plan_services"), "s"}},
        {"serve.arrivals_s", {setup_layer("serve.arrivals"), "s"}},
        {"serve.run_s", {serve_run, "s"}},
        {"serve.tasks", {tasks, "count"}},
        {"serve.us_per_task", {tasks > 0 ? serve_run / tasks * 1e6 : 0.0, "us"}},
        {"serve.summarize_s", {layer("serve.summarize"), "s"}},
        {"serve.p99_ms", {quality_or_zero("serve.p99_ms"), "ms"}},
        {"serve.growth_exp",
         {serve_d > 0 ? std::log2(serve_2d / serve_d) : 0.0, "ratio"}},
        {"comap.search_s", {comap_s, "s"}},
        {"comap.rollouts", {rollouts, "count"}},
        {"comap.rollout_hit_ratio",
         {ratio(static_cast<long long>(count("comap.rollout_hits")),
                static_cast<long long>(rollouts)),
          "ratio"}},
        {"comap.proto_hit_ratio",
         {ratio(registry.counter_value("comap.proto.hits"),
                registry.counter_value("comap.proto.misses")),
          "ratio"}},
        {"comap.p99_ms", {quality_or_zero("comap.p99_ms"), "ms"}},
        {"comap.ms_per_rollout",
         {rollouts > 0 ? comap_s / rollouts * 1e3 : 0.0, "ms"}},
        {"obs.overhead_s", {traced - untraced, "s"}},
    };
    if (!options.trace_out.empty()) spans.write_chrome_trace(options.trace_out);
  }

  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& [name, metric] : metrics) {
    line << (first_metric ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << fmt(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first_metric = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << '\n';
    return 2;
  }
}
