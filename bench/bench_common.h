// Shared plumbing for the experiment harnesses: budget presets, CLI flags
// (--quick for smoke runs, --csv to emit machine-readable results, --seed,
// plus each bench's own switches), and GA searches with their memo counts.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mars/accel/registry.h"
#include "mars/core/baseline.h"
#include "mars/core/evaluator.h"
#include "mars/core/h2h.h"
#include "mars/core/mars.h"
#include "mars/graph/models/models.h"
#include "mars/obs/metrics.h"
#include "mars/plan/engines.h"
#include "mars/plan/planner.h"
#include "mars/topology/presets.h"
#include "mars/util/csv.h"
#include "mars/util/flags.h"
#include "mars/util/strings.h"
#include "mars/util/table.h"

namespace mars::bench {

struct Options {
  bool quick = false;
  std::optional<std::string> csv_path;
  std::uint64_t seed = 1;
  /// The bench's own switches (parse_options' `switches`) that were given.
  std::set<std::string> switches;
};

/// Parses the shared flags plus `switches`, the bench's own valueless
/// flags (e.g. "--smoke"), with util::parse_flags. --help prints the usage
/// line and exits 0; any usage error (an unknown flag, a missing --csv
/// path, a --seed that is not a whole decimal uint64) prints the error and
/// the usage line and exits 1.
inline Options parse_options(int argc, char** argv,
                             const std::vector<std::string>& switches = {}) {
  std::string usage = std::string("usage: ") + argv[0] +
                      " [--quick] [--csv <path>] [--seed <n>]";
  util::FlagTable table = {{"quick"},
                           {"csv", util::FlagKind::kText},
                           {"seed", util::FlagKind::kSeed}};
  for (const std::string& name : switches) {
    usage += " [" + name + "]";
    table.push_back({name.substr(2)});
  }
  Options options;
  try {
    const util::Flags flags = util::parse_flags(table, {argv + 1, argv + argc});
    if (flags.help()) {
      std::cout << usage << '\n';
      std::exit(0);
    }
    options.quick = flags.has("quick");
    if (flags.has("csv")) options.csv_path = flags.text("csv");
    options.seed = flags.seed("seed", 1);
    for (const std::string& name : switches) {
      if (flags.has(name.substr(2))) options.switches.insert(name);
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << '\n' << usage << '\n';
    std::exit(1);
  }
  return options;
}

/// Search budgets: default reproduces the paper-style sweep; --quick is a
/// smoke-test budget.
inline core::MarsConfig mars_config(const Options& options) {
  core::MarsConfig config;
  config.seed = options.seed;
  if (options.quick) {
    config.first_ga.population = 12;
    config.first_ga.generations = 8;
    config.first_ga.stall_generations = 4;
    config.second.ga.population = 8;
    config.second.ga.generations = 6;
  } else {
    config.first_ga.population = 24;
    config.first_ga.generations = 24;
    config.first_ga.stall_generations = 8;
    config.second.ga.population = 16;
    config.second.ga.generations = 14;
    config.second.ga.stall_generations = 6;
  }
  return config;
}

/// The default serving/search engine at the bench budget: the two-level
/// GA. Pass a different name ("anneal" | "random" | "baseline") to
/// compare engines under the same tuning.
inline std::unique_ptr<plan::SearchEngine> bench_engine(
    const Options& options, const std::string& name = "ga") {
  return plan::make_engine(name, mars_config(options));
}

/// A GA search plus the second-level memo counters it flushed
/// (`search.space.memo.hits` / `.misses`).
struct GaSearch {
  plan::PlanResult result;
  long long memo_hits = 0;
  long long memo_misses = 0;
};

/// Runs plan::GaEngine(config) on `planner` with a metrics registry
/// installed for the search, and reads the memo counters from it.
inline GaSearch ga_search(const plan::Planner& planner,
                          const core::MarsConfig& config) {
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::install_metrics(&registry);
  GaSearch search{planner.plan(plan::GaEngine(config))};
  obs::install_metrics(previous);
  search.memo_hits = registry.counter_value("search.space.memo.hits");
  search.memo_misses = registry.counter_value("search.space.memo.misses");
  return search;
}

inline void maybe_write_csv(const Options& options,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  if (!options.csv_path) return;
  std::ofstream file(*options.csv_path);
  CsvWriter csv(file, header);
  for (const auto& row : rows) csv.add_row(row);
  std::cout << "wrote " << rows.size() << " rows to " << *options.csv_path
            << '\n';
}

}  // namespace mars::bench
