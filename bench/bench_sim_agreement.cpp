// Validation A4 — analytical cost model vs event-driven simulator.
// The GA climbs the closed-form model; the tables report the simulator.
// This harness quantifies the gap (error distribution + ranking agreement)
// across a randomized sweep of mappings, per model.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "mars/util/rng.h"

namespace mars::bench {
namespace {

core::Mapping random_mapping(const plan::Planner& planner, Rng& rng) {
  const int n = planner.spine().size();
  const std::vector<topology::AccSetCandidate> candidates =
      topology::accset_candidates(planner.topology());
  std::vector<double> priorities;
  priorities.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    priorities.push_back(rng.uniform());
  }
  std::vector<topology::AccMask> partition;
  for (const std::size_t index :
       topology::decode_partition(planner.topology(), candidates, priorities)) {
    partition.push_back(candidates[index].mask);
  }

  // Random contiguous allocation over the chosen sets.
  std::vector<int> cuts{0, n};
  for (std::size_t i = 1; i < partition.size(); ++i) {
    cuts.push_back(rng.uniform_int(0, n));
  }
  std::sort(cuts.begin(), cuts.end());

  core::Mapping mapping;
  for (std::size_t i = 0; i < partition.size(); ++i) {
    core::LayerAssignment set;
    set.accs = partition[i];
    set.design = rng.uniform_int(0, planner.designs().size() - 1);
    set.begin = cuts[i];
    set.end = cuts[i + 1];
    if (set.begin == set.end) continue;
    const int p = set.num_accs();
    for (int l = set.begin; l < set.end; ++l) {
      const auto options =
          parallel::enumerate_strategies(planner.spine().node(l).shape, p, 3);
      set.strategies.push_back(options[rng.index(options.size())]);
    }
    mapping.sets.push_back(std::move(set));
  }
  // Fix coverage gaps caused by duplicate cuts: extend the last set.
  if (mapping.sets.empty() || mapping.sets.back().end != n ||
      mapping.sets.front().begin != 0) {
    return random_mapping(planner, rng);
  }
  for (std::size_t i = 1; i < mapping.sets.size(); ++i) {
    if (mapping.sets[i].begin != mapping.sets[i - 1].end) {
      return random_mapping(planner, rng);
    }
  }
  return mapping;
}

void run(const Options& options) {
  std::cout << "=== A4: analytical model vs event-driven simulator ===\n";
  Table table({"Model", "Samples", "Median |err|", "P90 |err|", "Max |err|",
               "Ranking agreement"});
  std::vector<std::vector<std::string>> csv_rows;

  const int samples = options.quick ? 10 : 40;
  const topology::Topology topo = topology::f1_16xlarge();
  const accel::DesignRegistry designs = accel::table2_designs();
  for (const char* model : {"alexnet", "vgg16", "resnet34", "casia_surf"}) {
    const plan::Planner planner =
        plan::Planner::for_model(model, topo, designs);
    const core::MappingEvaluator evaluator(planner.problem());
    Rng rng(options.seed + 99);

    std::vector<double> errors;
    std::vector<std::pair<double, double>> points;  // (analytic, simulated)
    for (int s = 0; s < samples; ++s) {
      const core::Mapping mapping = random_mapping(planner, rng);
      const core::EvaluationSummary summary = evaluator.evaluate(mapping);
      const double a = summary.analytic_makespan.count();
      const double m = summary.simulated.count();
      errors.push_back(std::abs(m - a) / m);
      points.emplace_back(a, m);
    }
    std::sort(errors.begin(), errors.end());

    int checked = 0;
    int agreed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = i + 1; j < points.size(); ++j) {
        if (std::max(points[i].first, points[j].first) <
            1.2 * std::min(points[i].first, points[j].first)) {
          continue;  // too close to call
        }
        ++checked;
        if ((points[i].first < points[j].first) ==
            (points[i].second < points[j].second)) {
          ++agreed;
        }
      }
    }
    const double median = errors[errors.size() / 2];
    const double p90 = errors[errors.size() * 9 / 10];
    const double agreement = checked > 0 ? 100.0 * agreed / checked : 100.0;
    table.add_row({model, std::to_string(samples),
                   format_double(median * 100.0, 1) + "%",
                   format_double(p90 * 100.0, 1) + "%",
                   format_double(errors.back() * 100.0, 1) + "%",
                   format_double(agreement, 1) + "% of " +
                       std::to_string(checked) + " pairs"});
    csv_rows.push_back({model, format_double(median, 4), format_double(p90, 4),
                        format_double(errors.back(), 4),
                        format_double(agreement, 2)});
  }
  std::cout << table
            << "(err = |simulated - analytic| / simulated; ranking agreement "
               "over pairs with a >20% analytic gap)\n";
  maybe_write_csv(options,
                  {"model", "median_err", "p90_err", "max_err",
                   "ranking_agreement_percent"},
                  csv_rows);
}

}  // namespace
}  // namespace mars::bench

int main(int argc, char** argv) {
  mars::bench::run(mars::bench::parse_options(argc, argv));
  return 0;
}
