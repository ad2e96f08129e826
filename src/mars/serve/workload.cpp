#include "mars/serve/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>

#include "mars/util/error.h"
#include "mars/util/rng.h"
#include "mars/util/strings.h"

namespace mars::serve {
namespace {

void check_mix(const std::vector<double>& weights) {
  MARS_CHECK_ARG(!weights.empty(), "model mix must name at least one model");
  double total = 0.0;
  for (double w : weights) {
    MARS_CHECK_ARG(w >= 0.0, "mix weights must be non-negative");
    total += w;
  }
  MARS_CHECK_ARG(total > 0.0, "mix weights must not all be zero");
}

int resolve_model(const std::string& name,
                  const std::vector<std::string>& model_names) {
  for (std::size_t i = 0; i < model_names.size(); ++i) {
    if (model_names[i] == name) return static_cast<int>(i);
  }
  throw InvalidArgument("trace names model '" + name +
                        "' which is not served; serving: " +
                        join(model_names, ", "));
}

}  // namespace

int pick_model(const std::vector<double>& weights, double u) {
  check_mix(weights);
  MARS_CHECK_ARG(u >= 0.0 && u < 1.0, "pick_model needs u in [0, 1)");
  double total = 0.0;
  for (double w : weights) total += w;
  const double point = u * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (point < cumulative) return static_cast<int>(i);
  }
  // Numerically possible only when `point` rounds up to `total`: the last
  // entry with non-zero weight owns the boundary.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return static_cast<int>(i);
  }
  MARS_THROW("unreachable: empty mix passed check_mix");
}

std::vector<Request> poisson_arrivals(const std::vector<double>& mix_weights,
                                      double rate_per_second, Seconds duration,
                                      std::uint64_t seed) {
  check_mix(mix_weights);
  MARS_CHECK_ARG(rate_per_second > 0.0, "arrival rate must be positive");
  MARS_CHECK_ARG(duration.count() > 0.0, "duration must be positive");

  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(rate_per_second * duration.count()));
  Seconds t{};
  for (;;) {
    // Inverse-CDF exponential draw from a plain uniform — one engine
    // call per draw, reproducible per seed within a build.
    t += Seconds(-std::log1p(-rng.uniform()) / rate_per_second);
    if (t >= duration) break;
    Request request;
    request.id = static_cast<int>(requests.size());
    request.model = pick_model(mix_weights, rng.uniform());
    request.arrival = t;
    requests.push_back(request);
  }
  return requests;
}

std::vector<Request> replay_trace(std::istream& in,
                                  const std::vector<std::string>& model_names) {
  MARS_CHECK_ARG(!model_names.empty(), "trace replay needs served models");
  std::vector<Request> requests;
  std::string line;
  int line_no = 0;
  bool seen_content = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!seen_content && line.rfind("\xEF\xBB\xBF", 0) == 0) {
      line.erase(0, 3);  // Excel-style UTF-8 BOM
    }
    if (line.empty()) continue;
    const std::vector<std::string> fields = split(line, ',');
    MARS_CHECK_ARG(fields.size() == 2, "trace line " << line_no
                                                     << ": expected "
                                                        "`arrival_s,model`, got '"
                                                     << line << "'");
    const bool is_first_content = !seen_content;
    seen_content = true;
    if (is_first_content && fields[0] == "arrival_s") continue;  // header
    const std::optional<double> arrival = parse_double(fields[0]);
    MARS_CHECK_ARG(arrival, "trace line " << line_no << ": bad arrival time '"
                                          << fields[0] << "'");
    MARS_CHECK_ARG(*arrival >= 0.0,
                   "trace line " << line_no << ": negative arrival time");
    Request request;
    request.arrival = Seconds(*arrival);
    request.model = resolve_model(fields[1], model_names);
    requests.push_back(request);
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = static_cast<int>(i);
  }
  return requests;
}

std::vector<Request> replay_trace_file(
    const std::string& path, const std::vector<std::string>& model_names) {
  std::ifstream file(path);
  MARS_CHECK_ARG(file.good(), "cannot open trace file '" << path << "'");
  return replay_trace(file, model_names);
}

ClosedLoopSpec make_closed_loop(const std::vector<double>& mix_weights,
                                int clients, Seconds think) {
  check_mix(mix_weights);
  MARS_CHECK_ARG(clients > 0, "closed loop needs at least one client");
  MARS_CHECK_ARG(think.count() >= 0.0, "think time must be non-negative");

  ClosedLoopSpec spec;
  spec.think = think;
  spec.client_model.reserve(static_cast<std::size_t>(clients));
  std::vector<int> assigned(mix_weights.size(), 0);
  for (int c = 0; c < clients; ++c) {
    // Greedy proportional fill: the model whose share is furthest below
    // its weight gets the next client (ties break toward lower index).
    int best = -1;
    double best_score = -1.0;
    for (std::size_t m = 0; m < mix_weights.size(); ++m) {
      if (mix_weights[m] <= 0.0) continue;
      const double score = mix_weights[m] / (assigned[m] + 1);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(m);
      }
    }
    ++assigned[static_cast<std::size_t>(best)];
    spec.client_model.push_back(best);
  }
  return spec;
}

}  // namespace mars::serve
