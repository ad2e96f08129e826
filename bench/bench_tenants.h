// Shared tenant-mix plumbing for the multi-tenant serving benches
// (bench_serving's sweeps and fleet-scale gate, bench_comap): the
// canonical contended two-model fleet, service-ref flattening, metric
// helpers, and the order-sensitive ServeResult digest the determinism
// gates assert on. Extracted so the benches agree on the tenant mix by
// construction instead of by copy.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "mars/serve/metrics.h"
#include "mars/serve/scheduler.h"
#include "mars/serve/service.h"
#include "mars/util/hash.h"

namespace mars::bench {

/// The canonical contended tenant mix: a heavy model and a light one
/// sharing the fleet. Every multi-tenant bench serves this pair so their
/// numbers are comparable.
inline const std::vector<std::string>& fleet_models() {
  static const std::vector<std::string> names = {"facebagnet", "resnet50"};
  return names;
}

/// Equal request weights for `n` tenants.
inline std::vector<double> equal_mix(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

inline std::vector<const serve::ModelService*> as_refs(
    const std::vector<std::unique_ptr<serve::ModelService>>& services) {
  std::vector<const serve::ModelService*> refs;
  refs.reserve(services.size());
  for (const auto& service : services) refs.push_back(service.get());
  return refs;
}

inline double mean_utilization(const serve::ServeMetrics& metrics) {
  if (metrics.utilization.empty()) return 0.0;
  return std::accumulate(metrics.utilization.begin(),
                         metrics.utilization.end(), 0.0) /
         static_cast<double>(metrics.utilization.size());
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Order-sensitive digest of a merged ServeResult: byte-identical runs
/// hash equal, any reorder or value drift hashes different. FNV-1a over
/// the completed and rejected streams plus the scalar tallies.
inline std::uint64_t result_digest(const serve::ServeResult& result) {
  std::uint64_t hash = util::kLegacyFnvOffset;
  const auto mix = [&](std::uint64_t value) {
    hash = util::fnv1a_le(value, hash);
  };
  const auto mix_seconds = [&](Seconds s) {
    mix(std::bit_cast<std::uint64_t>(s.count()));
  };
  for (const serve::CompletedRequest& done : result.completed) {
    mix(static_cast<std::uint64_t>(done.request.id));
    mix(static_cast<std::uint64_t>(done.request.model));
    mix_seconds(done.request.arrival);
    mix_seconds(done.dispatch);
    mix_seconds(done.completion);
    mix(static_cast<std::uint64_t>(done.batch_size));
  }
  for (const serve::Request& shed : result.rejected) {
    mix(static_cast<std::uint64_t>(shed.id));
    mix(static_cast<std::uint64_t>(shed.model));
    mix_seconds(shed.arrival);
  }
  for (Seconds busy : result.acc_busy) mix_seconds(busy);
  mix_seconds(result.horizon);
  mix(static_cast<std::uint64_t>(result.tasks_executed));
  mix(static_cast<std::uint64_t>(result.batches_dispatched));
  return hash;
}

}  // namespace mars::bench
