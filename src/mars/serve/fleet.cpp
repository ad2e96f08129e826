#include "mars/serve/fleet.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"
#include "mars/util/error.h"
#include "mars/util/hash.h"
#include "mars/util/worker_pool.h"

namespace mars::serve {
namespace {

/// A shard that received no traffic still contributes its (idle)
/// accelerators to the merged fleet view.
ServeResult empty_shard_result(int group_accelerators) {
  ServeResult result;
  result.acc_busy.assign(static_cast<std::size_t>(group_accelerators),
                         Seconds(0.0));
  return result;
}

}  // namespace

FleetPartition partition_fleet(int accelerators, int shards) {
  MARS_CHECK_ARG(accelerators >= 1,
                 "fleet needs at least one accelerator, got " << accelerators);
  MARS_CHECK_ARG(shards >= 1, "shards must be >= 1, got " << shards);
  FleetPartition partition;
  partition.clamped = shards > accelerators;
  partition.shards = partition.clamped ? accelerators : shards;
  partition.group_accelerators = accelerators / partition.shards;
  partition.unused_accelerators =
      accelerators - partition.shards * partition.group_accelerators;
  return partition;
}

int shard_of(int model, int request_id, int shards) {
  if (shards <= 1) return 0;
  // Bytewise FNV-1a over explicit little-endian bytes, so routing — and
  // every downstream result — is identical across platforms.
  const std::uint64_t hash =
      util::fnv1a_le(static_cast<std::uint32_t>(request_id),
                     util::fnv1a_le(static_cast<std::uint32_t>(model),
                                    util::kLegacyFnvOffset));
  return static_cast<int>(hash % static_cast<std::uint64_t>(shards));
}

ServeResult merge_shard_results(std::vector<ServeResult> shard_results,
                                int group_accelerators) {
  MARS_CHECK_ARG(!shard_results.empty(), "nothing to merge");
  MARS_CHECK_ARG(group_accelerators >= 1,
                 "group_accelerators must be >= 1, got " << group_accelerators);
  ServeResult merged;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  for (const ServeResult& shard : shard_results) {
    MARS_CHECK_ARG(static_cast<int>(shard.acc_busy.size()) ==
                       group_accelerators,
                   "shard result has " << shard.acc_busy.size()
                                       << " accelerators, expected "
                                       << group_accelerators);
    completed += shard.completed.size();
    rejected += shard.rejected.size();
  }
  merged.completed.reserve(completed);
  merged.rejected.reserve(rejected);
  merged.acc_busy.reserve(shard_results.size() *
                          static_cast<std::size_t>(group_accelerators));
  for (ServeResult& shard : shard_results) {
    merged.completed.insert(merged.completed.end(), shard.completed.begin(),
                            shard.completed.end());
    merged.rejected.insert(merged.rejected.end(), shard.rejected.begin(),
                           shard.rejected.end());
    merged.acc_busy.insert(merged.acc_busy.end(), shard.acc_busy.begin(),
                           shard.acc_busy.end());
    merged.horizon = std::max(merged.horizon, shard.horizon);
    merged.tasks_executed += shard.tasks_executed;
    merged.batches_dispatched += shard.batches_dispatched;
    merged.events += shard.events;
  }
  // The concatenation above is shard-major, so a stable sort keyed on
  // time alone resolves ties to (shard, intra-shard) order — the full
  // deterministic (time, shard, intra-shard) merge order.
  std::stable_sort(merged.completed.begin(), merged.completed.end(),
                   [](const CompletedRequest& a, const CompletedRequest& b) {
                     return a.completion < b.completion;
                   });
  std::stable_sort(merged.rejected.begin(), merged.rejected.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  return merged;
}

void check_fleet_options(const FleetOptions& options,
                         const std::vector<std::string>& model_names) {
  MARS_CHECK_ARG(options.shards >= 1,
                 "shards must be >= 1, got " << options.shards);
  MARS_CHECK_ARG(options.threads >= 1,
                 "threads must be >= 1, got " << options.threads);
  if (options.shard_models.empty()) return;
  MARS_CHECK_ARG(static_cast<int>(options.shard_models.size()) ==
                     options.shards,
                 "shard_models has " << options.shard_models.size()
                                     << " entries, expected one per shard ("
                                     << options.shards << ")");
  const int models = static_cast<int>(model_names.size());
  std::vector<int> hosts(model_names.size(), 0);
  for (int s = 0; s < options.shards; ++s) {
    const std::vector<int>& hosted =
        options.shard_models[static_cast<std::size_t>(s)];
    MARS_CHECK_ARG(!hosted.empty(), "shard " << s << " hosts no models");
    for (const int m : hosted) {
      MARS_CHECK_ARG(m >= 0 && m < models,
                     "shard " << s << " hosts unknown model index " << m);
      MARS_CHECK_ARG(std::count(hosted.begin(), hosted.end(), m) == 1,
                     "shard " << s << " hosts model index " << m << " twice");
      ++hosts[static_cast<std::size_t>(m)];
    }
  }
  for (std::size_t m = 0; m < model_names.size(); ++m) {
    MARS_CHECK_ARG(hosts[m] > 0,
                   "model '" << model_names[m] << "' is hosted by no shard");
  }
}

FleetScheduler::FleetScheduler(const topology::Topology& group_topo,
                               std::vector<const ModelService*> services,
                               FleetOptions options)
    : group_topo_(&group_topo),
      services_(std::move(services)),
      options_(std::move(options)) {
  std::vector<std::string> names;
  names.reserve(services_.size());
  for (const ModelService* service : services_) {
    names.push_back(service->name());
  }
  check_fleet_options(options_, names);
  if (heterogeneous()) {
    model_hosts_.assign(services_.size(), {});
    fleet_to_local_.assign(static_cast<std::size_t>(options_.shards),
                           std::vector<int>(services_.size(), -1));
    for (int s = 0; s < options_.shards; ++s) {
      const std::vector<int>& hosted =
          options_.shard_models[static_cast<std::size_t>(s)];
      for (std::size_t local = 0; local < hosted.size(); ++local) {
        const auto m = static_cast<std::size_t>(hosted[local]);
        fleet_to_local_[static_cast<std::size_t>(s)][m] =
            static_cast<int>(local);
        model_hosts_[m].push_back(s);
      }
    }
  }
  shard_schedulers_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    SchedulerOptions per_shard = options_.scheduler;
    // Only a real fleet prefixes its tracks; the single-shard path must
    // reproduce the serial scheduler's trace byte for byte.
    if (options_.shards > 1) {
      std::string prefix = "s";
      prefix += std::to_string(s);
      prefix += ' ';
      per_shard.trace_label_prefix = std::move(prefix);
    }
    if (!heterogeneous()) {
      shard_schedulers_.emplace_back(group_topo, services_,
                                     std::move(per_shard));
      continue;
    }
    // Heterogeneous shard: engine over the hosted subset. Fleet-indexed
    // per-model SLO overrides are remapped to the shard's local indices.
    const std::vector<int>& hosted =
        options_.shard_models[static_cast<std::size_t>(s)];
    std::vector<const ModelService*> local_services;
    local_services.reserve(hosted.size());
    std::vector<Seconds> local_slos;
    const std::vector<Seconds>& fleet_slos =
        options_.scheduler.admission.per_model_slo;
    if (!fleet_slos.empty()) local_slos.resize(hosted.size(), Seconds(0.0));
    for (std::size_t local = 0; local < hosted.size(); ++local) {
      const auto m = static_cast<std::size_t>(hosted[local]);
      local_services.push_back(services_[m]);
      if (!fleet_slos.empty() && m < fleet_slos.size()) {
        local_slos[local] = fleet_slos[m];
      }
    }
    per_shard.admission.per_model_slo = std::move(local_slos);
    shard_schedulers_.emplace_back(group_topo, std::move(local_services),
                                   std::move(per_shard));
  }
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->gauge("serve.fleet.shards")
        .set(static_cast<double>(options_.shards));
  }
}

template <typename ShardFn>
std::vector<ServeResult> FleetScheduler::run_shards(ShardFn&& fn) const {
  const auto n = static_cast<std::size_t>(options_.shards);
  std::vector<ServeResult> results(n);
  obs::TraceRecorder* rec = obs::trace();
  if (rec != nullptr || options_.threads == 1) {
    // Serial: engines emit their simulated-domain events in shard order,
    // so the trace stream is deterministic. Wall spans record how long
    // each shard's engine really ran.
    const int wall_track =
        rec != nullptr ? rec->thread_track(obs::Clock::kWall, "serve") : 0;
    for (std::size_t s = 0; s < n; ++s) {
      const Seconds start = rec != nullptr ? rec->wall_now() : Seconds(0.0);
      results[s] = fn(static_cast<int>(s));
      if (rec != nullptr) {
        rec->complete(obs::Clock::kWall, wall_track,
                      "shard " + std::to_string(s), start,
                      rec->wall_now() - start);
      }
    }
    return results;
  }
  // Parallel: one independent engine per shard, results published by
  // index — output is identical to the serial loop above.
  util::WorkerPool pool(
      std::min(options_.threads, options_.shards));
  pool.parallel_for(n, [&](std::size_t s) {
    results[s] = fn(static_cast<int>(s));
  });
  return results;
}

void FleetScheduler::restore_fleet_indices(
    std::vector<ServeResult>& results) const {
  for (std::size_t s = 0; s < results.size(); ++s) {
    const std::vector<int>& hosted = options_.shard_models[s];
    for (CompletedRequest& done : results[s].completed) {
      done.request.model =
          hosted[static_cast<std::size_t>(done.request.model)];
    }
    for (Request& shed : results[s].rejected) {
      shed.model = hosted[static_cast<std::size_t>(shed.model)];
    }
  }
}

ServeResult FleetScheduler::run(const std::vector<Request>& arrivals) const {
  if (options_.shards == 1 && !heterogeneous()) {
    return shard_schedulers_[0].run(arrivals);
  }
  // Route per arrival; order within a shard preserves arrival order, so
  // each engine sees a well-formed sub-stream. Heterogeneous fleets route
  // among a model's hosting shards only (and each engine speaks local
  // model indices); when every shard hosts every model the hosting list
  // is [0..shards), so the route reduces to the homogeneous hash.
  std::vector<std::vector<Request>> per_shard(
      static_cast<std::size_t>(options_.shards));
  for (const Request& request : arrivals) {
    int shard = 0;
    Request routed = request;
    if (heterogeneous()) {
      const std::vector<int>& hosts =
          model_hosts_[static_cast<std::size_t>(request.model)];
      shard = hosts[static_cast<std::size_t>(shard_of(
          request.model, request.id, static_cast<int>(hosts.size())))];
      routed.model = fleet_to_local_[static_cast<std::size_t>(shard)]
                                    [static_cast<std::size_t>(request.model)];
    } else {
      shard = shard_of(request.model, request.id, options_.shards);
    }
    per_shard[static_cast<std::size_t>(shard)].push_back(routed);
  }
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->counter("serve.fleet.requests.routed")
        .add(static_cast<long long>(arrivals.size()));
  }
  std::vector<ServeResult> results = run_shards([&](int s) {
    return shard_schedulers_[static_cast<std::size_t>(s)].run(
        per_shard[static_cast<std::size_t>(s)]);
  });
  if (heterogeneous()) restore_fleet_indices(results);
  return merge_shard_results(std::move(results), group_topo_->size());
}

ServeResult FleetScheduler::run_closed_loop(const ClosedLoopSpec& spec,
                                            Seconds duration) const {
  if (options_.shards == 1 && !heterogeneous()) {
    return shard_schedulers_[0].run_closed_loop(spec, duration);
  }
  // A client binds to one shard for the whole run (routed by its model
  // and fleet-wide client index) — closed-loop feedback never crosses
  // shard boundaries. Heterogeneous fleets bind among hosting shards
  // only, with the client's model rewritten to the shard-local index.
  std::vector<ClosedLoopSpec> per_shard(
      static_cast<std::size_t>(options_.shards));
  for (auto& shard_spec : per_shard) shard_spec.think = spec.think;
  for (int c = 0; c < spec.clients(); ++c) {
    const int model = spec.client_model[static_cast<std::size_t>(c)];
    if (heterogeneous()) {
      const std::vector<int>& hosts =
          model_hosts_[static_cast<std::size_t>(model)];
      const int shard = hosts[static_cast<std::size_t>(
          shard_of(model, c, static_cast<int>(hosts.size())))];
      per_shard[static_cast<std::size_t>(shard)].client_model.push_back(
          fleet_to_local_[static_cast<std::size_t>(shard)]
                         [static_cast<std::size_t>(model)]);
    } else {
      per_shard[static_cast<std::size_t>(shard_of(model, c, options_.shards))]
          .client_model.push_back(model);
    }
  }
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->counter("serve.fleet.requests.routed")
        .add(static_cast<long long>(spec.clients()));
  }
  std::vector<ServeResult> results = run_shards([&](int s) {
    const ClosedLoopSpec& shard_spec =
        per_shard[static_cast<std::size_t>(s)];
    // An unlucky routing can leave a shard clientless; it idles.
    if (shard_spec.clients() == 0) {
      return empty_shard_result(group_topo_->size());
    }
    return shard_schedulers_[static_cast<std::size_t>(s)].run_closed_loop(
        shard_spec, duration);
  });
  if (heterogeneous()) restore_fleet_indices(results);
  return merge_shard_results(std::move(results), group_topo_->size());
}

}  // namespace mars::serve
