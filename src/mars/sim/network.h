// Link-level network model.
//
// Every undirected topology edge becomes two directed channels (full
// duplex); every accelerator gets an up and a down host channel. A channel
// serves one flow at a time at full bandwidth (FIFO) — the contention model
// that makes host-routed traffic congest realistically when several
// accelerator pairs cross groups at once.
#pragma once

#include <vector>

#include "mars/sim/task_graph.h"
#include "mars/topology/topology.h"

namespace mars::sim {

struct SimParams {
  /// Per-leg wire latency (propagation + protocol).
  Seconds link_latency = microseconds(2.0);
  /// Extra store-and-forward delay when a flow is relayed by the host.
  Seconds host_latency = microseconds(5.0);

  friend bool operator==(const SimParams&, const SimParams&) = default;
};

/// One leg of a route: a directed channel plus its bandwidth.
struct RouteLeg {
  int channel = -1;
  Bandwidth bw{};
};

class Network {
 public:
  Network(const topology::Topology& topo, SimParams params);

  /// Channels a src->dst flow traverses in order (1 leg when a direct link
  /// exists or an endpoint is the host, otherwise 2 via the host).
  [[nodiscard]] std::vector<RouteLeg> route(int src, int dst) const;

  [[nodiscard]] int num_channels() const { return num_channels_; }
  [[nodiscard]] const SimParams& params() const { return params_; }

  /// Serialised transfer time of `bytes` over one leg, excluding queueing.
  [[nodiscard]] Seconds leg_time(const RouteLeg& leg, Bytes bytes) const;

 private:
  [[nodiscard]] int direct_channel(int src, int dst) const;  // -1 if none
  [[nodiscard]] int host_up_channel(int acc) const;
  [[nodiscard]] int host_down_channel(int acc) const;

  const topology::Topology* topo_;
  SimParams params_;
  int num_channels_ = 0;
  std::vector<std::vector<int>> direct_;  // [src][dst] channel id or -1
  int host_up_base_ = 0;
  int host_down_base_ = 0;
};

}  // namespace mars::sim
