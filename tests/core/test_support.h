// Shared fixtures for core tests: a small adaptive problem (AlexNet on the
// F1 topology) and a fixed-design problem for H2H-style tests.
#pragma once

#include "mars/accel/registry.h"
#include "mars/core/cost_model.h"
#include "mars/graph/models/models.h"
#include "mars/graph/spine.h"
#include "mars/topology/presets.h"

namespace mars::core::testing {

struct AdaptiveFixture {
  graph::Graph model;
  graph::ConvSpine spine;
  topology::Topology topo;
  accel::DesignRegistry designs;
  Problem problem;

  explicit AdaptiveFixture(const std::string& model_name = "alexnet")
      : model(graph::models::by_name(model_name)),
        spine(graph::ConvSpine::extract(model)),
        topo(topology::f1_16xlarge()),
        designs(accel::table2_designs()) {
    problem.spine = &spine;
    problem.topo = &topo;
    problem.designs = &designs;
    problem.adaptive = true;
  }
};

struct FixedFixture {
  graph::Graph model;
  graph::ConvSpine spine;
  topology::Topology topo;
  accel::DesignRegistry designs;
  Problem problem;

  explicit FixedFixture(const std::string& model_name = "casia_surf",
                        Bandwidth bw = gbps(4.0))
      : model(graph::models::by_name(model_name)),
        spine(graph::ConvSpine::extract(model)),
        topo(topology::h2h_cloud(8, bw, /*num_fixed_designs=*/4)),
        designs(accel::h2h_designs()) {
    problem.spine = &spine;
    problem.topo = &topo;
    problem.designs = &designs;
    problem.adaptive = false;
  }
};

/// VGG16 on F1 with every accelerator's DRAM shrunk to `dram_mib`: at
/// 48 MiB the latency-greedy strategies overflow and the second level's
/// memory repair has to step in.
struct TightFixture {
  graph::Graph model = graph::models::vgg16();
  graph::ConvSpine spine = graph::ConvSpine::extract(model);
  topology::Topology topo;
  accel::DesignRegistry designs = accel::table2_designs();
  Problem problem;

  explicit TightFixture(double dram_mib)
      : topo(topology::f1_16xlarge(gbps(8.0), gbps(2.0), mebibytes(dram_mib))) {
    problem.spine = &spine;
    problem.topo = &topo;
    problem.designs = &designs;
    problem.adaptive = true;
  }

  LayerAssignment whole_network_on_group() const {
    LayerAssignment set;
    set.accs = 0b1111;
    set.design = 1;  // systolic
    set.begin = 0;
    set.end = spine.size();
    return set;
  }
};

/// A small valid mapping: first half of the spine on group 1 with design 0,
/// second half on group 2 with design 1; every layer split Cout x p.
inline Mapping two_set_mapping(const Problem& problem) {
  const int n = problem.spine->size();
  Mapping mapping;
  LayerAssignment a;
  a.accs = 0b00001111;
  a.design = problem.adaptive ? 0 : accel::kInvalidDesign;
  a.begin = 0;
  a.end = n / 2;
  LayerAssignment b;
  b.accs = 0b11110000;
  b.design = problem.adaptive ? 1 : accel::kInvalidDesign;
  b.begin = n / 2;
  b.end = n;
  for (LayerAssignment* set : {&a, &b}) {
    for (int l = set->begin; l < set->end; ++l) {
      set->strategies.emplace_back(
          std::vector<parallel::DimSplit>{{parallel::Dim::kCout, 4}},
          std::nullopt);
    }
  }
  mapping.sets = {a, b};
  return mapping;
}

}  // namespace mars::core::testing
