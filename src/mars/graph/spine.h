// Conv-spine extraction: the mapper's view of a workload.
//
// The paper's formulation flattens the DNN into a topologically-ordered
// layer sequence L1..LN and maps contiguous ranges of it to accelerator
// sets. The "layers" the mapping tables talk about are the convolution /
// linear layers; surrounding element-wise ops, poolings and batch norms are
// fused into their producing conv's memory traffic. ConvSpine performs that
// extraction and keeps the DAG structure as explicit producer->consumer
// edges so that cut costs remain well-defined for residual/multi-stream
// networks.
#pragma once

#include <string>
#include <vector>

#include "mars/graph/graph.h"
#include "mars/util/units.h"

namespace mars::graph {

/// Canonical six-dimension view of a spine layer: the nested loop
/// (Cout, Cin, H, W, Kh, Kw) from Fig. 2 of the paper, plus strides so
/// that input extents can be recovered. Linear layers are 1x1 convolutions
/// over a 1x1 feature map with Cin = in_features.
struct ConvShape {
  int cout = 0;
  int cin = 0;
  int oh = 0;  // output feature-map height (the loop bound "H")
  int ow = 0;  // output feature-map width  (the loop bound "W")
  int kh = 1;
  int kw = 1;
  int stride_h = 1;
  int stride_w = 1;

  [[nodiscard]] double macs() const {
    return static_cast<double>(cout) * cin * oh * ow * kh * kw;
  }
  /// Input extent actually consumed (ignores padding truncation at borders).
  [[nodiscard]] int ih() const { return (oh - 1) * stride_h + kh; }
  [[nodiscard]] int iw() const { return (ow - 1) * stride_w + kw; }

  [[nodiscard]] double in_elements() const {
    return static_cast<double>(cin) * ih() * iw();
  }
  [[nodiscard]] double weight_elements() const {
    return static_cast<double>(cout) * cin * kh * kw;
  }
  [[nodiscard]] double out_elements() const {
    return static_cast<double>(cout) * oh * ow;
  }

  [[nodiscard]] Bytes in_bytes(DataType dtype) const {
    return Bytes(in_elements() * bytes_per_element(dtype));
  }
  [[nodiscard]] Bytes weight_bytes(DataType dtype) const {
    return Bytes(weight_elements() * bytes_per_element(dtype));
  }
  [[nodiscard]] Bytes out_bytes(DataType dtype) const {
    return Bytes(out_elements() * bytes_per_element(dtype));
  }

  [[nodiscard]] bool is_pointwise() const { return kh == 1 && kw == 1; }

  friend bool operator==(const ConvShape&, const ConvShape&) = default;
};

[[nodiscard]] std::string to_string(const ConvShape& shape);

/// One mapper-visible layer: a conv/linear plus its fused neighbourhood.
struct SpineNode {
  LayerId layer = kInvalidLayer;  // id in the source Graph
  std::string name;
  ConvShape shape;
  bool from_linear = false;
  /// DRAM bytes moved by fused non-conv ops that run on this node's
  /// accelerator set right after the conv (ReLU/BN/pool outputs).
  Bytes fused_traffic{};
};

/// Activation flow between spine nodes. Every graph layer materialises its
/// output at its owner (the latest producing conv); an edge records the
/// bytes that move when a consumer lives with a different owner. Residual
/// sums cross as one accumulated tensor, concatenations as one edge per
/// contributing stream. `producer == -1` denotes the network input (data
/// arriving from the host).
struct SpineEdge {
  int producer = -1;  // spine index, or -1 for the network input
  int consumer = 0;   // spine index
  Bytes bytes{};
};

class ConvSpine {
 public:
  /// Builds the spine of `graph`. The graph must validate().
  [[nodiscard]] static ConvSpine extract(const Graph& graph);

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const SpineNode& node(int index) const;
  [[nodiscard]] const std::vector<SpineNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<SpineEdge>& edges() const { return edges_; }
  [[nodiscard]] DataType dtype() const { return dtype_; }
  [[nodiscard]] const std::string& model_name() const { return model_name_; }

  /// Bytes crossing a cut placed before node `cut` (edges with
  /// producer < cut <= consumer). The network-input edge counts only for
  /// cut == 0 (it is a host transfer wherever the first set sits).
  [[nodiscard]] Bytes cut_bytes(int cut) const;

  /// Bytes of tensors that are live across node `index` without being its
  /// direct input (residual/branch tensors that must stay buffered): the
  /// edges with producer < index < consumer. Precomputed by extract().
  [[nodiscard]] Bytes spanning_bytes(int index) const;

  /// Bytes the final spine node ships back toward the host (network output).
  [[nodiscard]] Bytes output_bytes() const { return output_bytes_; }
  /// Bytes of the network input activation (arrives from the host).
  [[nodiscard]] Bytes input_bytes() const;

  [[nodiscard]] double total_macs() const;
  [[nodiscard]] Bytes total_weight_bytes() const;

 private:
  std::string model_name_;
  DataType dtype_ = DataType::kFix16;
  std::vector<SpineNode> nodes_;
  std::vector<SpineEdge> edges_;
  std::vector<Bytes> spanning_bytes_;  // per node
  Bytes output_bytes_{};
};

}  // namespace mars::graph
