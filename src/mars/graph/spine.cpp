#include "mars/graph/spine.h"

#include <algorithm>
#include <sstream>

#include "mars/util/error.h"

namespace mars::graph {

std::string to_string(const ConvShape& shape) {
  std::ostringstream os;
  os << "Cout=" << shape.cout << " Cin=" << shape.cin << " H=" << shape.oh
     << " W=" << shape.ow << " K=" << shape.kh << 'x' << shape.kw;
  if (shape.stride_h != 1 || shape.stride_w != 1) {
    os << " s=" << shape.stride_h;
  }
  return os.str();
}

namespace {

ConvShape shape_of(const Layer& layer) {
  ConvShape shape;
  if (layer.kind == LayerKind::kConv) {
    shape.cout = layer.conv.out_channels;
    shape.cin = layer.input_shape.c;
    shape.oh = layer.output_shape.h;
    shape.ow = layer.output_shape.w;
    shape.kh = layer.conv.kernel_h;
    shape.kw = layer.conv.kernel_w;
    shape.stride_h = layer.conv.stride_h;
    shape.stride_w = layer.conv.stride_w;
  } else {
    MARS_CHECK(layer.kind == LayerKind::kLinear, "spine node must be conv/linear");
    shape.cout = layer.linear.out_features;
    shape.cin = static_cast<int>(layer.input_shape.elements());
    shape.oh = shape.ow = shape.kh = shape.kw = 1;
  }
  return shape;
}

}  // namespace

ConvSpine ConvSpine::extract(const Graph& graph) {
  graph.validate(/*require_connected=*/false);

  ConvSpine spine;
  spine.model_name_ = graph.name();
  spine.dtype_ = graph.dtype();

  // Pass 1: create spine nodes in topological (= storage) order.
  std::vector<int> spine_index(static_cast<std::size_t>(graph.size()), -1);
  for (const Layer& layer : graph.layers()) {
    if (!layer.is_spine()) continue;
    SpineNode node;
    node.layer = layer.id;
    node.name = layer.name;
    node.shape = shape_of(layer);
    node.from_linear = layer.kind == LayerKind::kLinear;
    spine_index[static_cast<std::size_t>(layer.id)] =
        static_cast<int>(spine.nodes_.size());
    spine.nodes_.push_back(std::move(node));
  }
  MARS_CHECK_ARG(!spine.nodes_.empty(),
                 "graph '" << graph.name() << "' has no conv/linear layers");

  // latest_spine[l]: index of the latest spine node on any path into layer l
  // (or -1 when only the network input feeds it). Used to attribute fused
  // op traffic to the accelerator set that holds the producing conv.
  std::vector<int> latest_spine(static_cast<std::size_t>(graph.size()), -1);
  for (const Layer& layer : graph.layers()) {
    int latest = -1;
    if (layer.is_spine()) {
      latest = spine_index[static_cast<std::size_t>(layer.id)];
    } else {
      for (LayerId input : layer.inputs) {
        latest = std::max(latest, latest_spine[static_cast<std::size_t>(input)]);
      }
    }
    latest_spine[static_cast<std::size_t>(layer.id)] = latest;
  }

  // Pass 2: fused traffic. Every non-spine layer's output is written back to
  // the DRAM of the set owning its latest producing conv.
  for (const Layer& layer : graph.layers()) {
    if (layer.is_spine() || layer.kind == LayerKind::kInput) continue;
    const int owner = latest_spine[static_cast<std::size_t>(layer.id)];
    if (owner < 0) continue;  // pre-conv input processing: negligible
    spine.nodes_[static_cast<std::size_t>(owner)].fused_traffic +=
        layer.output_shape.bytes(graph.dtype());
  }

  // Pass 3: activation edges. Every layer's output materialises in the
  // DRAM of its owner (its latest producing conv's set; fused ops run
  // there). Data moves whenever a graph edge connects layers with
  // different owners, carrying exactly the producer's output tensor —
  // residual sums therefore cross a cut once (as the accumulated tensor),
  // not once per contributing block.
  for (const Layer& layer : graph.layers()) {
    const int consumer_owner =
        layer.is_spine() ? spine_index[static_cast<std::size_t>(layer.id)]
                         : latest_spine[static_cast<std::size_t>(layer.id)];
    for (LayerId input : layer.inputs) {
      const int producer_owner = latest_spine[static_cast<std::size_t>(input)];
      if (producer_owner == consumer_owner) continue;  // local to one set
      spine.edges_.push_back(
          {producer_owner, consumer_owner,
           graph.layer(input).output_shape.bytes(graph.dtype())});
    }
  }

  // Spanning bytes: each edge adds to the nodes strictly between its ends.
  // Edges are visited in storage order, so every node's sum adds the same
  // terms in the same order as a per-node scan over the edges would.
  spine.spanning_bytes_.resize(spine.nodes_.size());
  for (const SpineEdge& edge : spine.edges_) {
    for (int index = std::max(edge.producer + 1, 0); index < edge.consumer;
         ++index) {
      spine.spanning_bytes_[static_cast<std::size_t>(index)] += edge.bytes;
    }
  }

  // Network output bytes: everything the graph sinks produce.
  Bytes out{};
  for (LayerId sink : graph.outputs()) {
    out += graph.layer(sink).output_shape.bytes(graph.dtype());
  }
  spine.output_bytes_ = out;
  return spine;
}

const SpineNode& ConvSpine::node(int index) const {
  MARS_CHECK_ARG(index >= 0 && index < size(), "spine index " << index
                                                              << " out of range");
  return nodes_[static_cast<std::size_t>(index)];
}

Bytes ConvSpine::cut_bytes(int cut) const {
  MARS_CHECK_ARG(cut >= 0 && cut <= size(), "cut " << cut << " out of range");
  Bytes total{};
  for (const SpineEdge& edge : edges_) {
    if (edge.producer < 0) continue;  // host input handled separately
    if (edge.producer < cut && edge.consumer >= cut) total += edge.bytes;
  }
  return total;
}

Bytes ConvSpine::spanning_bytes(int index) const {
  MARS_CHECK_ARG(index >= 0 && index < size(), "index out of range");
  return spanning_bytes_[static_cast<std::size_t>(index)];
}

Bytes ConvSpine::input_bytes() const {
  Bytes total{};
  for (const SpineEdge& edge : edges_) {
    if (edge.producer < 0) total += edge.bytes;
  }
  return total;
}

double ConvSpine::total_macs() const {
  double total = 0.0;
  for (const SpineNode& node : nodes_) total += node.shape.macs();
  return total;
}

Bytes ConvSpine::total_weight_bytes() const {
  Bytes total{};
  for (const SpineNode& node : nodes_) {
    total += node.shape.weight_bytes(dtype_);
  }
  return total;
}

}  // namespace mars::graph
