#include "mars/graph/spine.h"

#include <gtest/gtest.h>

#include "mars/graph/models/models.h"
#include "mars/util/error.h"

namespace mars::graph {
namespace {

TEST(ConvShape, LoopBoundsAndBytes) {
  const ConvShape shape{64, 3, 55, 55, 11, 11, 4, 4};
  EXPECT_DOUBLE_EQ(shape.macs(), 64.0 * 3 * 55 * 55 * 121);
  EXPECT_EQ(shape.ih(), 54 * 4 + 11);
  EXPECT_DOUBLE_EQ(shape.weight_bytes(DataType::kFix16).count(),
                   64.0 * 3 * 121 * 2);
  EXPECT_DOUBLE_EQ(shape.out_bytes(DataType::kFix16).count(), 64.0 * 55 * 55 * 2);
}

TEST(ConvShape, PointwiseDetection) {
  EXPECT_TRUE((ConvShape{64, 64, 7, 7, 1, 1}).is_pointwise());
  EXPECT_FALSE((ConvShape{64, 64, 7, 7, 3, 3}).is_pointwise());
}

TEST(Spine, ChainExtraction) {
  Graph g("chain");
  LayerId x = g.add_input({3, 8, 8});
  x = g.add_conv("conv1", x, ConvAttrs::square(4, 3, 1, 1));
  x = g.add_relu("relu", x);
  x = g.add_conv("conv2", x, ConvAttrs::square(8, 3, 1, 1));
  const ConvSpine spine = ConvSpine::extract(g);

  ASSERT_EQ(spine.size(), 2);
  EXPECT_EQ(spine.node(0).name, "conv1");
  EXPECT_EQ(spine.node(1).name, "conv2");
  EXPECT_EQ(spine.node(1).shape.cin, 4);
  EXPECT_FALSE(spine.node(0).from_linear);
}

TEST(Spine, EdgesThroughFusedOps) {
  Graph g("fused");
  LayerId x = g.add_input({3, 8, 8});
  x = g.add_conv("conv1", x, ConvAttrs::square(4, 3, 1, 1));
  x = g.add_relu("relu", x);
  x = g.add_max_pool("pool", x, {2, 2, 0});
  x = g.add_conv("conv2", x, ConvAttrs::square(8, 3, 1, 1));
  const ConvSpine spine = ConvSpine::extract(g);

  // Exactly one inter-conv edge, carrying the POST-pool tensor (what
  // actually crosses a set boundary), plus the network-input edge.
  ASSERT_EQ(spine.edges().size(), 2u);
  Bytes inter{};
  for (const SpineEdge& edge : spine.edges()) {
    if (edge.producer == 0) inter = edge.bytes;
  }
  EXPECT_DOUBLE_EQ(inter.count(), 4.0 * 4 * 4 * 2);  // conv2 input 4x4x4 fix16
}

TEST(Spine, FusedTrafficAttribution) {
  Graph g("traffic");
  LayerId x = g.add_input({3, 8, 8});
  x = g.add_conv("conv1", x, ConvAttrs::square(4, 3, 1, 1));
  x = g.add_batch_norm("bn", x);
  x = g.add_relu("relu", x);
  const ConvSpine spine = ConvSpine::extract(g);
  // BN + ReLU each write a 4x8x8 fix16 tensor attributed to conv1.
  EXPECT_DOUBLE_EQ(spine.node(0).fused_traffic.count(), 2.0 * (4 * 8 * 8 * 2));
}

TEST(Spine, ResidualShortcutsCrossOnceAsAccumulatedTensor) {
  // A bottleneck-style block: x -> c1 -> c2 -> c3, add(c3, x). The
  // shortcut tensor must appear as ONE edge from x's conv to the add's
  // owner (c3), spanning c1/c2 — not as one edge per contributing block.
  Graph g("residual");
  LayerId in = g.add_input({4, 8, 8});
  LayerId x = g.add_conv("conv0", in, ConvAttrs::square(4, 3, 1, 1));
  LayerId c1 = g.add_conv("conv1", x, ConvAttrs::square(4, 3, 1, 1));
  LayerId c2 = g.add_conv("conv2", c1, ConvAttrs::square(4, 3, 1, 1));
  LayerId c3 = g.add_conv("conv3", c2, ConvAttrs::square(4, 3, 1, 1));
  LayerId sum = g.add_add("add", c3, x);
  g.add_conv("conv4", sum, ConvAttrs::square(4, 3, 1, 1));
  const ConvSpine spine = ConvSpine::extract(g);

  ASSERT_EQ(spine.size(), 5);
  // Shortcut edge conv0 -> conv3 (the add's owner).
  int shortcut_edges = 0;
  for (const SpineEdge& edge : spine.edges()) {
    if (edge.producer == 0 && edge.consumer == 3) ++shortcut_edges;
  }
  EXPECT_EQ(shortcut_edges, 1);
  // It spans conv1 and conv2 (live residual memory).
  EXPECT_GT(spine.spanning_bytes(1).count(), 0.0);
  EXPECT_GT(spine.spanning_bytes(2).count(), 0.0);
  // conv4 receives exactly one edge (the accumulated sum from conv3).
  int conv4_inputs = 0;
  for (const SpineEdge& edge : spine.edges()) {
    if (edge.consumer == 4) ++conv4_inputs;
  }
  EXPECT_EQ(conv4_inputs, 1);
}

TEST(Spine, DeepResidualChainCutBytesStayBounded) {
  // Across any cut of a deep residual network at most a handful of
  // tensors are live: the cut bytes must stay far below "one tensor per
  // upstream block" (the failure mode of transitive Add tracing).
  const Graph g = models::resnet101();
  const ConvSpine spine = ConvSpine::extract(g);
  for (int cut = 1; cut < spine.size(); ++cut) {
    EXPECT_LT(spine.cut_bytes(cut).mib(), 5.0) << "cut " << cut;
  }
}

TEST(Spine, ConcatMovesEachStreamOnce) {
  Graph g("concat");
  LayerId x = g.add_input({4, 8, 8});
  LayerId a = g.add_conv("a", x, ConvAttrs::square(6, 3, 1, 1));
  LayerId b = g.add_conv("b", x, ConvAttrs::square(2, 3, 1, 1));
  LayerId cat = g.add_concat("cat", {a, b});
  g.add_conv("fuse", cat, ConvAttrs::square(8, 1));
  const ConvSpine spine = ConvSpine::extract(g);

  // The concat materialises at b's owner (the latest contributor): a's
  // 6-channel tensor moves to b (edge 0->1), then the 8-channel concat
  // moves to the consumer (edge 1->2).
  double a_to_b = 0.0;
  double cat_to_fuse = 0.0;
  for (const SpineEdge& edge : spine.edges()) {
    if (edge.producer == 0 && edge.consumer == 1) a_to_b = edge.bytes.count();
    if (edge.producer == 1 && edge.consumer == 2) cat_to_fuse = edge.bytes.count();
  }
  EXPECT_DOUBLE_EQ(a_to_b, 6.0 * 8 * 8 * 2);
  EXPECT_DOUBLE_EQ(cat_to_fuse, 8.0 * 8 * 8 * 2);
}

TEST(Spine, CutBytesMonotoneAtChainBoundaries) {
  const Graph g = models::vgg16();
  const ConvSpine spine = ConvSpine::extract(g);
  // Any interior cut of a chain must carry positive bytes.
  for (int cut = 1; cut < spine.size(); ++cut) {
    EXPECT_GT(spine.cut_bytes(cut).count(), 0.0) << "cut " << cut;
  }
  EXPECT_THROW((void)spine.cut_bytes(-1), InvalidArgument);
  EXPECT_THROW((void)spine.cut_bytes(spine.size() + 1), InvalidArgument);
}

TEST(Spine, InputAndOutputBytes) {
  const Graph g = models::alexnet();
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_DOUBLE_EQ(spine.input_bytes().count(), 3.0 * 224 * 224 * 2);
  EXPECT_DOUBLE_EQ(spine.output_bytes().count(), 1000.0 * 2);
}

TEST(Spine, LinearLayersBecomeGemvNodes) {
  const Graph g = models::alexnet();
  const ConvSpine spine = ConvSpine::extract(g);
  ASSERT_EQ(spine.size(), 8);  // 5 convs + 3 FCs
  const SpineNode& fc6 = spine.node(5);
  EXPECT_TRUE(fc6.from_linear);
  EXPECT_EQ(fc6.shape.cin, 256 * 6 * 6);
  EXPECT_EQ(fc6.shape.cout, 4096);
  EXPECT_EQ(fc6.shape.oh, 1);
}

TEST(Spine, TotalsMatchGraph) {
  const Graph g = models::resnet34();
  const ConvSpine spine = ConvSpine::extract(g);
  // Spine MACs = conv + linear MACs of the graph (pooling/BN contribute 0).
  EXPECT_NEAR(spine.total_macs() / g.total_macs(), 1.0, 1e-9);
  EXPECT_GT(spine.total_weight_bytes().count(), 0.0);
}

TEST(Spine, RejectsGraphWithoutConvs) {
  Graph g("none");
  LayerId x = g.add_input({3, 8, 8});
  g.add_relu("relu", x);
  EXPECT_THROW((void)ConvSpine::extract(g), InvalidArgument);
}

TEST(Spine, MultiStreamModelHasMultipleInputEdges) {
  const Graph g = models::casia_surf();
  const ConvSpine spine = ConvSpine::extract(g);
  int input_edges = 0;
  for (const SpineEdge& edge : spine.edges()) {
    if (edge.producer < 0) ++input_edges;
  }
  EXPECT_EQ(input_edges, 3);  // RGB, depth, IR streams
}

TEST(Spine, SpanningBytesRejectsIndicesOutsideTheSpine) {
  const ConvSpine spine = ConvSpine::extract(models::resnet34());
  EXPECT_THROW((void)spine.spanning_bytes(-1), InvalidArgument);
  EXPECT_THROW((void)spine.spanning_bytes(spine.size()), InvalidArgument);
  EXPECT_NO_THROW((void)spine.spanning_bytes(spine.size() - 1));
}

}  // namespace
}  // namespace mars::graph
