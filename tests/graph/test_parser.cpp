#include "mars/graph/parser.h"

#include <gtest/gtest.h>

#include "mars/graph/spine.h"
#include "mars/util/error.h"

namespace mars::graph {
namespace {

TEST(Parser, MinimalChain) {
  const Graph g = parse_model(R"(
    model tiny
    input in 3 32 32
    conv c1 in 16 k3 s1 p1
    relu r1 c1
    maxpool p1 r1 k2
    conv c2 p1 32 k3 p1
    gap g1 c2
    flatten f1 g1
    linear fc f1 10
  )");
  EXPECT_EQ(g.name(), "tiny");
  EXPECT_EQ(g.num_convs(), 2);
  EXPECT_EQ(g.num_spine_layers(), 3);
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_EQ(spine.node(0).shape.cout, 16);
  EXPECT_EQ(spine.node(1).shape.oh, 16);  // post 2x2 pool
}

TEST(Parser, ConvOptionsAndDefaults) {
  const Graph g = parse_model(R"(
    model opts
    input in 3 224 224
    conv stem in 64 k7 s2 p3 nobias
  )");
  const Layer& conv = g.layer(1);
  EXPECT_EQ(conv.conv.kernel_h, 7);
  EXPECT_EQ(conv.conv.stride_h, 2);
  EXPECT_EQ(conv.conv.pad_h, 3);
  EXPECT_FALSE(conv.conv.bias);
  EXPECT_EQ(conv.output_shape, (TensorShape{64, 112, 112}));
}

TEST(Parser, ResidualAndConcatBranches) {
  const Graph g = parse_model(R"(
    model branches
    input in 4 8 8
    conv a in 4 k3 p1
    conv b a 4 k3 p1
    add sum a b
    conv c in 6 k3 p1
    concat cat sum c
    conv fuse cat 8 k1
  )");
  EXPECT_NO_THROW(g.validate());
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_EQ(spine.size(), 4);
  // Concat output: 4 + 6 channels.
  EXPECT_EQ(spine.node(3).shape.cin, 10);
}

TEST(Parser, DtypeSelection) {
  const Graph g = parse_model("model m float32\ninput i 1 4 4\nconv c i 2 k1\n");
  EXPECT_EQ(g.dtype(), DataType::kFloat32);
}

TEST(Parser, CommentsAndBlankLines) {
  const Graph g = parse_model(R"(
    # full-line comment

    model commented   # trailing comment
    input in 3 8 8    # the input
    conv c in 4 k3 p1
  )");
  EXPECT_EQ(g.size(), 2);
}

TEST(Parser, PoolStrideDefaultsToKernel) {
  const Graph g = parse_model(R"(
    model pool
    input in 4 8 8
    maxpool p in k2
    conv c p 4 k1
  )");
  EXPECT_EQ(g.layer(1).output_shape, (TensorShape{4, 4, 4}));
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)parse_model("model m\ninput i 3 8 8\nconv c missing 4 k3\n");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_model(""), InvalidArgument);
  EXPECT_THROW((void)parse_model("input i 3 8 8\n"), InvalidArgument);  // no model
  EXPECT_THROW((void)parse_model("model m\nmodel again\n"), InvalidArgument);
  EXPECT_THROW((void)parse_model("model m\ninput i 3 8 8\nconv c i 4\n"),
               InvalidArgument);  // missing k<K>
  EXPECT_THROW((void)parse_model("model m\ninput i 3 8 8\nconv c i 4 k3 z9\n"),
               InvalidArgument);  // unknown option
  EXPECT_THROW((void)parse_model("model m\ninput i 3 8 8\nfrobnicate f i\n"),
               InvalidArgument);  // unknown op
  EXPECT_THROW(
      (void)parse_model("model m\ninput i 3 8 8\nconv i i 4 k3\n"),
      InvalidArgument);  // duplicate name
  // Integers are whole decimals: no sign '+', hex or trailing text.
  for (const char* conv :
       {"conv c i four k3", "conv c i +4 k3", "conv c i 0x4 k3",
        "conv c i 4 k+3", "conv c i 4 k3x", "conv c i 99999999999 k3"}) {
    EXPECT_THROW((void)parse_model(std::string("model m\ninput i 3 8 8\n") +
                                   conv + "\n"),
                 InvalidArgument)
        << conv;
  }
  EXPECT_THROW((void)parse_model("model m\ninput i +3 8 8\n"),
               InvalidArgument);
}

TEST(Parser, ParsedModelIsMappable) {
  // End-to-end: a parsed model goes through spine extraction with the
  // same invariants as the zoo models.
  const Graph g = parse_model(R"(
    model mappable
    input in 3 64 64
    conv c1 in 32 k3 s1 p1
    relu r1 c1
    conv c2 r1 64 k3 s2 p1
    bn b1 c2
    relu r2 b1
    conv c3 r2 64 k3 s1 p1
    conv c4 c3 64 k3 s1 p1
    add s1 c4 c2
    gap g1 s1
    flatten f1 g1
    linear fc f1 10
  )");
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_EQ(spine.size(), 5);
  EXPECT_GT(spine.total_macs(), 0.0);
  // The c2 shortcut reaches the add at c4's owner, spanning c3.
  EXPECT_GT(spine.spanning_bytes(2).count(), 0.0);
}

}  // namespace
}  // namespace mars::graph
