// Model-zoo validation against the paper's Table III reference columns
// (#Params and FLOPs; the paper counts one MAC as one FLOP) and the
// published torchvision parameter counts.
#include <gtest/gtest.h>

#include "mars/graph/models/models.h"
#include "mars/graph/spine.h"
#include "mars/util/error.h"

namespace mars::graph {
namespace {

struct ModelReference {
  const char* name;
  double params;     // paper Table III
  double macs;       // paper Table III "FLOPs"
  double tolerance;  // relative
};

class ModelReferenceTest : public ::testing::TestWithParam<ModelReference> {};

TEST_P(ModelReferenceTest, ParameterCountMatchesPaper) {
  const ModelReference& ref = GetParam();
  const Graph g = models::by_name(ref.name);
  EXPECT_NEAR(g.total_params() / ref.params, 1.0, ref.tolerance)
      << g.name() << " params " << g.total_params();
}

TEST_P(ModelReferenceTest, MacCountMatchesPaper) {
  const ModelReference& ref = GetParam();
  const Graph g = models::by_name(ref.name);
  EXPECT_NEAR(g.total_macs() / ref.macs, 1.0, ref.tolerance)
      << g.name() << " macs " << g.total_macs();
}

TEST_P(ModelReferenceTest, GraphValidates) {
  const Graph g = models::by_name(GetParam().name);
  EXPECT_NO_THROW(g.validate());
}

TEST_P(ModelReferenceTest, SpineExtractable) {
  const Graph g = models::by_name(GetParam().name);
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_GT(spine.size(), 0);
  EXPECT_EQ(spine.size(), g.num_spine_layers());
}

// Tolerances: AlexNet's paper FLOPs (727M) sits between the 224- and
// 227-pixel conventions; everything else matches torchvision within 2%.
INSTANTIATE_TEST_SUITE_P(
    Table3Models, ModelReferenceTest,
    ::testing::Values(ModelReference{"alexnet", 61.1e6, 727e6, 0.03},
                      ModelReference{"vgg16", 138e6, 15.5e9, 0.02},
                      ModelReference{"resnet34", 21.8e6, 3.68e9, 0.02},
                      ModelReference{"resnet101", 44.55e6, 7.85e9, 0.02},
                      ModelReference{"wrn50_2", 68.8e6, 11.4e9, 0.02}),
    [](const ::testing::TestParamInfo<ModelReference>& info) {
      return info.param.name;
    });

TEST(Models, AlexNetStructure) {
  const Graph g = models::alexnet();
  EXPECT_EQ(g.num_convs(), 5);          // the paper's "#Convs" column
  EXPECT_EQ(g.num_spine_layers(), 8);   // + 3 FC layers
}

TEST(Models, Vgg16Structure) {
  const Graph g = models::vgg16();
  EXPECT_EQ(g.num_convs(), 13);
  EXPECT_EQ(g.num_spine_layers(), 16);
}

TEST(Models, ResNet34Structure) {
  const Graph g = models::resnet34();
  // 33 main-path convs (paper's count) + 3 projection shortcuts.
  EXPECT_EQ(g.num_convs(), 36);
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_EQ(spine.size(), 37);  // + fc
}

TEST(Models, ResNet101Structure) {
  const Graph g = models::resnet101();
  // 100 main-path convs (paper) + 4 projections.
  EXPECT_EQ(g.num_convs(), 104);
}

TEST(Models, WideResNetStructure) {
  const Graph g = models::wide_resnet50_2();
  // 49 main-path convs (paper) + 4 projections.
  EXPECT_EQ(g.num_convs(), 53);
  // Doubled bottleneck width: layer1 blocks use 128-wide 3x3 convs.
  bool saw_wide = false;
  for (const Layer& layer : g.layers()) {
    if (layer.name == "layer1.0.conv2") {
      saw_wide = layer.conv.out_channels == 128;
    }
  }
  EXPECT_TRUE(saw_wide);
}

TEST(Models, ResNetFamilyDepths) {
  EXPECT_EQ(models::resnet(18).num_convs(), 20);
  EXPECT_EQ(models::resnet(50).num_convs(), 53);
  EXPECT_EQ(models::resnet(152).num_convs(), 155);
}

TEST(Models, VggFamilyDepths) {
  EXPECT_EQ(models::vgg(11).num_convs(), 8);
  EXPECT_EQ(models::vgg(13).num_convs(), 10);
  EXPECT_EQ(models::vgg(19).num_convs(), 16);
}

TEST(Models, ResNet18ReferenceParams) {
  // torchvision: 11.69M params, 1.81G MACs.
  const Graph g = models::resnet(18);
  EXPECT_NEAR(g.total_params() / 11.69e6, 1.0, 0.02);
  EXPECT_NEAR(g.total_macs() / 1.81e9, 1.0, 0.03);
}

TEST(Models, ResNet50ReferenceParams) {
  // torchvision: 25.56M params, 4.09G MACs.
  const Graph g = models::resnet(50);
  EXPECT_NEAR(g.total_params() / 25.56e6, 1.0, 0.02);
  EXPECT_NEAR(g.total_macs() / 4.09e9, 1.0, 0.03);
}

TEST(Models, CasiaSurfIsThreeStreamFusion) {
  const Graph g = models::casia_surf();
  EXPECT_EQ(g.inputs().size(), 3u);
  EXPECT_NO_THROW(g.validate());
  bool has_concat = false;
  for (const Layer& layer : g.layers()) {
    has_concat = has_concat || layer.kind == LayerKind::kConcat;
  }
  EXPECT_TRUE(has_concat);
}

TEST(Models, FaceBagNetIsThreeStreamFusion) {
  const Graph g = models::facebagnet();
  EXPECT_EQ(g.inputs().size(), 3u);
  EXPECT_NO_THROW(g.validate());
  // Patch inputs keep resolution high relative to channels.
  EXPECT_EQ(g.layer(g.inputs().front()).output_shape, (TensorShape{3, 96, 96}));
}

TEST(Models, ByNameRejectsUnknown) {
  EXPECT_THROW((void)models::by_name("lenet"), InvalidArgument);
}

TEST(Models, ZooNamesAreConstructible) {
  for (const std::string& name : models::zoo_names()) {
    const Graph g = models::by_name(name);
    EXPECT_NO_THROW(g.validate()) << name;
    EXPECT_GT(g.total_macs(), 0.0) << name;
  }
}

TEST(Models, ZooByNameRoundTripsThroughSpine) {
  // Serving configs address models purely by zoo name: every published
  // name must build a graph whose spine extracts cleanly, end to end.
  const std::vector<std::string> names = models::zoo_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const Graph g = models::by_name(name);
    const ConvSpine spine = ConvSpine::extract(g);
    EXPECT_GT(spine.size(), 0) << name;
    EXPECT_EQ(spine.size(), g.num_spine_layers()) << name;
    EXPECT_GT(spine.input_bytes().count(), 0.0) << name;
    EXPECT_GT(spine.output_bytes().count(), 0.0) << name;
    // The spine keeps the zoo name, so serving reports can round-trip
    // from a request's model string back to the mapped workload.
    EXPECT_EQ(spine.model_name(), g.name()) << name;
  }
}

TEST(Models, DtypePropagates) {
  const Graph g = models::alexnet(224, DataType::kFloat32);
  EXPECT_EQ(g.dtype(), DataType::kFloat32);
  const ConvSpine spine = ConvSpine::extract(g);
  EXPECT_EQ(spine.dtype(), DataType::kFloat32);
}

}  // namespace
}  // namespace mars::graph
