// DesignSpace grammar, enumeration determinism, and the built artifacts.
// The named-error assertions pin the PR 3 usage-error convention the CLI
// satellite relies on: every rejection names the axis/flag and the
// offending value.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "mars/accel/registry.h"
#include "mars/explore/objective.h"
#include "mars/explore/space.h"
#include "mars/util/error.h"

namespace mars::explore {
namespace {

/// EXPECT_THROW + message-substring check in one place.
template <typename Fn>
void expect_error(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected InvalidArgument mentioning '" << needle << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(DesignSpace, DefaultSpecRoundTrips) {
  const DesignSpace space = DesignSpace::default_space();
  EXPECT_EQ(DesignSpace::parse(space.spec()).spec(), space.spec());
  // An empty spec means "all defaults".
  EXPECT_EQ(DesignSpace::parse("").spec(), space.spec());
  // Axis order in the input does not matter; the canonical spec is fixed.
  EXPECT_EQ(DesignSpace::parse("menus=full,solo;bw=2,8,16;accs=2,4,8;"
                               "families=clique,ring,grouped2")
                .spec(),
            space.spec());
  // A bw tier is the value its spec prints (6 decimals), so tiers that
  // print alike are one tier.
  const DesignSpace close = DesignSpace::parse("bw=2,2.0000001,0.0000015");
  EXPECT_NE(close.spec().find(";bw=2,0.000002;"), std::string::npos)
      << close.spec();
  EXPECT_EQ(DesignSpace::parse(close.spec()).spec(), close.spec());
}

TEST(DesignSpace, EnumerationIsPresetPrefixPlusRowMajorGrid) {
  const DesignSpace space =
      DesignSpace::parse("families=clique;accs=2,4;bw=8;menus=full");
  ASSERT_EQ(space.num_presets(), 2);
  EXPECT_TRUE(space.points()[0].preset);
  EXPECT_EQ(space.points()[0].family, "f1");
  EXPECT_TRUE(space.points()[1].preset);
  EXPECT_EQ(space.points()[1].family, "clique");
  // Grid: 1 family x 2 accs x 1 bw x 1 menu.
  ASSERT_EQ(space.points().size(), 4u);
  EXPECT_EQ(space.points()[2].spec(),
            "clique:2@8/SuperLIP+SystolicGEMM+WinogradF43");
  EXPECT_EQ(space.points()[3].spec(),
            "clique:4@8/SuperLIP+SystolicGEMM+WinogradF43");
  // index_of and coords_of are inverses over the grid.
  for (int index = space.num_presets();
       index < static_cast<int>(space.points().size()); ++index) {
    EXPECT_EQ(space.index_of(space.coords_of(index)), index);
  }
}

TEST(DesignSpace, MenuTokensExpandAndCanonicalise) {
  const DesignSpace solo = DesignSpace::parse("families=clique;accs=2;bw=8;"
                                              "menus=solo");
  // solo: one menu per design, 3 grid points.
  EXPECT_EQ(solo.points().size(), 2u + 3u);
  const DesignSpace pairs = DesignSpace::parse("families=clique;accs=2;bw=8;"
                                               "menus=pairs");
  EXPECT_EQ(pairs.points().size(), 2u + 3u);
  // Explicit lists canonicalise to registry order and dedupe against
  // named expansions.
  const DesignSpace mixed = DesignSpace::parse(
      "families=clique;accs=2;bw=8;menus=WinogradF43+SuperLIP,solo");
  EXPECT_NE(mixed.spec().find("menus=SuperLIP+WinogradF43,"),
            std::string::npos);
}

TEST(DesignSpace, NamedErrors) {
  expect_error([] { (void)DesignSpace::parse("families=torus"); },
               "families must be clique, ring or grouped2, got 'torus'");
  expect_error([] { (void)DesignSpace::parse("accs=1"); },
               "accs must be an integer in [2, 32], got '1'");
  expect_error([] { (void)DesignSpace::parse("accs=two"); },
               "accs must be an integer in [2, 32], got 'two'");
  expect_error([] { (void)DesignSpace::parse("bw=-4"); },
               "bw must be a positive Gb/s value, got '-4'");
  expect_error([] { (void)DesignSpace::parse("bw=inf"); },
               "bw must be a positive Gb/s value, got 'inf'");
  expect_error([] { (void)DesignSpace::parse("bw=1e-9"); },
               "bw must be a positive Gb/s value, got '1e-9'");
  expect_error([] { (void)DesignSpace::parse("bw=1e100"); },
               "bw must be a positive Gb/s value, got '1e100'");
  expect_error([] { (void)DesignSpace::parse("accs=0x8"); },
               "accs must be an integer in [2, 32], got '0x8'");
  expect_error([] { (void)DesignSpace::parse("menus=mystery"); },
               "got 'mystery'");
  expect_error([] { (void)DesignSpace::parse("menus=SuperLIP+SuperLIP"); },
               "lists design 'SuperLIP' twice");
  expect_error([] { (void)DesignSpace::parse("cores=4"); },
               "axis must be families, accs, bw or menus, got 'cores'");
  expect_error([] { (void)DesignSpace::parse("nonsense"); },
               "axis=value");
  expect_error([] { (void)DesignSpace::parse("families=grouped2;accs=3,4"); },
               "grouped2 requires even accs, got 3");
}

TEST(DesignSpace, BuildShapesMatchThePointSpec) {
  const DesignSpace space = DesignSpace::default_space();
  const BuiltPoint clique =
      space.build({"clique", 4, 16.0, accel::table2_design_names(), false});
  EXPECT_EQ(clique.topo.size(), 4);
  EXPECT_EQ(clique.designs.size(), 3);
  EXPECT_DOUBLE_EQ(clique.topo.link(0, 3).gbps(), 16.0);

  const BuiltPoint solo = space.build({"ring", 4, 8.0, {"SystolicGEMM"}, false});
  EXPECT_EQ(solo.designs.size(), 1);
  EXPECT_EQ(solo.designs.design(0).name(), "SystolicGEMM");
  // Ring: adjacent linked, opposite corners not.
  EXPECT_GT(solo.topo.link(0, 1).gbps(), 0.0);
  EXPECT_DOUBLE_EQ(solo.topo.link(0, 2).gbps(), 0.0);

  const BuiltPoint f1 =
      space.build({"f1", 8, 8.0, accel::table2_design_names(), true});
  EXPECT_EQ(f1.topo.size(), 8);
}

TEST(Objectives, ParseAndSpec) {
  const std::vector<Objective> all = parse_objectives("makespan,energy,cost");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(objectives_spec(all), "makespan+energy+cost");
  // Order is preserved.
  EXPECT_EQ(objectives_spec(parse_objectives("cost,makespan")),
            "cost+makespan");
}

TEST(Objectives, NamedErrors) {
  expect_error([] { (void)parse_objectives("makespan,latency"); },
               "must be a comma-separated subset of makespan, energy, cost, "
               "got 'latency'");
  expect_error([] { (void)parse_objectives("cost,cost"); },
               "objectives list names 'cost' twice");
  expect_error([] { (void)parse_objectives(""); }, "objectives list is empty");
}

TEST(Objectives, HardwareCostClosedForm) {
  const DesignSpace space = DesignSpace::default_space();
  const BuiltPoint built =
      space.build({"clique", 4, 16.0, accel::table2_design_names(), false});
  double worst_area = 0.0;
  for (const accel::DesignId id : built.designs.ids()) {
    worst_area = std::max(worst_area, built.designs.design(id).area_cost());
  }
  // 4 cards x (base + worst area) + 6 direct links x 16 Gb/s x rate.
  const double expected =
      4.0 * (kCardBaseCost + worst_area) + 6.0 * 16.0 * kLinkCostPerGbps;
  EXPECT_DOUBLE_EQ(hardware_cost(built), expected);
  // More provisioned bandwidth costs strictly more.
  const BuiltPoint slower =
      space.build({"clique", 4, 8.0, accel::table2_design_names(), false});
  EXPECT_LT(hardware_cost(slower), hardware_cost(built));
}

}  // namespace
}  // namespace mars::explore
