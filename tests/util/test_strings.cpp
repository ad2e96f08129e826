#include "mars/util/strings.h"

#include <gtest/gtest.h>

namespace mars {
namespace {

TEST(Join, Basic) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(12.0), "12");
  EXPECT_EQ(format_double(0.832), "0.832");
  EXPECT_EQ(format_double(0.8321, 3), "0.832");
  EXPECT_EQ(format_double(-0.0), "0");
}

TEST(FormatDouble, RespectsPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.14159, 4), "3.1416");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(SiCount, PaperStyleCounts) {
  EXPECT_EQ(si_count(61.1e6, 1), "61.1M");
  EXPECT_EQ(si_count(3.68e9, 2), "3.68G");
  EXPECT_EQ(si_count(727e6, 0), "727M");
  EXPECT_EQ(si_count(1.5e12, 1), "1.5T");
  EXPECT_EQ(si_count(512.0), "512");
  EXPECT_EQ(si_count(2048.0, 1), "2K");
}

TEST(SignedPercent, PaperStyleReductions) {
  EXPECT_EQ(signed_percent(-0.322), "-32.2%");
  EXPECT_EQ(signed_percent(0.101), "+10.1%");
  EXPECT_EQ(signed_percent(0.0), "+0%");
  EXPECT_EQ(signed_percent(-0.594, 1), "-59.4%");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("conv1.weight", "conv1"));
  EXPECT_FALSE(starts_with("conv1", "conv10"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(ParseU64, AcceptsWholeDecimalStringsUpToTheMaximum) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
}

TEST(ParseU64, RejectsEverythingElse) {
  for (const char* text : {"", "abc", "-3", "+1", " 1", "1 ", "1x", "0x10",
                           "1.0", "18446744073709551616"}) {
    EXPECT_EQ(parse_u64(text), std::nullopt) << "'" << text << "'";
  }
}

TEST(ParseDouble, AcceptsWholeFiniteDecimals) {
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("-2.5"), -2.5);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double(".5"), 0.5);
}

TEST(ParseDouble, RejectsEverythingElse) {
  for (const char* text : {"", "abc", "nan", "-nan", "inf", "-inf", "+1",
                           " 1", "1 ", "1x", "1e999", "0x10"}) {
    EXPECT_EQ(parse_double(text), std::nullopt) << "'" << text << "'";
  }
}

}  // namespace
}  // namespace mars
