#include "mars/util/json.h"

#include <gtest/gtest.h>

#include <limits>

#include "mars/util/error.h"

namespace mars {
namespace {

TEST(Json, Leaves) {
  EXPECT_EQ(JsonValue::integer(42).dump(), "42");
  EXPECT_EQ(JsonValue::integer(-7).dump(), "-7");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue::boolean(false).dump(), "false");
  EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");
  EXPECT_EQ(JsonValue::number(1.5).dump(), "1.5");
}

TEST(Json, NumbersRoundTripPrecision) {
  EXPECT_EQ(JsonValue::number(0.832).dump(), "0.832");
  EXPECT_EQ(JsonValue::number(4.098659125).dump(), "4.098659125");
  // Non-finite values degrade to null (valid JSON).
  EXPECT_EQ(JsonValue::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, ArraysAndObjects) {
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::integer(1));
  arr.push(JsonValue::string("two"));
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");
  EXPECT_EQ(arr.size(), 2u);

  JsonValue obj = JsonValue::object();
  obj.set("a", JsonValue::integer(1)).set("b", JsonValue::boolean(false));
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":false}");
}

TEST(Json, Nesting) {
  JsonValue inner = JsonValue::object();
  inner.set("x", JsonValue::number(2.0));
  JsonValue arr = JsonValue::array();
  arr.push(std::move(inner));
  JsonValue outer = JsonValue::object();
  outer.set("items", std::move(arr));
  EXPECT_EQ(outer.dump(), "{\"items\":[{\"x\":2}]}");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(JsonValue::string("say \"hi\"\n").dump(), "\"say \\\"hi\\\"\\n\"");
  EXPECT_EQ(JsonValue::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonValue::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, TypeMisuseThrows) {
  JsonValue arr = JsonValue::array();
  EXPECT_THROW(arr.set("k", JsonValue::integer(1)), InvalidArgument);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(obj.push(JsonValue::integer(1)), InvalidArgument);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(JsonValue::array().dump(), "[]");
  EXPECT_EQ(JsonValue::object().dump(), "{}");
}

TEST(JsonParse, Leaves) {
  EXPECT_EQ(JsonValue::parse("42").as_integer(), 42);
  EXPECT_EQ(JsonValue::parse("-7").as_integer(), -7);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1.5").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_TRUE(JsonValue::parse("true").as_boolean());
  EXPECT_FALSE(JsonValue::parse("false").as_boolean());
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  // Integers stay integers; as_number reads them too.
  EXPECT_TRUE(JsonValue::parse("42").is_integer());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_FALSE(JsonValue::parse("42.0").is_integer());
  // An integer past long long's range falls back to a double.
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_integer(),
            std::numeric_limits<long long>::min());
  const JsonValue huge = JsonValue::parse("92233720368547758070");
  EXPECT_FALSE(huge.is_integer());
  EXPECT_DOUBLE_EQ(huge.as_number(), 9.223372036854775807e19);
}

TEST(JsonParse, Containers) {
  const JsonValue arr = JsonValue::parse(" [1, \"two\", [true]] ");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(0).as_integer(), 1);
  EXPECT_EQ(arr.at(1).as_string(), "two");
  EXPECT_TRUE(arr.at(2).at(0).as_boolean());

  const JsonValue obj = JsonValue::parse("{\"a\": 1, \"b\": {\"c\": []}}");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("z"));
  EXPECT_EQ(obj.get("a").as_integer(), 1);
  EXPECT_EQ(obj.get("b").get("c").size(), 0u);
  EXPECT_THROW((void)obj.get("missing"), InvalidArgument);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(JsonValue::parse("\"say \\\"hi\\\"\\n\"").as_string(),
            "say \"hi\"\n");
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(JsonValue::parse("\"a\\/b\"").as_string(), "a/b");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("conv1\n\"x\""));
  obj.set("count", JsonValue::integer(12));
  obj.set("scale", JsonValue::number(0.832));
  obj.set("flag", JsonValue::boolean(true));
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::integer(1)).push(JsonValue::string("two"));
  obj.set("items", std::move(arr));
  // parse(dump) reproduces the document byte-for-byte.
  EXPECT_EQ(JsonValue::parse(obj.dump()).dump(), obj.dump());
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* text :
       {"", "   ", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "nul", "+1",
        "1.2.3", "\"unterminated", "\"bad \\q escape\"", "\"\\u12\"",
        "\"\\ud800\"", "[1] trailing", "{'a':1}", "[01x]", "1e999", "-",
        "0x10", "[1e]"}) {
    EXPECT_THROW((void)JsonValue::parse(text), InvalidArgument) << text;
  }
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowing) {
  // A corrupt/hostile document must fail catchably, not blow the stack.
  const std::string deep(100000, '[');
  EXPECT_THROW((void)JsonValue::parse(deep), InvalidArgument);
  EXPECT_THROW((void)JsonValue::parse(std::string(100000, '[') +
                                      std::string(100000, ']')),
               InvalidArgument);
  // Shallow nesting is unaffected, and sibling containers do not count
  // toward the depth cap.
  EXPECT_EQ(JsonValue::parse("[[[[[[[[[[1]]]]]]]]]]").dump(),
            "[[[[[[[[[[1]]]]]]]]]]");
  std::string wide = "[";
  for (int i = 0; i < 500; ++i) wide += "{},";
  wide += "{}]";
  EXPECT_EQ(JsonValue::parse(wide).size(), 501u);
}

TEST(JsonParse, AccessorKindMismatchThrows) {
  const JsonValue value = JsonValue::parse("{\"a\": [1]}");
  EXPECT_THROW((void)value.as_string(), InvalidArgument);
  EXPECT_THROW((void)value.get("a").as_integer(), InvalidArgument);
  EXPECT_THROW((void)value.get("a").at(5), InvalidArgument);
  EXPECT_THROW((void)value.at(0), InvalidArgument);
  EXPECT_THROW((void)JsonValue::parse("\"s\"").as_number(), InvalidArgument);
}

}  // namespace
}  // namespace mars
