#include "mars/util/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mars/util/error.h"
#include "mars/util/worker_pool.h"

namespace mars::util {
namespace {

using enum FlagKind;

const FlagTable kTable = {
    {"quick"},
    {"model", kText},
    {"json", kText, {}, "out.json"},
    {"rate", kNumber, above(0)},
    {"slo", kNumber, at_least(0)},
    {"threads", kInteger, {1, false, kMaxThreads}},
    {"seed", kSeed},
    {"tenant", kRepeatable},
};

struct Rejection {
  std::vector<std::string> args;
  std::string message;  // a substring of the InvalidArgument text
};

TEST(Flags, RejectsEachRuleWithANamedError) {
  const std::vector<Rejection> cases = {
      // Unknown flag, or a misspelling of a known one.
      {{"--thread", "4"}, "--thread is not a flag"},
      {{"--bogus"}, "--bogus is not a flag"},
      // Positional tokens, on their own or after a switch.
      {{"alexnet", "--quick"}, "unexpected argument 'alexnet'"},
      {{"--quick", "alexnet"}, "(--quick takes no value)"},
      // A value flag with no value: end of input or another flag next.
      {{"--model"}, "--model needs a value"},
      {{"--model", "--quick"}, "--model needs a value"},
      {{"--rate"}, "--rate needs a value"},
      // Numbers: malformed, not finite, or outside the range.
      {{"--rate", "abc"}, "--rate needs a finite number, got 'abc'"},
      {{"--rate", "nan"}, "--rate needs a finite number, got 'nan'"},
      {{"--rate", "inf"}, "--rate needs a finite number, got 'inf'"},
      {{"--rate", "1x"}, "--rate needs a finite number"},
      {{"--rate", "0"}, "--rate must be in (0, inf), got '0'"},
      {{"--slo", "-1"}, "--slo must be in [0, inf), got '-1'"},
      // Integers: not a whole decimal, or outside the range.
      {{"--threads", "2.5"}, "--threads needs an integer, got '2.5'"},
      {{"--threads", "1e3"}, "--threads needs an integer"},
      {{"--threads", "nan"}, "--threads needs an integer"},
      {{"--threads", "99999999999"}, "--threads needs an integer"},
      {{"--threads", "0"}, "--threads must be in [1, 1024], got '0'"},
      {{"--threads", "1025"}, "--threads must be in [1, 1024], got '1025'"},
      // Seeds: whole decimal uint64 only.
      {{"--seed", "-3"}, "--seed needs a non-negative integer, got '-3'"},
      {{"--seed", "abc"}, "--seed needs a non-negative integer"},
  };
  for (const Rejection& c : cases) {
    std::string joined;
    for (const std::string& arg : c.args) joined += arg + " ";
    try {
      (void)parse_flags(kTable, c.args);
      ADD_FAILURE() << "accepted: " << joined;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << joined << "-> " << e.what();
    }
  }
}

TEST(Flags, ThreadsCapIsTheWorkerPoolCap) {
  const Flags flags =
      parse_flags(kTable, {"--threads", std::to_string(kMaxThreads)});
  EXPECT_EQ(flags.integer("threads", 1), kMaxThreads);
  EXPECT_THROW((void)parse_flags(
                   kTable, {"--threads", std::to_string(kMaxThreads + 1)}),
               InvalidArgument);
}

TEST(Flags, AbsentFlagsReadTheirFallbacks) {
  const Flags flags = parse_flags(kTable, {});
  EXPECT_FALSE(flags.help());
  EXPECT_FALSE(flags.has("quick"));
  EXPECT_FALSE(flags.has("model"));
  EXPECT_EQ(flags.text("model", "resnet34"), "resnet34");
  EXPECT_EQ(flags.number("rate", 100.0), 100.0);
  EXPECT_EQ(flags.integer("threads", 1), 1);
  EXPECT_EQ(flags.seed("seed", 1), 1u);
  EXPECT_TRUE(flags.all("tenant").empty());
}

TEST(Flags, LastOccurrenceWins) {
  const Flags flags = parse_flags(
      kTable, {"--model", "a", "--rate", "5", "--threads", "2", "--seed", "7",
               "--model", "b", "--rate", "2.5", "--threads", "3", "--seed",
               "18446744073709551615"});
  EXPECT_EQ(flags.text("model"), "b");
  EXPECT_EQ(flags.number("rate", 0.0), 2.5);
  EXPECT_EQ(flags.integer("threads", 1), 3);
  EXPECT_EQ(flags.seed("seed", 1), 18446744073709551615ull);
}

TEST(Flags, RepeatableKeepsEveryOccurrenceInOrder) {
  const Flags flags = parse_flags(
      kTable, {"--tenant", "facebagnet:2", "--quick", "--tenant", "resnet50"});
  EXPECT_EQ(flags.all("tenant"),
            (std::vector<std::string>{"facebagnet:2", "resnet50"}));
}

TEST(Flags, SwitchTakesNoValue) {
  const Flags flags = parse_flags(kTable, {"--quick", "--quick", "--slo", "0"});
  EXPECT_TRUE(flags.has("quick"));
  EXPECT_EQ(flags.number("slo", 100.0), 0.0);
}

TEST(Flags, OnlyADoubleDashTokenEndsAValue) {
  EXPECT_EQ(parse_flags(kTable, {"--model", "-x"}).text("model"), "-x");
  EXPECT_EQ(parse_flags(kTable, {"--slo", "-0"}).number("slo", 1.0), 0.0);
}

TEST(Flags, BareValueAppliesOnlyWithoutAValue) {
  EXPECT_EQ(parse_flags(kTable, {"--json"}).text("json"), "out.json");
  EXPECT_EQ(parse_flags(kTable, {"--json", "--quick"}).text("json"),
            "out.json");
  EXPECT_EQ(parse_flags(kTable, {"--json", "x.json"}).text("json"), "x.json");
}

TEST(Flags, HelpStopsParsing) {
  EXPECT_TRUE(parse_flags(kTable, {"--quick", "--help", "--bogus"}).help());
  EXPECT_TRUE(parse_flags(kTable, {"-h"}).help());
}

TEST(Flags, DeclaringAFlagTwiceIsAProgramBug) {
  const FlagTable table = {{"model", kText}, {"model", kRepeatable}};
  EXPECT_THROW((void)parse_flags(table, {}), InternalError);
}

TEST(Flags, ReadingAnUndeclaredFlagOrKindIsAProgramBug) {
  const Flags flags = parse_flags(kTable, {"--rate", "5"});
  EXPECT_THROW((void)flags.has("thread"), InternalError);
  EXPECT_THROW((void)flags.integer("rate", 1), InternalError);
  EXPECT_THROW((void)flags.text("tenant"), InternalError);
}

}  // namespace
}  // namespace mars::util
