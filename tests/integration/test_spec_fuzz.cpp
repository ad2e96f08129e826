// Seeded, bounded fuzz over the spec grammars a user types: serving
// policies, design spaces, mapper races and replayed arrival traces.
// Valid specs are mutated with the inputs number parsers tend to let
// through (inf, nan, hex, signs, spaces, junk bytes, stray separators).
// Every mutant must either parse, and then print a spec that parses back
// to the same print, or throw an InvalidArgument whose message carries no
// check or library text. No other exception may escape. Everything runs
// in-process on one thread.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "mars/core/mars.h"
#include "mars/explore/space.h"
#include "mars/plan/engines.h"
#include "mars/serve/batcher.h"
#include "mars/serve/workload.h"
#include "mars/util/error.h"
#include "mars/util/rng.h"

namespace mars {
namespace {

constexpr int kCasesPerGrammar = 1000;

const std::vector<std::string>& insertions() {
  static const std::vector<std::string> kInsertions = {
      "inf", "nan", "-inf", "0x", "0x1p3", "+", "-", " ", "\t", "e", "e-9",
      "x", ".", "00", "9999999999", "\xff", std::string(1, '\0'), ":", ",",
      ";", "=", "@", "/", "\n"};
  return kInsertions;
}

/// 1-3 random edits of `spec`: insert a hostile token, delete a byte, or
/// overwrite a byte with a random one.
std::string mutate(std::string spec, Rng& rng) {
  const int edits = rng.uniform_int(1, 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.index(spec.size() + 1);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        spec.insert(at, insertions()[rng.index(insertions().size())]);
        break;
      case 1:
        if (at < spec.size()) spec.erase(at, 1);
        break;
      default:
        if (at < spec.size()) spec[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
    }
  }
  return spec;
}

/// Runs `parse` on mutants of `seeds`; `parse` returns the printed spec
/// of a successful parse, or "" for a grammar with no print form.
void fuzz(const std::vector<std::string>& seeds,
          const std::function<std::string(const std::string&)>& parse,
          std::uint64_t seed) {
  Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kCasesPerGrammar; ++i) {
    const std::string spec = mutate(seeds[rng.index(seeds.size())], rng);
    try {
      const std::string printed = parse(spec);
      ++parsed;
      if (printed.empty()) continue;
      try {
        EXPECT_EQ(parse(printed), printed) << "mutant '" << spec << "'";
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant '" << spec << "' printed '" << printed
                      << "', which does not parse: " << e.what();
      }
    } catch (const InvalidArgument& e) {
      ++rejected;
      const std::string what = e.what();
      EXPECT_EQ(what.find("MARS_CHECK"), std::string::npos) << what;
      EXPECT_EQ(what.find("std::"), std::string::npos) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant '" << spec << "' threw a non-InvalidArgument: "
                    << e.what();
    }
  }
  // Both outcomes occur, so the mutator neither only breaks nor only
  // preserves the seeds.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzz, ServingPolicies) {
  fuzz({"none", "size:4", "slo:60", "size:4+slo:60", "timeout:1.25:4+shed:8"},
       [](const std::string& spec) {
         return serve::PolicySpec::parse(spec).to_string();
       },
       1);
  fuzz({"size:4", "timeout:2:8", "timeout:0.5"},
       [](const std::string& spec) {
         return serve::BatchPolicy::parse(spec).to_string();
       },
       2);
  fuzz({"slo:60", "shed:4"},
       [](const std::string& spec) {
         return serve::AdmissionPolicy::parse(spec).to_string();
       },
       3);
}

TEST(SpecFuzz, DesignSpaces) {
  fuzz({"families=clique,ring;accs=2,4;bw=8;menus=full",
        "accs=2,4,8;bw=2,8,16", "bw=0.5,12.25;menus=solo,pairs",
        "families=grouped2;accs=4;menus=SuperLIP+SystolicGEMM"},
       [](const std::string& spec) {
         return explore::DesignSpace::parse(spec).spec();
       },
       4);
}

TEST(SpecFuzz, MapperRaces) {
  core::MarsConfig tuning;
  fuzz({"race:ga+anneal", "race:ga@7+anneal@9,250", "race:ga+random,0.5",
        "race:anneal+random+baseline,1000"},
       [&](const std::string& spec) {
         // A race has no grammar-level print form: spec_string() names the
         // built engine, so only the parse outcome is checked.
         (void)plan::make_engine(spec, tuning);
         return std::string();
       },
       5);
}

TEST(SpecFuzz, ReplayTraces) {
  fuzz({"arrival_s,model\n0.5,alexnet\n0.25,resnet34\n",
        "0,alexnet\n1e-3,alexnet\n2.5,resnet34\n"},
       [](const std::string& csv) {
         std::istringstream in(csv);
         (void)serve::replay_trace(in, {"alexnet", "resnet34"});
         return std::string();
       },
       6);
}

}  // namespace
}  // namespace mars
