// PortfolioEngine contracts: racing semantics, budget slicing, winner
// provenance, cancellation, and cache-fingerprint isolation from its
// members (docs/SEARCH.md "Portfolio" section).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/test_support.h"
#include "mars/plan/engines.h"
#include "mars/serve/cache.h"
#include "mars/serve/service.h"

namespace mars::plan {
namespace {

using core::testing::AdaptiveFixture;

core::MarsConfig tiny_tuning(std::uint64_t seed = 7) {
  core::MarsConfig config;
  config.seed = seed;
  config.first_ga.population = 8;
  config.first_ga.generations = 5;
  config.first_ga.stall_generations = 3;
  config.second.ga.population = 6;
  config.second.ga.generations = 3;
  return config;
}

class PortfolioTest : public ::testing::Test {
 protected:
  AdaptiveFixture fx_;
};

TEST_F(PortfolioTest, WinnerProvenanceNamesTheMemberEngine) {
  const std::unique_ptr<SearchEngine> engine =
      make_engine("portfolio", tiny_tuning());
  const PlanResult result = engine->search(fx_.problem);

  EXPECT_EQ(result.provenance.engine, "portfolio");
  ASSERT_EQ(result.provenance.members.size(), 3u);  // ga + anneal + random
  std::vector<std::string> raced;
  long long member_evaluations = 0;
  for (const Provenance& member : result.provenance.members) {
    raced.push_back(member.engine);
    member_evaluations += member.evaluations;
    EXPECT_TRUE(member.members.empty()) << member.engine;  // leaves only
  }
  EXPECT_EQ(raced, (std::vector<std::string>{"ga", "anneal", "random"}));
  // The winner is one of the raced members, and the totals roll up.
  EXPECT_NE(std::find(raced.begin(), raced.end(), result.provenance.winner),
            raced.end())
      << result.provenance.winner;
  EXPECT_EQ(result.provenance.evaluations, member_evaluations);
  EXPECT_EQ(result.provenance.stopped, StopReason::kCompleted);
}

TEST_F(PortfolioTest, WinnerHasTheBestAnalyticMakespanOfTheRace) {
  // Race the members standalone under no budget: the portfolio's result
  // must match the best of them (ties to the earlier member).
  const core::MarsConfig tuning = tiny_tuning();
  const PlanResult portfolio =
      make_engine("portfolio", tuning)->search(fx_.problem);
  double best = std::numeric_limits<double>::infinity();
  for (const char* name : {"ga", "anneal", "random"}) {
    best = std::min(best, make_engine(name, tuning)
                              ->search(fx_.problem)
                              .summary.analytic_makespan.count());
  }
  EXPECT_DOUBLE_EQ(portfolio.summary.analytic_makespan.count(), best);
}

TEST_F(PortfolioTest, EvaluationBudgetIsSlicedAcrossMembers) {
  const core::MarsConfig tuning = tiny_tuning();
  const PlanResult result =
      make_engine("portfolio", tuning)->search(fx_.problem,
                                               Budget::evaluations(30));
  // Every member raced under a slice of the shared budget.
  ASSERT_EQ(result.provenance.members.size(), 3u);
  // Only the GA may overshoot its slice (generation granularity); the
  // per-evaluation members stop exactly, so the total stays within one
  // GA population of the budget.
  EXPECT_LE(result.provenance.evaluations,
            30 + tuning.first_ga.population);
  EXPECT_EQ(result.provenance.stopped, StopReason::kEvaluationBudget);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
}

TEST_F(PortfolioTest, CancelledPortfolioReturnsBestSoFar) {
  // Flip the token while the first member races: the portfolio stops
  // after it and returns that member's mapping as best-so-far.
  CancelToken token;
  Budget budget = Budget::cancellable(token);
  const std::unique_ptr<SearchEngine> engine =
      make_engine("portfolio", tiny_tuning());
  const PlanResult result =
      engine->search(fx_.problem, budget,
                     [&](const Progress&) { token.cancel(); });

  EXPECT_EQ(result.provenance.stopped, StopReason::kCancelled);
  ASSERT_EQ(result.provenance.members.size(), 1u);
  EXPECT_EQ(result.provenance.winner, result.provenance.members[0].engine);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
  EXPECT_GT(result.summary.simulated.count(), 0.0);
}

TEST_F(PortfolioTest, PreCancelledPortfolioStillReturnsAValidMapping) {
  CancelToken token;
  token.cancel();
  const PlanResult result = make_engine("portfolio", tiny_tuning())
                                ->search(fx_.problem,
                                         Budget::cancellable(token));
  EXPECT_EQ(result.provenance.stopped, StopReason::kCancelled);
  ASSERT_EQ(result.provenance.members.size(), 1u);
  EXPECT_NO_THROW(
      result.mapping.validate(fx_.spine, fx_.topo, fx_.designs, true));
}

TEST_F(PortfolioTest, CacheFingerprintNeverAliasesPortfolioAndMember) {
  // The serving cache must never hand a mapping searched by the whole
  // portfolio to a run configured with the winning member alone (or vice
  // versa): their spec strings — and so their fingerprints — differ.
  const core::MarsConfig tuning = tiny_tuning();
  const std::unique_ptr<SearchEngine> portfolio =
      make_engine("portfolio", tuning);
  const PlanResult result = portfolio->search(fx_.problem);
  const std::unique_ptr<SearchEngine> winner =
      make_engine(result.provenance.winner, tuning);

  const std::string portfolio_print = serve::MappingCache::fingerprint(
      fx_.topo, fx_.designs, true, serve::search_spec(*portfolio, {}));
  const std::string winner_print = serve::MappingCache::fingerprint(
      fx_.topo, fx_.designs, true, serve::search_spec(*winner, {}));
  EXPECT_NE(portfolio->spec_string(), winner->spec_string());
  EXPECT_NE(portfolio_print, winner_print);
  // The member's own spec is embedded in the portfolio's, so the two keys
  // stay coupled to the same knobs — but hash apart.
  EXPECT_NE(portfolio->spec_string().find(winner->spec_string()),
            std::string::npos);
}

TEST_F(PortfolioTest, ProgressAccumulatesAcrossMembers) {
  long long last = 0;
  bool monotone = true;
  const PlanResult result =
      make_engine("portfolio", tiny_tuning())
          ->search(fx_.problem, {}, [&](const Progress& progress) {
            monotone = monotone && progress.evaluations >= last;
            last = progress.evaluations;
          });
  EXPECT_TRUE(monotone);
  EXPECT_GT(last, 0);
  EXPECT_LE(last, result.provenance.evaluations);
}

TEST_F(PortfolioTest, RaceSpecSelectsMembersAndPerMemberWall) {
  const std::unique_ptr<SearchEngine> race =
      make_engine("race:ga+anneal,500", tiny_tuning());
  EXPECT_EQ(race->name(), "portfolio");
  const std::string spec = race->spec_string();
  EXPECT_NE(spec.find("member_wall_ms=500"), std::string::npos) << spec;
  EXPECT_NE(spec.find("ga["), std::string::npos) << spec;
  EXPECT_NE(spec.find("anneal["), std::string::npos) << spec;
  EXPECT_EQ(spec.find("random["), std::string::npos) << spec;

  const PlanResult result = race->search(fx_.problem);
  ASSERT_EQ(result.provenance.members.size(), 2u);
  EXPECT_EQ(result.provenance.members[0].engine, "ga");
  EXPECT_EQ(result.provenance.members[1].engine, "anneal");
}

TEST_F(PortfolioTest, RaceSpecAcceptsPerMemberSeeds) {
  // A member's @seed overrides the session seed for that member only; a
  // member without one inherits it. Each member's full spec (seed
  // included) must be embedded verbatim in the race's spec string.
  const std::unique_ptr<SearchEngine> race =
      make_engine("race:ga@11+anneal@9+random,250", tiny_tuning(7));
  const std::string spec = race->spec_string();
  EXPECT_NE(spec.find(make_engine("ga", tiny_tuning(11))->spec_string()),
            std::string::npos)
      << spec;
  EXPECT_NE(spec.find(make_engine("anneal", tiny_tuning(9))->spec_string()),
            std::string::npos)
      << spec;
  EXPECT_NE(spec.find(make_engine("random", tiny_tuning(7))->spec_string()),
            std::string::npos)
      << spec;
}

TEST_F(PortfolioTest, RaceMemberSeedsIsolateCacheFingerprints) {
  // Two races differing only in one member's seed explore different
  // trajectories, so the serving cache must never alias their mappings.
  const core::MarsConfig tuning = tiny_tuning();
  const std::unique_ptr<SearchEngine> seven =
      make_engine("race:ga@7+anneal@9", tuning);
  const std::unique_ptr<SearchEngine> ten =
      make_engine("race:ga@7+anneal@10", tuning);
  const std::unique_ptr<SearchEngine> inherited =
      make_engine("race:ga+anneal", tuning);

  const auto print = [this](const SearchEngine& engine) {
    return serve::MappingCache::fingerprint(fx_.topo, fx_.designs, true,
                                            serve::search_spec(engine, {}));
  };
  EXPECT_NE(seven->spec_string(), ten->spec_string());
  EXPECT_NE(print(*seven), print(*ten));
  EXPECT_NE(print(*seven), print(*inherited));
  // Same spec -> same fingerprint stays true with seeds in play.
  const std::unique_ptr<SearchEngine> again =
      make_engine("race:ga@7+anneal@9", tuning);
  EXPECT_EQ(print(*seven), print(*again));
}

TEST_F(PortfolioTest, BadRaceSpecsAreNamedErrors) {
  for (const char* spec :
       {"race:ga", "race:ga+gradient", "race:ga+anneal,abc",
        "race:ga+anneal,-5", "race:portfolio+ga", "race:ga+anneal,1,2",
        "race:ga@x+anneal", "race:ga@+anneal", "race:ga@-5+anneal",
        "race:ga@7.5+anneal", "race:ga+anneal,inf", "race:ga+anneal,0x10",
        "race:ga+anneal,nan", "race:ga+anneal,+5", "race:ga+anneal,5ms"}) {
    try {
      (void)make_engine(spec, tiny_tuning());
      FAIL() << "expected InvalidArgument for '" << spec << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << spec << " -> " << e.what();
    }
  }
}

TEST_F(PortfolioTest, ConstructorValidatesMembers) {
  std::vector<std::unique_ptr<SearchEngine>> one;
  one.push_back(make_engine("ga", tiny_tuning()));
  EXPECT_THROW((void)PortfolioEngine(std::move(one)), InvalidArgument);

  std::vector<std::unique_ptr<SearchEngine>> with_null;
  with_null.push_back(make_engine("ga", tiny_tuning()));
  with_null.push_back(nullptr);
  EXPECT_THROW((void)PortfolioEngine(std::move(with_null)), InvalidArgument);
}

}  // namespace
}  // namespace mars::plan
