#include <gtest/gtest.h>

#include <sstream>

#include "mars/serve/workload.h"
#include "mars/util/error.h"

namespace mars::serve {
namespace {

TEST(PoissonArrivals, DeterministicUnderSeed) {
  const std::vector<double> mix = {2.0, 1.0};
  const auto a = poisson_arrivals(mix, 100.0, Seconds(2.0), 7);
  const auto b = poisson_arrivals(mix, 100.0, Seconds(2.0), 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival.count(), b[i].arrival.count());
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].id, b[i].id);
  }
  const auto c = poisson_arrivals(mix, 100.0, Seconds(2.0), 8);
  ASSERT_FALSE(c.empty());
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < c.size(); ++i) {
    differs = c[i].arrival != a[i].arrival;
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonArrivals, OrderedWithinDurationAndNumbered) {
  const auto requests = poisson_arrivals({1.0}, 50.0, Seconds(4.0), 1);
  ASSERT_FALSE(requests.empty());
  Seconds previous{};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, static_cast<int>(i));
    EXPECT_EQ(requests[i].client, -1);
    EXPECT_GE(requests[i].arrival.count(), previous.count());
    EXPECT_LT(requests[i].arrival.count(), 4.0);
    previous = requests[i].arrival;
  }
}

TEST(PoissonArrivals, CountTracksRate) {
  const auto slow = poisson_arrivals({1.0}, 50.0, Seconds(5.0), 3);
  const auto fast = poisson_arrivals({1.0}, 200.0, Seconds(5.0), 3);
  // Expected 250 vs 1000 arrivals; allow generous stochastic slack.
  EXPECT_GT(slow.size(), 150u);
  EXPECT_LT(slow.size(), 400u);
  EXPECT_GT(fast.size(), 2.5 * slow.size());
}

TEST(PoissonArrivals, ZeroWeightModelNeverDrawn) {
  for (const Request& r : poisson_arrivals({1.0, 0.0}, 100.0, Seconds(2.0), 5)) {
    EXPECT_EQ(r.model, 0);
  }
  for (const Request& r : poisson_arrivals({0.0, 1.0}, 100.0, Seconds(2.0), 5)) {
    EXPECT_EQ(r.model, 1);
  }
}

TEST(PoissonArrivals, RejectsBadArguments) {
  EXPECT_THROW((void)poisson_arrivals({}, 10.0, Seconds(1.0), 1),
               InvalidArgument);
  EXPECT_THROW((void)poisson_arrivals({1.0}, 0.0, Seconds(1.0), 1),
               InvalidArgument);
  EXPECT_THROW((void)poisson_arrivals({1.0}, 10.0, Seconds(0.0), 1),
               InvalidArgument);
  EXPECT_THROW((void)poisson_arrivals({-1.0, 2.0}, 10.0, Seconds(1.0), 1),
               InvalidArgument);
  EXPECT_THROW((void)poisson_arrivals({0.0, 0.0}, 10.0, Seconds(1.0), 1),
               InvalidArgument);
}

TEST(PickModel, FollowsCumulativeWeights) {
  const std::vector<double> weights = {1.0, 3.0};
  EXPECT_EQ(pick_model(weights, 0.0), 0);
  EXPECT_EQ(pick_model(weights, 0.24), 0);
  EXPECT_EQ(pick_model(weights, 0.26), 1);
  EXPECT_EQ(pick_model(weights, 0.99), 1);
  EXPECT_THROW((void)pick_model(weights, 1.0), InvalidArgument);
}

TEST(TraceReplay, ParsesSortsAndRenumbers) {
  std::istringstream trace(
      "arrival_s,model\n"
      "0.020,alexnet\n"
      "0.005,resnet34\n"
      "0.005,alexnet\n");
  const auto requests = replay_trace(trace, {"alexnet", "resnet34"});
  ASSERT_EQ(requests.size(), 3u);
  // Stable sort: the two 5 ms rows keep file order.
  EXPECT_EQ(requests[0].model, 1);
  EXPECT_EQ(requests[1].model, 0);
  EXPECT_EQ(requests[2].model, 0);
  EXPECT_DOUBLE_EQ(requests[2].arrival.count(), 0.020);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, static_cast<int>(i));
  }
}

TEST(TraceReplay, ToleratesBomAndBlankLines) {
  std::istringstream trace(
      "\xEF\xBB\xBF\n"
      "arrival_s,model\r\n"
      "\n"
      "0.010,alexnet\r\n");
  const auto requests = replay_trace(trace, {"alexnet"});
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_DOUBLE_EQ(requests[0].arrival.count(), 0.010);
}

TEST(TraceReplay, RejectsMalformedRows) {
  const std::vector<std::string> served = {"alexnet"};
  {
    std::istringstream trace("arrival_s,model\n0.1,vgg16\n");
    EXPECT_THROW((void)replay_trace(trace, served), InvalidArgument);
  }
  {
    std::istringstream trace("arrival_s,model\n0.1\n");
    EXPECT_THROW((void)replay_trace(trace, served), InvalidArgument);
  }
  // Arrival times are whole finite decimals: no hex, sign '+', spaces or
  // trailing text.
  for (const char* arrival : {"not_a_number", "inf", "nan", "0x10", "1.5x",
                              "+1", " 1", "1 ", ""}) {
    std::istringstream trace(std::string("arrival_s,model\n") + arrival +
                             ",alexnet\n");
    EXPECT_THROW((void)replay_trace(trace, served), InvalidArgument)
        << "'" << arrival << "'";
  }
  {
    std::istringstream trace("arrival_s,model\n-0.1,alexnet\n");
    EXPECT_THROW((void)replay_trace(trace, served), InvalidArgument);
  }
}

TEST(TraceReplay, MissingFileRejected) {
  EXPECT_THROW((void)replay_trace_file("/nonexistent/trace.csv", {"alexnet"}),
               InvalidArgument);
}

TEST(ClosedLoop, ClientsSplitProportionally) {
  const ClosedLoopSpec spec =
      make_closed_loop({2.0, 1.0}, 6, milliseconds(1.0));
  ASSERT_EQ(spec.clients(), 6);
  int counts[2] = {0, 0};
  for (int model : spec.client_model) ++counts[model];
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 2);
  EXPECT_DOUBLE_EQ(spec.think.millis(), 1.0);
}

TEST(ClosedLoop, ZeroWeightModelGetsNoClients) {
  const ClosedLoopSpec spec = make_closed_loop({1.0, 0.0}, 4, Seconds(0.0));
  for (int model : spec.client_model) EXPECT_EQ(model, 0);
}

TEST(ClosedLoop, RejectsBadArguments) {
  EXPECT_THROW((void)make_closed_loop({1.0}, 0, Seconds(0.0)), InvalidArgument);
  EXPECT_THROW((void)make_closed_loop({1.0}, 2, Seconds(-1.0)),
               InvalidArgument);
  EXPECT_THROW((void)make_closed_loop({}, 2, Seconds(0.0)), InvalidArgument);
}

}  // namespace
}  // namespace mars::serve
