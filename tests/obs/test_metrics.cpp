// MetricsRegistry semantics: stable references, exact concurrent counting,
// delta-once flushing, and deterministic JSON export.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mars/obs/metrics.h"
#include "mars/util/json.h"

namespace mars::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAdds) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.25);
}

TEST(HistogramTest, ExactCountSumMinMax) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_DOUBLE_EQ(hist.min(), std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(hist.max(), -std::numeric_limits<double>::infinity());
  for (const double value : {0.5, 3.0, 0.125}) hist.observe(value);
  EXPECT_EQ(hist.count(), 3);
  EXPECT_DOUBLE_EQ(hist.sum(), 3.625);
  EXPECT_DOUBLE_EQ(hist.min(), 0.125);
  EXPECT_DOUBLE_EQ(hist.max(), 3.0);
}

TEST(HistogramTest, PowerOfTwoBucketsCoverEveryObservation) {
  Histogram hist;
  const std::vector<double> values = {0.75, 3.0, 3.9, 1000.0};
  for (const double value : values) hist.observe(value);
  const auto buckets = hist.buckets();
  long long total = 0;
  double previous_bound = -1.0;
  for (const auto& [bound, count] : buckets) {
    EXPECT_GT(bound, previous_bound);  // increasing bound order
    previous_bound = bound;
    total += count;
  }
  EXPECT_EQ(total, hist.count());
  // 0.75 <= 2^0 and 3.0, 3.9 share the 2^2 bucket.
  EXPECT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].first, 1.0);
  EXPECT_EQ(buckets[0].second, 1);
  EXPECT_DOUBLE_EQ(buckets[1].first, 4.0);
  EXPECT_EQ(buckets[1].second, 2);
}

TEST(HistogramTest, NonPositiveValuesLandInTheUnderflowBucket) {
  Histogram hist;
  hist.observe(0.0);
  hist.observe(-2.5);
  const auto buckets = hist.buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets[0].first, 0.0);
  EXPECT_EQ(buckets[0].second, 2);
  EXPECT_DOUBLE_EQ(hist.min(), -2.5);
}

TEST(MetricsRegistryTest, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("a.counter");
  Gauge& gauge = registry.gauge("a.gauge");
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&registry.counter("a.counter"), &counter);
  EXPECT_EQ(&registry.gauge("a.gauge"), &gauge);
}

TEST(MetricsRegistryTest, CounterValuesSortedByName) {
  MetricsRegistry registry;
  registry.counter("zebra").add(1);
  registry.counter("alpha").add(2);
  registry.counter("mid").add(3);
  const auto values = registry.counter_values();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].first, "alpha");
  EXPECT_EQ(values[1].first, "mid");
  EXPECT_EQ(values[2].first, "zebra");
  EXPECT_EQ(values[0].second, 2);
}

TEST(MetricsRegistryTest, CounterValueOfAbsentNameIsZeroAndDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("never.registered"), 0);
  EXPECT_TRUE(registry.counter_values().empty());
}

TEST(MetricsRegistryTest, FlushToAddsDeltasExactlyOnce) {
  MetricsRegistry source;
  MetricsRegistry target;
  source.counter("c").add(5);
  source.gauge("g").set(2.0);
  source.histogram("h").observe(1.5);

  source.flush_to(target);
  EXPECT_EQ(target.counter_value("c"), 5);
  EXPECT_DOUBLE_EQ(target.gauge("g").value(), 2.0);
  EXPECT_EQ(target.histogram("h").count(), 1);

  // A second flush with no new activity adds nothing.
  source.flush_to(target);
  EXPECT_EQ(target.counter_value("c"), 5);
  EXPECT_EQ(target.histogram("h").count(), 1);

  // New activity flushes only the delta.
  source.counter("c").add(2);
  source.histogram("h").observe(0.5);
  source.flush_to(target);
  EXPECT_EQ(target.counter_value("c"), 7);
  EXPECT_EQ(target.histogram("h").count(), 2);
  EXPECT_DOUBLE_EQ(target.histogram("h").sum(), 2.0);
  EXPECT_DOUBLE_EQ(target.histogram("h").min(), 0.5);
}

TEST(MetricsRegistryTest, ToJsonExportRoundTrips) {
  MetricsRegistry registry;
  registry.counter("serve.cache.hits").add(3);
  registry.gauge("pool.depth").set(4.0);
  registry.histogram("serve.latency_seconds").observe(0.75);

  const JsonValue parsed = JsonValue::parse(registry.to_json().dump());
  EXPECT_EQ(parsed.get("counters").get("serve.cache.hits").as_integer(), 3);
  EXPECT_DOUBLE_EQ(parsed.get("gauges").get("pool.depth").as_number(), 4.0);
  const JsonValue& hist =
      parsed.get("histograms").get("serve.latency_seconds");
  EXPECT_EQ(hist.get("count").as_integer(), 1);
  EXPECT_DOUBLE_EQ(hist.get("sum").as_number(), 0.75);
}

TEST(MetricsRegistryTest, RatiosDivideTheirCountersWhenRead) {
  MetricsRegistry registry;
  registry.ratio("sim.events_per_task", "sim.events", "sim.tasks");
  registry.ratio("sim.events_per_task", "other", "names");  // no effect
  using Values = std::vector<std::pair<std::string, double>>;
  EXPECT_EQ(registry.ratio_values(), (Values{{"sim.events_per_task", 0.0}}));

  registry.counter("sim.events").add(7);
  registry.counter("sim.tasks").add(2);
  EXPECT_EQ(registry.ratio_values(), (Values{{"sim.events_per_task", 3.5}}));
  registry.counter("sim.tasks").add(2);
  EXPECT_EQ(registry.ratio_values(), (Values{{"sim.events_per_task", 1.75}}));

  // Exported among the gauges, in name order with them.
  registry.gauge("a.gauge").set(1.0);
  registry.gauge("z.gauge").set(2.0);
  const JsonValue parsed = JsonValue::parse(registry.to_json().dump());
  EXPECT_EQ(parsed.get("gauges").dump(),
            R"({"a.gauge":1,"sim.events_per_task":1.75,"z.gauge":2})");

  // flush_to carries the declaration; the target divides its own counters.
  MetricsRegistry target;
  registry.flush_to(target);
  EXPECT_EQ(target.ratio_values(), (Values{{"sim.events_per_task", 1.75}}));
  target.counter("sim.events").add(1);
  EXPECT_EQ(target.ratio_values(), (Values{{"sim.events_per_task", 2.0}}));
}

TEST(MetricsRegistryTest, InstallReturnsPreviousAndUninstalls) {
  MetricsRegistry* saved = install_metrics(nullptr);
  MetricsRegistry registry;
  EXPECT_EQ(install_metrics(&registry), nullptr);
  EXPECT_EQ(metrics(), &registry);
  EXPECT_EQ(install_metrics(nullptr), &registry);
  EXPECT_EQ(metrics(), nullptr);
  install_metrics(saved);
}

TEST(MetricsRegistryTest, ConcurrentAddsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolving by name concurrently must also be safe, not just add().
      Counter& counter = registry.counter("shared");
      for (int i = 0; i < kAddsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.counter_value("shared"),
            static_cast<long long>(kThreads) * kAddsPerThread);
}

}  // namespace
}  // namespace mars::obs
