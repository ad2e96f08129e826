#include "mars/obs/metrics.h"

#include <cmath>
#include <limits>

namespace mars::obs {
namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};

/// Bucket exponent for a histogram observation: smallest e with
/// value <= 2^e. Non-positive values use INT_MIN as an underflow bucket.
int bucket_exponent(double value) {
  if (!(value > 0.0)) return std::numeric_limits<int>::min();
  int exponent = 0;
  // frexp: value = m * 2^exponent with m in [0.5, 1) -> value <= 2^exponent.
  (void)std::frexp(value, &exponent);
  return exponent;
}

double bucket_bound(int exponent) {
  if (exponent == std::numeric_limits<int>::min()) return 0.0;
  return std::ldexp(1.0, exponent);
}

}  // namespace

void Histogram::observe(double value) noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_.count == 0) {
    state_.min = value;
    state_.max = value;
  } else {
    state_.min = std::min(state_.min, value);
    state_.max = std::max(state_.max, value);
  }
  ++state_.count;
  state_.sum += value;
  ++state_.buckets[bucket_exponent(value)];
}

long long Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.count;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_.sum;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_.count == 0) return std::numeric_limits<double>::infinity();
  return state_.min;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_.count == 0) return -std::numeric_limits<double>::infinity();
  return state_.max;
}

std::vector<std::pair<double, long long>> Histogram::buckets() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<double, long long>> out;
  out.reserve(state_.buckets.size());
  for (const auto& [exponent, count] : state_.buckets) {
    out.emplace_back(bucket_bound(exponent), count);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, long long>> MetricsRegistry::counter_values()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, long long>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

long long MetricsRegistry::counter_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::ratio(const std::string& name,
                            const std::string& numerator,
                            const std::string& denominator) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ratios_.try_emplace(name, numerator, denominator);
}

std::vector<std::pair<std::string, double>> MetricsRegistry::ratio_values()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(ratios_.size());
  for (const auto& [name, parts] : ratios_) {
    out.emplace_back(name, ratio_value(parts));
  }
  return out;
}

double MetricsRegistry::ratio_value(
    const std::pair<std::string, std::string>& parts) const {
  const auto value = [&](const std::string& name) {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0LL : it->second->value();
  };
  const long long denominator = value(parts.second);
  if (denominator == 0) return 0.0;
  return static_cast<double>(value(parts.first)) /
         static_cast<double>(denominator);
}

void MetricsRegistry::flush_to(MetricsRegistry& target) {
  // Lock only this registry here; target.counter() takes the target's own
  // mutex. flush_to is never called in both directions concurrently (flushes
  // flow component -> installed global), so there is no lock-order cycle.
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    const long long now = counter->value();
    const long long delta = now - counter->flushed_;
    if (delta != 0) target.counter(name).add(delta);
    counter->flushed_ = now;
  }
  for (const auto& [name, gauge] : gauges_) {
    target.gauge(name).set(gauge->value());
  }
  for (const auto& [name, parts] : ratios_) {
    target.ratio(name, parts.first, parts.second);
  }
  for (const auto& [name, histogram] : histograms_) {
    Histogram& dest = target.histogram(name);
    const std::lock_guard<std::mutex> hist_lock(histogram->mutex_);
    const Histogram::State& cur = histogram->state_;
    Histogram::State& old = histogram->flushed_;
    const long long count_delta = cur.count - old.count;
    if (count_delta != 0) {
      const std::lock_guard<std::mutex> dest_lock(dest.mutex_);
      Histogram::State& out = dest.state_;
      if (out.count == 0) {
        out.min = cur.min;
        out.max = cur.max;
      } else {
        out.min = std::min(out.min, cur.min);
        out.max = std::max(out.max, cur.max);
      }
      out.count += count_delta;
      out.sum += cur.sum - old.sum;
      for (const auto& [exponent, count] : cur.buckets) {
        const auto it = old.buckets.find(exponent);
        const long long prev = it == old.buckets.end() ? 0 : it->second;
        if (count != prev) out.buckets[exponent] += count - prev;
      }
    }
    old = cur;
  }
}

JsonValue MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonValue counters = JsonValue::object();
  for (const auto& [name, counter] : counters_) {
    counters.set(name, JsonValue::integer(counter->value()));
  }
  // Ratios export among the gauges, in one name order.
  std::map<std::string, double> gauge_values;
  for (const auto& [name, gauge] : gauges_) gauge_values[name] = gauge->value();
  for (const auto& [name, parts] : ratios_) {
    gauge_values.try_emplace(name, ratio_value(parts));
  }
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : gauge_values) {
    gauges.set(name, JsonValue::number(value));
  }
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, histogram] : histograms_) {
    const std::lock_guard<std::mutex> hist_lock(histogram->mutex_);
    const Histogram::State& state = histogram->state_;
    JsonValue entry = JsonValue::object();
    entry.set("count", JsonValue::integer(state.count));
    entry.set("sum", JsonValue::number(state.sum));
    if (state.count > 0) {
      entry.set("min", JsonValue::number(state.min));
      entry.set("max", JsonValue::number(state.max));
    }
    JsonValue buckets = JsonValue::array();
    for (const auto& [exponent, count] : state.buckets) {
      JsonValue bucket = JsonValue::object();
      bucket.set("le", JsonValue::number(bucket_bound(exponent)));
      bucket.set("count", JsonValue::integer(count));
      buckets.push(std::move(bucket));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  JsonValue out = JsonValue::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

MetricsRegistry* install_metrics(MetricsRegistry* registry) noexcept {
  return g_metrics.exchange(registry, std::memory_order_acq_rel);
}

MetricsRegistry* metrics() noexcept {
  return g_metrics.load(std::memory_order_acquire);
}

}  // namespace mars::obs
