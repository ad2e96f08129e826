// Central named-metric registry: counters, gauges and histograms.
//
// Components own a MetricsRegistry instance (so per-instance counts stay
// exact and testable) and flush deltas into the process-wide installed
// registry when they are destroyed; CLI front-ends install one registry for
// the whole run and export it as JSON via `--metrics FILE.json`. Metric
// updates are lock-free (relaxed atomics) on counters/gauges and
// mutex-guarded on histograms; registration and export take the registry
// mutex. Naming conventions live in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mars/util/json.h"

namespace mars::obs {

/// Monotonically increasing integer metric. Thread-safe; increments are
/// relaxed atomics, so a counter costs one uncontended atomic add.
class Counter {
 public:
  void add(long long delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] long long value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<long long> value_{0};
  long long flushed_ = 0;  // guarded by the owning registry's mutex
};

/// Last-write-wins floating-point metric (queue depth, temperature, ...).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed distribution with exact count/sum/min/max.
/// Buckets are keyed by the binary exponent e with value <= 2^e; values
/// <= 0 land in a single underflow bucket.
class Histogram {
 public:
  void observe(double value) noexcept;

  [[nodiscard]] long long count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< +inf when empty
  [[nodiscard]] double max() const;  ///< -inf when empty

  /// (bucket upper bound, count) pairs in increasing bound order; the
  /// underflow bucket reports bound 0.
  [[nodiscard]] std::vector<std::pair<double, long long>> buckets() const;

 private:
  friend class MetricsRegistry;
  struct State {
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::map<int, long long> buckets;  // exponent -> count
  };

  mutable std::mutex mutex_;
  State state_;
  State flushed_;  // snapshot at last flush_to; guarded by mutex_
};

/// Named-metric registry. `counter`/`gauge`/`histogram` return stable
/// references (metrics are never removed), so hot paths resolve a metric
/// once and hold the pointer. All methods are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All counters as (name, value), sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, long long>> counter_values()
      const;
  /// Value of one counter (0 when absent; does not create it).
  [[nodiscard]] long long counter_value(const std::string& name) const;

  /// Declares `name` as the ratio of counter `numerator` to counter
  /// `denominator`. It is worked out when the registry is read (here and
  /// among to_json's gauges), so it stays exact however many threads add
  /// into the counters; 0 while the denominator is. Declaring a name again
  /// changes nothing.
  void ratio(const std::string& name, const std::string& numerator,
             const std::string& denominator);
  /// All declared ratios as (name, value), sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> ratio_values()
      const;

  /// Adds everything recorded since the last flush into `target` (counters
  /// and histograms add deltas; gauges overwrite; ratios are declared).
  /// Safe to call repeatedly; a second flush with no new activity adds
  /// nothing. Component destructors use this to fold instance metrics into
  /// the installed global registry.
  void flush_to(MetricsRegistry& target);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with keys sorted
  /// by name (std::map iteration order), so export is deterministic.
  [[nodiscard]] JsonValue to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // name -> (numerator, denominator) counter names
  std::map<std::string, std::pair<std::string, std::string>> ratios_;

  /// A declared ratio's value; the caller holds mutex_.
  [[nodiscard]] double ratio_value(
      const std::pair<std::string, std::string>& parts) const;
};

/// Installs the process-wide registry (nullptr to uninstall) and returns
/// the previous one. The caller keeps ownership and must keep the registry
/// alive until after uninstalling it.
MetricsRegistry* install_metrics(MetricsRegistry* registry) noexcept;

/// The installed process-wide registry, or nullptr. Callers cache the
/// Counter* they need, so the common no-registry path is one relaxed load.
[[nodiscard]] MetricsRegistry* metrics() noexcept;

}  // namespace mars::obs
