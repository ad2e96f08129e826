// The memoised batch pricer: the one sweep every cohort-pricing path runs.
//
//   probe (serial)     walk the batch in order; a memoised key returns its
//                      value, a new key is scheduled with its input
//   price (parallel)   price every scheduled input across a WorkerPool (a
//                      one-thread pool, or a one-input batch, prices on
//                      the caller)
//   publish (serial)   insert the values into the memo in first-seen order
//
// Hits and misses are charged as a serial left-to-right sweep would: a
// memoised key, or one already scheduled in this batch, is a hit; only a
// key's first appearance is a miss. The pricing callable must be a pure
// function of its input. Whichever pool thread claims an input, its value
// goes to that input's own slot, and publishing walks the slots in order,
// so values, memo contents and counters are identical at any thread count.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mars/obs/metrics.h"
#include "mars/util/worker_pool.h"

namespace mars::util {

/// `Value` must be default-constructible and movable. Published values
/// never move (node-based map), so references to them stay valid for the
/// MemoBatch's lifetime.
template <class Key, class Value, class Input, class Hash = std::hash<Key>>
class MemoBatch {
 public:
  /// A probed key's value: `cached` when memoised before the sweep, else
  /// `slot` in the sweep's publish order.
  struct Ticket {
    const Value* cached = nullptr;
    std::size_t slot = 0;
  };

  /// One batch: probe every key, then resolve() once. A sweep destroyed
  /// unresolved (e.g. by an exception) publishes nothing.
  class Sweep {
   public:
    /// Serial, one call per key in batch order. `input` is kept only on
    /// the key's first appearance.
    Ticket probe(const Key& key, Input input) {
      return probe_with(key, [&input] { return std::move(input); });
    }

    /// probe() with the input built by `make() -> Input` only on the key's
    /// first appearance: the k-th make() call of a sweep builds slot k.
    /// Lets the serial probe do per-key set-up work exactly once.
    template <class Make>
    Ticket probe_with(const Key& key, Make&& make) {
      const auto cached = owner_->memo_.find(key);
      if (cached != owner_->memo_.end()) {
        charge(owner_->hits_);
        return {&cached->second, 0};
      }
      const auto [it, first] = scheduled_.try_emplace(key, jobs_.size());
      charge(first ? owner_->misses_ : owner_->hits_);
      if (first) jobs_.emplace_back(key, make());
      return {nullptr, it->second};
    }

    /// Prices every scheduled input with `price(const Input&) -> Value`
    /// across `pool`, then publishes in first-seen order. Returns the
    /// published values in that order.
    template <class Price>
    const std::vector<const Value*>& resolve(WorkerPool& pool, Price&& price) {
      std::vector<Value> values(jobs_.size());
      pool.parallel_for(jobs_.size(), [&](std::size_t j) {
        values[j] = price(std::as_const(jobs_[j].second));
      });
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const auto it = owner_->memo_.emplace(std::move(jobs_[j].first),
                                              std::move(values[j]));
        published_.push_back(&it.first->second);
      }
      jobs_.clear();
      return published_;
    }

    /// A ticket's value; scheduled tickets resolve once resolve() has run.
    [[nodiscard]] const Value& operator[](const Ticket& ticket) const {
      return ticket.cached ? *ticket.cached : *published_[ticket.slot];
    }

   private:
    friend MemoBatch;
    explicit Sweep(MemoBatch& owner) : owner_(&owner) {}

    MemoBatch* owner_;
    std::unordered_map<Key, std::size_t, Hash> scheduled_;  // key -> slot
    std::vector<std::pair<Key, Input>> jobs_;               // by slot
    std::vector<const Value*> published_;                   // by slot
  };

  /// Hits and misses go to the given counters (either may be null).
  explicit MemoBatch(obs::Counter* hits = nullptr,
                     obs::Counter* misses = nullptr)
      : hits_(hits), misses_(misses) {}

  /// Opens a batch over this memo. One sweep at a time.
  [[nodiscard]] Sweep sweep() { return Sweep(*this); }

  /// The one-key batch: probe, then price on the caller on a miss.
  template <class Price>
  const Value& get(const Key& key, Input input, Price&& price) {
    Sweep one = sweep();
    const Ticket ticket = one.probe(key, std::move(input));
    if (ticket.cached != nullptr) return *ticket.cached;
    WorkerPool caller(1);
    return *one.resolve(caller, price).front();
  }

 private:
  static void charge(obs::Counter* counter) {
    if (counter != nullptr) counter->add();
  }

  std::unordered_map<Key, Value, Hash> memo_;
  obs::Counter* hits_;
  obs::Counter* misses_;
};

}  // namespace mars::util
