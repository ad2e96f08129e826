// util::MemoBatch: the probe -> price -> publish sweep behind every
// cohort-pricing path must charge and publish exactly like a serial
// left-to-right sweep, price each distinct key once, and not depend on
// the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "mars/obs/metrics.h"
#include "mars/util/memo_batch.h"
#include "mars/util/rng.h"
#include "mars/util/worker_pool.h"

namespace mars::util {
namespace {

using Memo = MemoBatch<int, long long, int>;

long long square_plus_one(int input) {
  return static_cast<long long>(input) * input + 1;
}

/// Counters plus a memo charging them.
struct Counted {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("hits");
  obs::Counter& misses = registry.counter("misses");
  Memo memo{&hits, &misses};
};

/// One batch through the memo: the value of each key, in input order.
std::vector<long long> price(Memo& memo, const std::vector<int>& keys,
                             WorkerPool* pool) {
  Memo::Sweep sweep = memo.sweep();
  std::vector<Memo::Ticket> tickets;
  for (const int key : keys) tickets.push_back(sweep.probe(key, key));
  sweep.resolve(pool, square_plus_one);
  std::vector<long long> values;
  for (const Memo::Ticket& ticket : tickets) values.push_back(sweep[ticket]);
  return values;
}

TEST(MemoBatch, ChargesLikeASerialSweep) {
  Rng rng(7);
  Counted counted;
  std::set<int> seen;  // the serial reference: a plain memo
  long long hits = 0;
  long long misses = 0;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<int> keys;
    const int size = rng.uniform_int(0, 12);
    for (int i = 0; i < size; ++i) keys.push_back(rng.uniform_int(0, 15));
    for (const int key : keys) {
      if (seen.insert(key).second) {
        ++misses;
      } else {
        ++hits;
      }
    }
    const std::vector<long long> values = price(counted.memo, keys, nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(values[i], square_plus_one(keys[i]));
    }
    EXPECT_EQ(counted.hits.value(), hits) << "batch " << batch;
    EXPECT_EQ(counted.misses.value(), misses) << "batch " << batch;
  }
}

TEST(MemoBatch, DuplicatesWithinABatchAreHitsAfterTheFirst) {
  Counted counted;
  (void)price(counted.memo, {1, 2, 1, 3, 2}, nullptr);
  EXPECT_EQ(counted.misses.value(), 3);
  EXPECT_EQ(counted.hits.value(), 2);
  (void)price(counted.memo, {2, 4, 4, 1}, nullptr);
  EXPECT_EQ(counted.misses.value(), 4);
  EXPECT_EQ(counted.hits.value(), 5);
}

TEST(MemoBatch, PricesEachDistinctKeyOnce) {
  WorkerPool pool(4);
  Memo memo;
  std::map<int, std::atomic<int>> calls;
  for (int key = 0; key < 8; ++key) calls[key] = 0;
  for (const std::vector<int>& keys :
       {std::vector<int>{3, 3, 3, 5, 3, 5}, std::vector<int>{5, 0, 0, 7, 3}}) {
    Memo::Sweep sweep = memo.sweep();
    for (const int key : keys) (void)sweep.probe(key, key);
    sweep.resolve(&pool, [&](int input) {
      ++calls.at(input);
      return square_plus_one(input);
    });
  }
  for (const auto& [key, count] : calls) {
    const bool priced = key == 0 || key == 3 || key == 5 || key == 7;
    EXPECT_EQ(count.load(), priced ? 1 : 0) << "key " << key;
  }
}

TEST(MemoBatch, PublishesInFirstSeenOrder) {
  Memo memo;
  (void)memo.get(9, 9, square_plus_one);  // memoised before the batch
  Memo::Sweep sweep = memo.sweep();
  const std::vector<int> keys = {5, 3, 9, 5, 8, 3};
  std::vector<Memo::Ticket> tickets;
  for (const int key : keys) tickets.push_back(sweep.probe(key, key));
  EXPECT_NE(tickets[2].cached, nullptr);
  EXPECT_EQ(tickets[0].slot, tickets[3].slot);
  const std::vector<const long long*>& published =
      sweep.resolve(nullptr, square_plus_one);
  std::vector<long long> order;
  for (const long long* value : published) order.push_back(*value);
  EXPECT_EQ(order, (std::vector<long long>{26, 10, 65}));
}

TEST(MemoBatch, ProbeWithBuildsAnInputOnlyForANewKey) {
  Memo memo;
  (void)memo.get(9, 9, square_plus_one);  // memoised before the batch
  Memo::Sweep sweep = memo.sweep();
  std::vector<int> made;  // make() calls, in call order = slot order
  for (const int key : {5, 9, 3, 5, 3, 8}) {
    (void)sweep.probe_with(key, [&] {
      made.push_back(key);
      return key;
    });
  }
  EXPECT_EQ(made, (std::vector<int>{5, 3, 8}));
  std::vector<long long> published;
  for (const long long* value : sweep.resolve(nullptr, square_plus_one)) {
    published.push_back(*value);
  }
  EXPECT_EQ(published, (std::vector<long long>{26, 10, 65}));
}

TEST(MemoBatch, PoolDoesNotChangeValuesOrCounters) {
  WorkerPool pool(4);
  Counted serial;
  Counted pooled;
  Rng rng(11);
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<int> keys;
    for (int i = 0; i < 40; ++i) keys.push_back(rng.uniform_int(0, 99));
    EXPECT_EQ(price(serial.memo, keys, nullptr),
              price(pooled.memo, keys, &pool));
    EXPECT_EQ(serial.hits.value(), pooled.hits.value());
    EXPECT_EQ(serial.misses.value(), pooled.misses.value());
  }
}

TEST(MemoBatch, AnAbandonedSweepPublishesNothing) {
  Counted counted;
  {
    Memo::Sweep sweep = counted.memo.sweep();
    (void)sweep.probe(1, 1);
  }
  EXPECT_THROW(
      {
        Memo::Sweep sweep = counted.memo.sweep();
        (void)sweep.probe(2, 2);
        sweep.resolve(nullptr, [](int) -> long long {
          throw std::runtime_error("pricing failed");
        });
      },
      std::runtime_error);
  EXPECT_EQ(counted.misses.value(), 2);
  // Neither key was published, so both are misses again.
  EXPECT_EQ(price(counted.memo, {1, 2}, nullptr),
            (std::vector<long long>{2, 5}));
  EXPECT_EQ(counted.misses.value(), 4);
  EXPECT_EQ(counted.hits.value(), 0);
}

}  // namespace
}  // namespace mars::util
