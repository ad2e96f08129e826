#include "mars/util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "mars/util/error.h"

namespace mars::util {
namespace {

TEST(WorkerPoolTest, RejectsNonPositiveThreadCounts) {
  EXPECT_THROW((void)WorkerPool(0), InvalidArgument);
  EXPECT_THROW((void)WorkerPool(-3), InvalidArgument);
}

TEST(WorkerPoolTest, RejectsMoreThreadsThanTheCapBeforeSpawning) {
  EXPECT_THROW((void)WorkerPool(kMaxThreads + 1), InvalidArgument);
}

TEST(WorkerPoolTest, ChunksPartitionTheRangeExactly) {
  // The documented determinism contract: contiguous, disjoint, covering.
  for (const int threads : {1, 2, 3, 4, 7}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{64}, std::size_t{65}}) {
      std::size_t expected_begin = 0;
      for (int w = 0; w < threads; ++w) {
        const auto [begin, end] = WorkerPool::chunk(n, threads, w);
        EXPECT_EQ(begin, expected_begin) << n << '/' << threads << '/' << w;
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n) << n << '/' << threads;
    }
  }
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexOnce) {
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    const std::size_t n = 1000;
    std::vector<int> touched(n, 0);
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++touched[i];
    });
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0),
              static_cast<int>(n))
        << threads;
    EXPECT_TRUE(std::all_of(touched.begin(), touched.end(),
                            [](int c) { return c == 1; }))
        << threads;
  }
}

TEST(WorkerPoolTest, ResultsAreIdenticalAcrossThreadCounts) {
  // Index-addressed writes make output independent of the thread count —
  // the property every batch evaluation in MARS relies on.
  auto run = [](int threads) {
    WorkerPool pool(threads);
    std::vector<double> out(257);
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i * i) * 0.25;
      }
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
}

TEST(WorkerPoolTest, PoolIsReusableAcrossManyRounds) {
  WorkerPool pool(4);
  std::atomic<long long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(sum.load(), 50LL * (63 * 64 / 2));
}

TEST(WorkerPoolTest, EmptyJobIsANoOp) {
  WorkerPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPoolTest, LowestChunkExceptionWinsDeterministically) {
  WorkerPool pool(4);
  for (int round = 0; round < 8; ++round) {
    try {
      pool.parallel_for(4, [&](std::size_t begin, std::size_t) {
        throw InvalidArgument("chunk " + std::to_string(begin));
      });
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "chunk 0");
    }
    // The pool must stay usable after a throwing round.
    std::vector<int> out(8, 0);
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = 1;
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8);
  }
}

}  // namespace
}  // namespace mars::util
