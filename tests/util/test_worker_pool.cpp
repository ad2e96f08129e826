#include "mars/util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "mars/obs/trace.h"
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

TEST(WorkerPoolTest, ClaimingRunsEveryIndexOnceUnderUnevenCosts) {
  // Item costs differ by orders of magnitude, so a fast thread keeps
  // claiming past a slow neighbour. Every index still runs exactly once
  // and its result lands in its own slot.
  const auto work = [](std::size_t i) {
    const long spin = i % 8 == 0 ? 20000 : (i % 3 == 0 ? 500 : 1);
    double acc = 0.0;
    for (long k = 0; k < spin; ++k) acc += static_cast<double>(k % 7);
    return acc + static_cast<double>(i);
  };
  for (const int threads : {1, 2, 3, 4}) {
    WorkerPool pool(threads);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{257}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> runs(n);
      std::vector<double> out(n, 0.0);
      pool.parallel_for(n, [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        out[i] = work(i);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << threads << '/' << n << '/' << i;
        EXPECT_EQ(out[i], work(i)) << threads << '/' << n << '/' << i;
      }
    }
  }
}

TEST(WorkerPoolTest, AnIdleThreadClaimsPastABlockedOne) {
  // Item 0 blocks until every other item has run. Static contiguous
  // chunks would give the blocked thread's chunk-mates to nobody and
  // deadlock; claiming lets the other thread run all of them.
  WorkerPool pool(2);
  const std::size_t n = 16;
  std::atomic<std::size_t> done{0};
  pool.parallel_for(n, [&](std::size_t i) {
    if (i == 0) {
      while (done.load() < n - 1) std::this_thread::yield();
    } else {
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), n - 1);
}

TEST(WorkerPoolTest, ResultsAreIdenticalAcrossThreadCounts) {
  // Index-addressed writes make output independent of the thread count —
  // the property every batch evaluation in MARS relies on.
  auto run = [](int threads) {
    WorkerPool pool(threads);
    std::vector<double> out(257);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = static_cast<double>(i * i) * 0.25;
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
    pool.parallel_for(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50LL * (63 * 64 / 2));
}

TEST(WorkerPoolTest, EmptyJobIsANoOp) {
  WorkerPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPoolTest, OneThreadAndOneItemRoundsRunOnTheCaller) {
  // A one-thread pool is the serial case: every index runs on the caller.
  WorkerPool one(1);
  std::vector<std::thread::id> ran_on(16);
  one.parallel_for(ran_on.size(),
                   [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }

  // Such rounds, and one-item rounds on any pool, wake no worker and so
  // record no `round` span; a round shared with the workers records one.
  obs::TraceRecorder recorder;
  obs::install_trace(&recorder);
  WorkerPool four(4);
  one.parallel_for(8, [](std::size_t) {});
  four.parallel_for(1, [](std::size_t) {});
  const std::size_t caller_only = recorder.event_count();
  four.parallel_for(2, [](std::size_t) {});
  const std::size_t shared = recorder.event_count();
  obs::install_trace(nullptr);
  EXPECT_EQ(caller_only, 0u);
  EXPECT_GE(shared, 1u);
}

TEST(WorkerPoolTest, ClaimingStopsAfterAFailure) {
  // On one thread the claims are a plain loop: nothing past the failing
  // index runs.
  WorkerPool pool(1);
  std::vector<int> ran(16, 0);
  EXPECT_THROW(pool.parallel_for(ran.size(),
                                 [&](std::size_t i) {
                                   ran[i] = 1;
                                   if (i == 3) throw InvalidArgument("item 3");
                                 }),
               InvalidArgument);
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 4);
}

TEST(WorkerPoolTest, LowestIndexExceptionWinsDeterministically) {
  // Several items throw, at costs that make a higher index fail first in
  // wall time; the rethrown exception is still the lowest failing index.
  WorkerPool pool(4);
  for (int round = 0; round < 8; ++round) {
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (i == 5 || i == 6 || i == 9) {
          throw InvalidArgument("item " + std::to_string(i));
        }
      });
      FAIL() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "item 5");
    }
    EXPECT_GE(ran.load(), 6);  // every index up to the lowest failure
    // The pool must stay usable after a throwing round.
    std::vector<int> out(8, 0);
    pool.parallel_for(out.size(), [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8);
  }
}

}  // namespace
}  // namespace mars::util
