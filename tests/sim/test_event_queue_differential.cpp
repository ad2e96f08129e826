// The laned event queue vs the retained single-heap queue
// (tests/support/heap_event_queue.h): the same seeded schedules of pushes,
// stamps and pops must pop the same (time, seq, payload) sequence from
// both, and leave the same last_push(), size(), empty() and next_time()
// after every step.
//
// A schedule mixes what the engine does (sim/engine.h, sim/wait_queue.h)
// with what it never does but the API allows:
//  * same-instant pushes at the time of the latest pop (readied tasks),
//  * monotone runs (an in-order arrival stream, ties included),
//  * random future times, drawn from a coarse grid so ties are common,
//  * stamped pushes under seqs taken earlier, some at the current time
//    (wait-queue wakes), so older seqs land behind lane entries,
//  * pushes before the latest pop (not in a simulation, but allowed),
//  * pops interleaved with all of it, then a full drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mars/sim/event_queue.h"
#include "mars/util/rng.h"
#include "support/heap_event_queue.h"

namespace mars {
namespace {

/// Relative weights of a schedule's operations.
struct Mix {
  int pop = 4;
  int same_instant = 3;
  int run = 3;
  int future = 2;
  int stamp = 1;
  int stamped_push = 1;
  int past = 0;
};

/// A push's payload is its index in the schedule. Both queues give every
/// push the same seq (checked as it is made), so equal payloads popped at
/// equal times are equal (time, seq, payload) triples.
struct Event {
  int id = 0;
};

class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  /// Runs `steps` operations drawn from `mix`, then drains both queues.
  /// Returns the number of events popped.
  int run(const Mix& mix, int steps) {
    const int total = mix.pop + mix.same_instant + mix.run + mix.future +
                      mix.stamp + mix.stamped_push + mix.past;
    for (int step = 0; step < steps; ++step) {
      int pick = rng_.uniform_int(0, total - 1);
      if ((pick -= mix.pop) < 0) {
        if (!heap_.empty()) pop();
      } else if ((pick -= mix.same_instant) < 0) {
        push(now_);
      } else if ((pick -= mix.run) < 0) {
        if (rng_.chance(0.6)) stream_ = stream_ + grid(2);
        push(std::max(stream_, now_));
      } else if ((pick -= mix.future) < 0) {
        push(now_ + grid(8));
      } else if ((pick -= mix.stamp) < 0) {
        const std::uint64_t seq = laned_.stamp();
        EXPECT_EQ(seq, heap_.stamp());
        stamps_.push_back(seq);
      } else if ((pick -= mix.stamped_push) < 0) {
        if (!stamps_.empty()) stamped_push();
      } else {
        push(now_ - grid(4));
      }
      compare();
      if (::testing::Test::HasFatalFailure()) return pops_;
    }
    while (!heap_.empty() && !::testing::Test::HasFatalFailure()) pop();
    EXPECT_TRUE(laned_.empty());
    return pops_;
  }

 private:
  /// 0..max quarter-seconds: coarse, so equal times are everywhere.
  Seconds grid(int max) {
    return Seconds(0.25 * static_cast<double>(rng_.uniform_int(0, max)));
  }

  void push(Seconds time) {
    laned_.push(time, Event{pushes_});
    heap_.push(time, Event{pushes_});
    ++pushes_;
    ASSERT_EQ(laned_.last_push(), heap_.last_push());
  }

  /// Pushes a random earlier stamp at the current time or later.
  void stamped_push() {
    const std::size_t i = rng_.index(stamps_.size());
    const std::uint64_t seq = stamps_[i];
    stamps_[i] = stamps_.back();
    stamps_.pop_back();
    const Seconds time = rng_.chance(0.5) ? now_ : now_ + grid(4);
    laned_.push(time, seq, Event{pushes_});
    heap_.push(time, seq, Event{pushes_});
    ++pushes_;
  }

  void pop() {
    Seconds laned_time;
    Seconds heap_time;
    const Event laned = laned_.pop(laned_time);
    const Event heap = heap_.pop(heap_time);
    ASSERT_EQ(laned.id, heap.id) << "pop " << pops_;
    ASSERT_EQ(laned_time, heap_time) << "pop " << pops_;
    now_ = heap_time;
    ++pops_;
  }

  void compare() {
    ASSERT_EQ(laned_.last_push(), heap_.last_push());
    ASSERT_EQ(laned_.size(), heap_.size());
    ASSERT_EQ(laned_.empty(), heap_.empty());
    if (!heap_.empty()) {
      ASSERT_EQ(laned_.next_time(), heap_.next_time());
    }
  }

  Rng rng_;
  sim::EventQueue<Event> laned_;
  testing::HeapEventQueue<Event> heap_;
  Seconds now_{};
  Seconds stream_{};
  std::vector<std::uint64_t> stamps_;  // taken, not yet pushed
  int pushes_ = 0;
  int pops_ = 0;
};

TEST(EventQueueDifferential, MatchesTheHeapOnSimulationSchedules) {
  // Every push at or after the latest pop, as in the engine.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Differential differential(seed);
    EXPECT_GT(differential.run(Mix{}, 2000), 500) << "seed " << seed;
    if (HasFatalFailure()) FAIL() << "seed " << seed;
  }
}

TEST(EventQueueDifferential, MatchesTheHeapWithPushesBeforeTheClock) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Differential differential(seed);
    EXPECT_GT(differential.run(Mix{.past = 2}, 2000), 500) << "seed " << seed;
    if (HasFatalFailure()) FAIL() << "seed " << seed;
  }
}

TEST(EventQueueDifferential, MatchesTheHeapOnLaneHeavySchedules) {
  // Few pops and long runs: the lanes fill, slide and grow.
  const Mix lanes{.pop = 2, .same_instant = 4, .run = 6, .future = 1,
                  .stamp = 1, .stamped_push = 1};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Differential differential(seed);
    EXPECT_GT(differential.run(lanes, 4000), 500) << "seed " << seed;
    if (HasFatalFailure()) FAIL() << "seed " << seed;
  }
}

TEST(EventQueueDifferential, MatchesTheHeapOnStampHeavySchedules) {
  // Many stamped pushes at the current instant, behind newer lane entries.
  const Mix stamps{.pop = 4, .same_instant = 3, .run = 1, .future = 1,
                   .stamp = 4, .stamped_push = 4};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Differential differential(seed);
    EXPECT_GT(differential.run(stamps, 2000), 200) << "seed " << seed;
    if (HasFatalFailure()) FAIL() << "seed " << seed;
  }
}

}  // namespace
}  // namespace mars
