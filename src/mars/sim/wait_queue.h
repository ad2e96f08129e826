// Per-resource wait queues for the discrete-event loops.
//
// The event engine (sim/engine.h), which replays both sim::Executor runs
// and serving, gives every accelerator and every directed channel a wait
// queue. A task that
// finds its resource busy parks, and a release pops one wake event rather
// than every parked task retrying: retry polling (kept as the reference
// loops in tests/support/polling_engine.h) pops O(backlog) events per
// release. The queues reproduce the polling order:
//
//  * A parked task keeps the (time, seq) key its polling retry would have
//    had: EventQueue::stamp() consumes the seq that retry's push would
//    have taken, but no event is pushed.
//  * A queue is a FIFO of blocks in key order; a block is a FIFO of
//    waiters sharing one key. A waiter joins the back block when that
//    block waits for the same free time and no event was pushed since its
//    stamp — under polling, their retries would pop with no event between.
//  * Only the front block holds an event: one wake at its key. When the
//    wake pops, the block's waiters take the resource in order while it is
//    free (several only when tasks take zero time); the rest fail as their
//    retries would and move to the back under a fresh stamp at the new free
//    time. The new front block then arms its wake.
//  * A fresh try that finds the resource busy parks at the back the same
//    way. A fresh try that finds it free starts, as under polling — e.g. a
//    store-and-forward leg whose event is older than the front's wake; the
//    wake then finds the resource busy and re-parks its block.
//
// Blocks merge after one round, so a release costs O(1) amortised and a
// run O(events log events). Waiter and block records come from two pools
// shared by all queues and recycled through free lists, so once the pools
// hold the peak number of parked tasks, waiting allocates nothing.
// `Handle` names one waiting (task, leg).
//
// Exactness: a block forgets where other resources' stamps fell between
// its waiters. When another resource starts a task at the same instant,
// at a point that under polling lay between two waiters of one block, the
// later waiter's new key lands before that start instead of after it, and
// tie-breaking downstream can differ. The serving, co-mapping and search
// workloads in this repo, and random graphs with continuous durations,
// replay bit-identically to polling. Inputs whose durations collapse onto
// a few whole-microsecond values can differ; tests/sim/
// test_wait_queue_differential.cpp pins how often (and that a plain FIFO
// of waiters, without polling keys, differs far more often).
#pragma once

#include <cstdint>
#include <vector>

#include "mars/sim/event_queue.h"

namespace mars::sim {

template <typename Handle>
class WaitQueues {
 public:
  explicit WaitQueues(std::size_t resources) : queues_(resources) {}

  /// A fresh try of `waiter` found resource `r` busy until `free`: park it
  /// at the back. Arms `wake` when the queue was empty.
  template <typename Payload>
  void park(std::size_t r, const Handle& waiter, Seconds free,
            EventQueue<Payload>& events, const Payload& wake) {
    Queue& queue = queues_[r];
    const bool was_empty = queue.front == kNone;
    const std::uint32_t node = take(waiters_, spare_waiters_);
    waiters_[node] = Waiter{waiter, kNone};
    append(queue, node, node, free, events);
    if (was_empty) arm(queue, events, wake);
  }

  /// Resource `r`'s wake popped at `now` (its front block's key).
  /// `start(h)` starts waiter `h` at `now` and advances `free`, the
  /// resource's free time, which it must alias.
  template <typename Payload, typename Start>
  void wake(std::size_t r, Seconds now, const Seconds& free,
            EventQueue<Payload>& events, const Payload& wake, Start&& start) {
    Queue& queue = queues_[r];
    const std::uint32_t front = queue.front;
    std::uint32_t first = blocks_[front].first;
    const std::uint32_t last = blocks_[front].last;
    queue.front = blocks_[front].next;
    if (queue.front == kNone) queue.back = kNone;
    give(blocks_, spare_blocks_, front);
    bool drained = false;
    while (!drained && free <= now) {
      const Handle waiter = waiters_[first].handle;
      const std::uint32_t next = waiters_[first].next;
      drained = first == last;
      give(waiters_, spare_waiters_, first);
      start(waiter);
      first = next;
    }
    if (!drained) append(queue, first, last, free, events);
    if (queue.front != kNone) arm(queue, events, wake);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Waiter {
    Handle handle{};
    std::uint32_t next = kNone;  // the next waiter (or the next spare)
  };
  struct Block {
    std::uint32_t first = kNone;  // its first and last waiter
    std::uint32_t last = kNone;
    Seconds time{};          // when the block's polling retries would fire
    std::uint64_t seq = 0;   // and their tie-break sequence number
    std::uint32_t next = kNone;  // the next block (or the next spare)
  };
  struct Queue {
    std::uint32_t front = kNone;
    std::uint32_t back = kNone;
  };

  /// Links the waiters first..last (already chained) in at the back, keyed
  /// as retries pushed now for `free`.
  template <typename Payload>
  void append(Queue& queue, std::uint32_t first, std::uint32_t last,
              Seconds free, EventQueue<Payload>& events) {
    if (queue.back != kNone) {
      Block& back = blocks_[queue.back];
      waiters_[back.last].next = first;
      if (back.time == free && back.seq > events.last_push()) {
        back.last = last;
        return;
      }
    }
    const std::uint32_t block = take(blocks_, spare_blocks_);
    blocks_[block] = Block{first, last, free, events.stamp(), kNone};
    if (queue.back != kNone) {
      blocks_[queue.back].next = block;
    } else {
      queue.front = block;
    }
    queue.back = block;
  }

  template <typename Payload>
  void arm(const Queue& queue, EventQueue<Payload>& events,
           const Payload& wake) {
    const Block& front = blocks_[queue.front];
    events.push(front.time, front.seq, wake);
  }

  /// Pool records are recycled through a free list threaded via `next`.
  template <typename Node>
  static std::uint32_t take(std::vector<Node>& pool, std::uint32_t& spare) {
    if (spare != kNone) {
      const std::uint32_t node = spare;
      spare = pool[node].next;
      return node;
    }
    pool.emplace_back();
    return static_cast<std::uint32_t>(pool.size() - 1);
  }

  template <typename Node>
  static void give(std::vector<Node>& pool, std::uint32_t& spare,
                   std::uint32_t node) {
    pool[node].next = spare;
    spare = node;
  }

  std::vector<Queue> queues_;
  std::vector<Waiter> waiters_;
  std::vector<Block> blocks_;
  std::uint32_t spare_waiters_ = kNone;
  std::uint32_t spare_blocks_ = kNone;
};

}  // namespace mars::sim
