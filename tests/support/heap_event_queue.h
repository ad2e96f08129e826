// Retained oracle: the single-heap sim::EventQueue, as it was before the
// queue grew its FIFO lanes (src/mars/sim/event_queue.h).
//
// Every event, in or out of order, goes through one binary heap keyed by
// (time, seq). tests/sim/test_event_queue_differential.cpp drives it and
// the production queue with the same seeded schedules and requires
// identical pops and last_push() values; the polling loops
// (tests/support/polling_engine.h) run on it too, so the wait-queue
// differential compares against an oracle that shares no queue code with
// the engine. The class is kept line for line apart from its name.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mars/util/units.h"

namespace mars::testing {

template <typename Payload>
class HeapEventQueue {
 public:
  void push(Seconds time, Payload payload) {
    last_push_ = next_seq_;
    push(time, next_seq_++, std::move(payload));
  }

  /// Pushes an event under a sequence number taken earlier with stamp():
  /// it pops where an event pushed at stamping time would have.
  void push(Seconds time, std::uint64_t seq, Payload payload) {
    heap_.push_back(Entry{time, seq, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Consumes the next sequence number without pushing an event, so a
  /// caller can order deferred work exactly as a push made now would be
  /// (sim/wait_queue.h keys parked waiters this way).
  [[nodiscard]] std::uint64_t stamp() { return next_seq_++; }
  /// Sequence number of the latest push(time, payload) — stamps and
  /// stamped pushes do not count; 0 before the first push.
  [[nodiscard]] std::uint64_t last_push() const { return last_push_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] Seconds next_time() const { return heap_.front().time; }

  /// Pre-sizes the underlying storage for `events` concurrent entries.
  void reserve(std::size_t events) { heap_.reserve(events); }

  Payload pop(Seconds& time_out) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    time_out = top.time;
    return std::move(top.payload);
  }

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;
    Payload payload;
  };

  /// Min-heap order: the entry that fires later sorts toward the bottom.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_push_ = 0;
};

}  // namespace mars::testing
