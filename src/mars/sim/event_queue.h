// Deterministic discrete-event queue.
//
// Events pop in (time, seq) order, where seq is a stable insertion
// sequence number: events at equal timestamps pop in insertion order, so
// simulations are bit-reproducible across runs and platforms.
//
// Three sources hold the events, and pop() takes the earliest of their
// three fronts:
//
//  * the now lane, a FIFO of unstamped pushes made at the time of the
//    latest pop: the engine readies a finished task's dependents this way,
//    about one push per task, and the clock cannot move on while the lane
//    holds any;
//  * the run lane, a FIFO of unstamped pushes at or after the time of its
//    back entry: it takes in-order streams such as serving's open-loop
//    arrivals, which are all queued up front;
//  * a binary heap for everything else, including every stamped push
//    (sim/wait_queue.h arms its wakes that way).
//
// Exactness: an unstamped push takes the largest seq issued so far, so
// appending it to a lane whose back entry is not later keeps that lane
// sorted by (time, seq), and a lane takes no other push. Each source is
// therefore sorted, and the earliest of their fronts is the earliest
// event. Pop order is a pure function of the (time, seq) total order,
// identical to a single heap's (tests/support/heap_event_queue.h keeps
// that heap as the oracle of tests/sim/test_event_queue_differential.cpp),
// while lane pushes and pops cost O(1) and the heap holds only the
// events that arrive out of order.
//
// Storage: the heap and the lanes live in plain vectors (std::push_heap /
// std::pop_heap rather than std::priority_queue) of (time, seq, payload)
// entries, moved on every push and pop, so payloads should be small: the
// engine's is 16 bytes, which makes its entries 32, and it keeps callers'
// own payloads in a table beside the queue. Callers that know the event
// volume up front can reserve() the vectors; serving pre-sizes the
// engine's queue to the arrival stream, which pins its steady-state
// allocations at zero. A lane reads its vector from a head index and
// rewinds to the start whenever it drains. When a lane's vector is full,
// it slides its unread entries down if at least half were read, and grows
// otherwise. So reserve(n) lets the heap hold n entries and each lane n/2
// unread ones without allocating.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "mars/util/units.h"

namespace mars::sim {

template <typename Payload>
class EventQueue {
 public:
  void push(Seconds time, Payload payload) {
    last_push_ = next_seq_;
    Entry entry{time, next_seq_++, std::move(payload)};
    if (time == popped_ && now_.accepts(time)) {
      now_.push(std::move(entry));
    } else if (run_.accepts(time)) {
      run_.push(std::move(entry));
    } else {
      push_heap(std::move(entry));
    }
  }

  /// Pushes an event under a sequence number taken earlier with stamp():
  /// it pops where an event pushed at stamping time would have.
  void push(Seconds time, std::uint64_t seq, Payload payload) {
    push_heap(Entry{time, seq, std::move(payload)});
  }

  /// Consumes the next sequence number without pushing an event, so a
  /// caller can order deferred work exactly as a push made now would be
  /// (sim/wait_queue.h keys parked waiters this way).
  [[nodiscard]] std::uint64_t stamp() { return next_seq_++; }
  /// Sequence number of the latest push(time, payload) — stamps and
  /// stamped pushes do not count; 0 before the first push.
  [[nodiscard]] std::uint64_t last_push() const { return last_push_; }

  [[nodiscard]] bool empty() const {
    return heap_.empty() && now_.empty() && run_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return heap_.size() + now_.size() + run_.size();
  }
  [[nodiscard]] Seconds next_time() const {
    Seconds next = heap_.empty() ? Seconds(kNever) : heap_.front().time;
    for (const Lane* lane : {&now_, &run_}) {
      if (!lane->empty()) next = std::min(next, lane->front().time);
    }
    return next;
  }

  /// Pre-sizes the heap and both lanes for `events` entries each.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    now_.reserve(events);
    run_.reserve(events);
  }

  Payload pop(Seconds& time_out) {
    Lane* lane = earliest_lane();
    Entry top = lane == nullptr ? pop_heap() : lane->take();
    popped_ = top.time;
    time_out = top.time;
    return std::move(top.payload);
  }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

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

  /// A FIFO of entries in (time, seq) order, read from `head_`.
  class Lane {
   public:
    [[nodiscard]] bool empty() const { return head_ == entries_.size(); }
    [[nodiscard]] std::size_t size() const { return entries_.size() - head_; }
    [[nodiscard]] const Entry& front() const { return entries_[head_]; }
    /// An unstamped push at `time` keeps the lane sorted.
    [[nodiscard]] bool accepts(Seconds time) const {
      return empty() || entries_.back().time <= time;
    }
    void reserve(std::size_t entries) { entries_.reserve(entries); }

    void push(Entry&& entry) {
      if (entries_.size() == entries_.capacity() &&
          2 * head_ >= entries_.size()) {
        entries_.erase(entries_.begin(),
                       entries_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      entries_.push_back(std::move(entry));
    }

    Entry take() {
      Entry entry = std::move(entries_[head_++]);
      if (empty()) {
        entries_.clear();
        head_ = 0;
      }
      return entry;
    }

   private:
    std::vector<Entry> entries_;
    std::size_t head_ = 0;
  };

  void push_heap(Entry&& entry) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  Entry pop_heap() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    return top;
  }

  /// The lane whose front is the earliest entry, or nullptr when the
  /// heap's is; the queue must not be empty.
  Lane* earliest_lane() {
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    Lane* from = nullptr;
    for (Lane* lane : {&now_, &run_}) {
      if (!lane->empty() &&
          (best == nullptr || Later{}(*best, lane->front()))) {
        best = &lane->front();
        from = lane;
      }
    }
    return from;
  }

  std::vector<Entry> heap_;
  Lane now_;
  Lane run_;
  Seconds popped_{};  // the time of the latest pop
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_push_ = 0;
};

}  // namespace mars::sim
