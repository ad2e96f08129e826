// The event engine's External slot table (sim/engine.h): a payload waits
// in an engine-owned slot while its 32-byte queue entry carries the slot
// index, and the slot is freed as the event pops, before the hook runs.
//
// The hook here pushes further externals the way serving does — a
// closed-loop reissue a think time after each pop, and now and then a
// batch deadline further out — so the number of live externals climbs
// well past the table's reservation and then falls, and freed slots are
// reused throughout. Some pops also add a graph instance, so task events
// interleave with the externals. Every payload must pop exactly once,
// intact, at its time, and in (time, push order): externals' sequence
// numbers rise in push order, so task events between them cannot change
// their relative order.
#include "mars/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "mars/topology/presets.h"
#include "mars/util/rng.h"

namespace mars::sim {
namespace {

/// A payload large enough that a torn or stale copy shows.
struct Payload {
  long long id = -1;
  Seconds at{};
  int generation = 0;
  bool deadline = false;
  std::uint64_t check = 0;
};

std::uint64_t check_of(long long id, int generation) {
  return static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL ^
         static_cast<std::uint64_t>(generation);
}

using Replay = Engine<int, Payload>;

class SlotChurn : public NoHooks {
 public:
  SlotChurn(Replay& engine, std::uint64_t seed)
      : engine_(&engine), rng_(seed) {}

  void push(Seconds at, int generation, bool deadline) {
    const long long id = next_id_++;
    const Payload payload{id, at, generation, deadline,
                          check_of(id, generation)};
    engine_->push(at, payload);
    expected_.push({at, id});
    popped_.push_back(0);
    peak_live_ = std::max(peak_live_, expected_.size());
  }

  void external(const Payload& payload) {
    ASSERT_FALSE(expected_.empty());
    const auto [at, id] = expected_.top();
    expected_.pop();
    EXPECT_EQ(payload.id, id);
    EXPECT_EQ(payload.at, at);
    EXPECT_EQ(engine_->now(), at);
    EXPECT_EQ(payload.check, check_of(payload.id, payload.generation));
    ++popped_[static_cast<std::size_t>(payload.id)];
    const Payload popped = payload;
    react(popped);
    // The pushes above reuse freed slots; what the hook was handed must
    // not change under it.
    EXPECT_EQ(payload.id, popped.id);
    EXPECT_EQ(payload.generation, popped.generation);
    EXPECT_EQ(payload.check, popped.check);
  }

  [[nodiscard]] bool all_popped() const { return expected_.empty(); }
  [[nodiscard]] const std::vector<int>& popped() const { return popped_; }
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  [[nodiscard]] long long instances() const { return instances_; }

  static constexpr int kGenerations = 12;

 private:
  /// What serving does on a pop: now and then admit a request (an
  /// instance), and reissue after a think time on a coarse grid (ties are
  /// common, and a zero think lands at the current instant), on about one
  /// pop in three also arming a deadline further out.
  void react(const Payload& popped) {
    if (popped.id % 5 == 0) {
      engine_->add(0, static_cast<int>(popped.id));
      ++instances_;
    }
    if (popped.deadline || popped.generation >= kGenerations) return;
    const Seconds now = engine_->now();
    push(now + milliseconds(rng_.uniform_int(0, 3)), popped.generation + 1,
         false);
    if (rng_.uniform_int(0, 2) == 0) {
      push(now + milliseconds(rng_.uniform_int(2, 6)), popped.generation + 1,
           true);
    }
  }

  /// Min-heap by (time, push order).
  using Key = std::tuple<Seconds, long long>;
  Replay* engine_;
  Rng rng_;
  long long next_id_ = 0;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> expected_;
  std::vector<int> popped_;  // pops per payload id
  std::size_t peak_live_ = 0;
  long long instances_ = 0;
};

TEST(EngineExternalsTest, SlotsRecycleWhileHooksPushPastTheReservation) {
  const topology::Topology topo = topology::f1_16xlarge();
  TaskGraph graph;
  const TaskId load = graph.add_transfer(kHost, 0, Bytes(4096.0), "load");
  const TaskId work = graph.add_compute(0, microseconds(700.0), "work", {load});
  graph.add_transfer(0, 5, Bytes(8192.0), "ship", {work});
  const FlatTaskGraph flat = FlatTaskGraph::from(graph);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Replay engine(topo, SimParams{}, {&flat});
    constexpr std::size_t kReserved = 4;
    engine.reserve(16, kReserved);
    SlotChurn hooks(engine, seed);
    for (int i = 0; i < static_cast<int>(kReserved); ++i) {
      hooks.push(milliseconds(i % 2), 0, false);
    }
    engine.drain(hooks);

    EXPECT_TRUE(hooks.all_popped()) << "seed " << seed;
    EXPECT_GT(hooks.peak_live(), 2 * kReserved) << "seed " << seed;
    EXPECT_GT(hooks.popped().size(), 10 * kReserved) << "seed " << seed;
    for (std::size_t id = 0; id < hooks.popped().size(); ++id) {
      EXPECT_EQ(hooks.popped()[id], 1) << "seed " << seed << " id " << id;
    }
    EXPECT_GT(hooks.instances(), 0) << "seed " << seed;
    EXPECT_EQ(engine.tasks_executed(), 3 * hooks.instances())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mars::sim
