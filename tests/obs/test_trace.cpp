// TraceRecorder contract: stable track ids, Chrome Trace Event export
// fields, deterministic (clock, ts, seq) ordering, streaming/tree export
// equivalence, and a zero-allocation disabled path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mars/obs/trace.h"
#include "mars/util/json.h"

// Replaceable global allocation functions counting every operator-new call,
// so the no-recorder fast path can be pinned to exactly zero allocations.
// (Global scope on purpose: replacement requires external linkage.)
static std::atomic<long long> g_allocation_count{0};

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow flavours must be replaced too: std::stable_sort's temporary
// buffer allocates through nothrow new, and mixing a default nothrow new
// with the replaced deletes below trips ASan's alloc-dealloc matching.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace mars::obs {
namespace {

/// Events of the exported document, skipping the "M" metadata header.
std::vector<JsonValue> data_events(const JsonValue& doc) {
  const JsonValue& events = doc.get("traceEvents");
  std::vector<JsonValue> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.at(i).get("ph").as_string() != "M") out.push_back(events.at(i));
  }
  return out;
}

TEST(TraceRecorderTest, TrackIdsAreStablePerClock) {
  TraceRecorder rec;
  const int sim_a = rec.track(Clock::kSim, "a");
  const int sim_b = rec.track(Clock::kSim, "b");
  EXPECT_NE(sim_a, sim_b);
  EXPECT_EQ(rec.track(Clock::kSim, "a"), sim_a);
  // Domains number their tracks independently.
  EXPECT_EQ(rec.track(Clock::kWall, "a"), 0);
  EXPECT_EQ(sim_a, 0);
}

TEST(TraceRecorderTest, CompleteEventExportsChromeTraceFields) {
  TraceRecorder rec;
  const int track = rec.track(Clock::kSim, "acc 0");
  rec.complete(Clock::kSim, track, "work", Seconds(0.001), Seconds(0.002),
               {{"request", JsonValue::integer(7)}});
  const auto events = data_events(rec.to_json());
  ASSERT_EQ(events.size(), 1u);
  const JsonValue& event = events[0];
  EXPECT_EQ(event.get("name").as_string(), "work");
  EXPECT_EQ(event.get("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(event.get("ts").as_number(), 1000.0);   // micros
  EXPECT_DOUBLE_EQ(event.get("dur").as_number(), 2000.0);
  EXPECT_EQ(event.get("pid").as_integer(), trace_pid(Clock::kSim));
  EXPECT_EQ(event.get("tid").as_integer(), track);
  EXPECT_EQ(event.get("args").get("request").as_integer(), 7);
}

TEST(TraceRecorderTest, InstantAndCounterEventShapes) {
  TraceRecorder rec;
  const int track = rec.track(Clock::kSim, "model 0");
  rec.instant(Clock::kSim, track, "shed", Seconds(0.5));
  rec.counter(Clock::kSim, "in_system", Seconds(1.0), 3.0);
  const auto events = data_events(rec.to_json());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].get("ph").as_string(), "i");
  EXPECT_EQ(events[0].get("s").as_string(), "t");
  EXPECT_EQ(events[1].get("ph").as_string(), "C");
  EXPECT_EQ(events[1].get("name").as_string(), "in_system");
  EXPECT_DOUBLE_EQ(events[1].get("args").get("value").as_number(), 3.0);
}

TEST(TraceRecorderTest, NestableAsyncPairsCarryCategoryAndId) {
  TraceRecorder rec;
  const int track = rec.track(Clock::kSim, "model 0");
  rec.async_begin(Clock::kSim, track, "req", 5, "execute", Seconds(1.0));
  rec.async_end(Clock::kSim, track, "req", 5, "execute", Seconds(2.0));
  const auto events = data_events(rec.to_json());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].get("ph").as_string(), "b");
  EXPECT_EQ(events[1].get("ph").as_string(), "e");
  for (const JsonValue& event : events) {
    EXPECT_EQ(event.get("cat").as_string(), "req");
    EXPECT_EQ(event.get("id").as_integer(), 5);
  }
}

TEST(TraceRecorderTest, ExportSortsByTimestampWithinADomain) {
  TraceRecorder rec;
  const int track = rec.track(Clock::kSim, "acc 0");
  // Spans are emitted when they end: the later span lands in the buffer
  // first. Export must re-sort by start timestamp.
  rec.complete(Clock::kSim, track, "late", Seconds(2.0), Seconds(0.5));
  rec.complete(Clock::kSim, track, "early", Seconds(1.0), Seconds(0.5));
  // Equal timestamps keep emission (sequence) order.
  rec.instant(Clock::kSim, track, "first", Seconds(3.0));
  rec.instant(Clock::kSim, track, "second", Seconds(3.0));
  const auto events = data_events(rec.to_json());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].get("name").as_string(), "early");
  EXPECT_EQ(events[1].get("name").as_string(), "late");
  EXPECT_EQ(events[2].get("name").as_string(), "first");
  EXPECT_EQ(events[3].get("name").as_string(), "second");
}

TEST(TraceRecorderTest, SimDomainSortsBeforeWallDomain) {
  TraceRecorder rec;
  rec.complete(Clock::kWall, rec.track(Clock::kWall, "plan"), "search",
               Seconds(0.0), Seconds(1.0));
  rec.complete(Clock::kSim, rec.track(Clock::kSim, "acc 0"), "task",
               Seconds(9.0), Seconds(1.0));
  const auto events = data_events(rec.to_json());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].get("pid").as_integer(), 1);
  EXPECT_EQ(events[1].get("pid").as_integer(), 2);
}

TEST(TraceRecorderTest, MetadataNamesProcessesAndTracks) {
  TraceRecorder rec;
  (void)rec.track(Clock::kSim, "acc 0");
  (void)rec.track(Clock::kWall, "pool worker 1");
  const JsonValue doc = rec.to_json();
  const JsonValue& events = doc.get("traceEvents");
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.at(0).get("name").as_string(), "process_name");
  EXPECT_EQ(events.at(0).get("args").get("name").as_string(), "simulated");
  EXPECT_EQ(events.at(1).get("args").get("name").as_string(), "wall");
  EXPECT_EQ(events.at(2).get("name").as_string(), "thread_name");
  EXPECT_EQ(events.at(2).get("args").get("name").as_string(), "acc 0");
  EXPECT_EQ(events.at(3).get("args").get("name").as_string(), "pool worker 1");
}

TEST(TraceRecorderTest, WriteStreamsTheSameBytesAsToJson) {
  TraceRecorder rec;
  const int track = rec.track(Clock::kSim, "acc 0");
  rec.complete(Clock::kSim, track, "work", Seconds(0.25), Seconds(0.125),
               {{"k", JsonValue::string("v")}});
  rec.instant(Clock::kSim, track, "mark", Seconds(0.5));
  std::ostringstream stream;
  rec.write(stream);
  EXPECT_EQ(stream.str(), rec.to_json().dump() + "\n");
  // And the streamed document is valid JSON with the expected envelope.
  const JsonValue parsed = JsonValue::parse(stream.str());
  EXPECT_TRUE(parsed.get("traceEvents").is_array());
  EXPECT_EQ(parsed.get("displayTimeUnit").as_string(), "ms");
}

TEST(TraceRecorderTest, InstallReturnsPreviousAndUninstalls) {
  TraceRecorder* saved = install_trace(nullptr);
  TraceRecorder rec;
  EXPECT_EQ(install_trace(&rec), nullptr);
  EXPECT_EQ(trace(), &rec);
  EXPECT_EQ(install_trace(nullptr), &rec);
  EXPECT_EQ(trace(), nullptr);
  install_trace(saved);
}

TEST(TraceRecorderTest, ScopedWallSpanEmitsOneCompleteEvent) {
  TraceRecorder rec;
  TraceRecorder* saved = install_trace(&rec);
  { const ScopedWallSpan span("plan", "unit-span"); }
  install_trace(saved);
  const auto events = data_events(rec.to_json());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].get("name").as_string(), "unit-span");
  EXPECT_EQ(events[0].get("ph").as_string(), "X");
  EXPECT_EQ(events[0].get("pid").as_integer(), trace_pid(Clock::kWall));
  EXPECT_GE(events[0].get("dur").as_number(), 0.0);
}

TEST(TraceRecorderTest, WallSpansOfEachThreadGetTheirOwnTrack) {
  TraceRecorder rec;
  TraceRecorder* saved = install_trace(&rec);
  // The recorder's own thread keeps the plain lane name; two other
  // threads, whose spans overlap, each get a lane of their own.
  { const ScopedWallSpan span("plan", "home"); }
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&started] {
      const ScopedWallSpan span("plan", "worker");
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
    });
  }
  for (std::thread& thread : threads) thread.join();
  install_trace(saved);
  const JsonValue doc = rec.to_json();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < doc.get("traceEvents").size(); ++i) {
    const JsonValue& event = doc.get("traceEvents").at(i);
    if (event.get("name").as_string() == "thread_name") {
      names.push_back(event.get("args").get("name").as_string());
    }
  }
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "plan");
  EXPECT_NE(names[1], names[2]);
  for (const std::string& name : {names[1], names[2]}) {
    EXPECT_TRUE(name == "plan (thread 1)" || name == "plan (thread 2)")
        << name;
  }
  std::vector<long long> tids;
  for (const JsonValue& event : data_events(doc)) {
    tids.push_back(event.get("tid").as_integer());
  }
  ASSERT_EQ(tids.size(), 3u);
  EXPECT_NE(tids[1], tids[2]);
  // The same thread asking again gets the same track.
  EXPECT_EQ(rec.thread_track(Clock::kWall, "plan"),
            rec.track(Clock::kWall, "plan"));
}

TEST(TraceRecorderTest, WallNowIsMonotone) {
  TraceRecorder rec;
  const Seconds first = rec.wall_now();
  const Seconds second = rec.wall_now();
  EXPECT_GE(second.count(), first.count());
  EXPECT_GE(first.count(), 0.0);
}

TEST(TraceRecorderTest, ThreadedEmissionMergesEveryEvent) {
  TraceRecorder rec;
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      const int track =
          rec.track(Clock::kWall, "worker " + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        rec.complete(Clock::kWall, track, "chunk", Seconds(i * 1e-3),
                     Seconds(1e-4));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(rec.event_count(),
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
  // The merged export is still valid, fully sorted JSON.
  const JsonValue parsed = JsonValue::parse(rec.to_json().dump());
  EXPECT_EQ(parsed.get("traceEvents").size(),
            2u + kThreads + static_cast<std::size_t>(kThreads) *
                                kEventsPerThread);
}

TEST(TraceNoopTest, DisabledPathAllocatesNothing) {
  TraceRecorder* saved = install_trace(nullptr);
  ASSERT_EQ(trace(), nullptr);
  const long long before = g_allocation_count.load(std::memory_order_relaxed);
  long long null_observations = 0;
  for (int i = 0; i < 1000; ++i) {
    if (trace() == nullptr) ++null_observations;
    const ScopedWallSpan span("plan", "noop");
  }
  const long long after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(null_observations, 1000);
  install_trace(saved);
}

}  // namespace
}  // namespace mars::obs
