// Deterministic tracing: span / instant / counter / nestable-async events
// in two clock domains, exported as Chrome Trace Event JSON (loadable in
// Perfetto or chrome://tracing).
//
// Clock domains map to trace processes: pid 1 is the *simulated* timeline
// (deterministic `Seconds` from the serving event loop and the simulator),
// pid 2 is *wall clock* (steady_clock since recorder construction; search
// engines and the worker pool). Tracks within a domain are named lanes
// ("acc 3", "plan"), created on demand with `track()`. Wall spans go on
// `thread_track()` lanes, one per (lane, thread), so spans that different
// threads run at once never share a track.
//
// Determinism contract: every event carries a global sequence number, and
// export sorts stably by (clock, timestamp, sequence). Simulated-domain
// events are only ever emitted from serial event loops, so their content
// and order — and therefore the exported pid-1 byte stream — are identical
// per seed at any worker-pool size. Wall-domain events may interleave
// freely. See docs/OBSERVABILITY.md.
//
// Emission is thread-safe via per-thread buffers (registration takes the
// recorder mutex once per thread; emission is then lock-free for that
// thread). Export (`write`/`to_json`) must run after emitting threads have
// quiesced. When no recorder is installed, the `trace()` accessor returns
// nullptr and call sites skip event construction entirely — the no-op path
// is one relaxed atomic load and allocates nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mars/util/json.h"
#include "mars/util/units.h"

namespace mars::obs {

/// Trace clock domain; doubles as the exported Chrome-trace pid - 1.
enum class Clock : std::uint8_t { kSim = 0, kWall = 1 };

/// Exported pid for a domain (pid 1 = simulated, pid 2 = wall).
[[nodiscard]] constexpr int trace_pid(Clock clock) {
  return static_cast<int>(clock) + 1;
}

class TraceRecorder {
 public:
  /// Optional per-event arguments, exported under "args".
  using Args = std::vector<std::pair<std::string, JsonValue>>;

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Track (Chrome-trace tid) for a named lane in a domain; idempotent —
  /// the same name always maps to the same tid within a clock.
  [[nodiscard]] int track(Clock clock, const std::string& name);

  /// The calling thread's track for lane `name`: `name` itself on the
  /// thread that built the recorder, "<name> (thread k)" on the k-th other
  /// thread to use the recorder. A thread's spans nest, so every span
  /// emitted on its own track draws as one lane.
  [[nodiscard]] int thread_track(Clock clock, const std::string& name);

  /// Complete span (ph "X"): `name` ran [start, start + duration) on
  /// `track`. Emitted when the span ends; export re-sorts by timestamp.
  void complete(Clock clock, int track, std::string name, Seconds start,
                Seconds duration, Args args = {});

  /// Instant event (ph "i", thread scope).
  void instant(Clock clock, int track, std::string name, Seconds ts,
               Args args = {});

  /// Counter sample (ph "C"); counters are keyed by name within a domain
  /// and render as a value-over-time lane.
  void counter(Clock clock, std::string name, Seconds ts, double value);

  /// Nestable async pair (ph "b"/"e"): spans that overlap freely, grouped
  /// by (category, id) — one lane per in-flight request.
  void async_begin(Clock clock, int track, std::string category, long long id,
                   std::string name, Seconds ts, Args args = {});
  void async_end(Clock clock, int track, std::string category, long long id,
                 std::string name, Seconds ts);

  /// Wall-clock now: time since recorder construction.
  [[nodiscard]] Seconds wall_now() const;

  [[nodiscard]] std::size_t event_count() const;

  /// Full trace document as a JsonValue tree (tests, small traces).
  [[nodiscard]] JsonValue to_json() const;

  /// Streams the trace document (same bytes as to_json().dump() plus a
  /// trailing newline) without materialising the whole tree; use this for
  /// real runs, which can reach millions of events.
  void write(std::ostream& os) const;

 private:
  struct Event {
    std::uint64_t seq = 0;
    Clock clock = Clock::kSim;
    char phase = 'X';     // 'X', 'i', 'C', 'b', 'e'
    int track = 0;
    long long id = -1;    // async id; -1 elsewhere
    double ts_us = 0.0;
    double dur_us = 0.0;  // 'X' only
    std::string name;
    std::string category;  // async category; empty elsewhere
    Args args;
  };
  struct Buffer {
    std::vector<Event> events;
    std::string lane_suffix;  // thread_track's suffix for this thread
  };

  Buffer& local_buffer();
  void emit(Event event);
  [[nodiscard]] JsonValue event_json(const Event& event) const;
  /// Invokes `fn` with each exported event object (metadata first, then
  /// events in (clock, ts, seq) order) under the recorder mutex.
  template <typename Fn>
  void for_each_export_json(Fn&& fn) const;

  const std::uint64_t id_;  // unique per recorder; keys thread-local caches
  const std::chrono::steady_clock::time_point epoch_;
  const std::thread::id home_;  // the thread whose lanes get no suffix
  std::atomic<std::uint64_t> next_seq_{0};

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  int other_threads_ = 0;  // threads other than home_ registered so far
  std::map<std::string, int> tracks_[2];        // per clock: name -> tid
  std::vector<std::string> track_names_[2];     // per clock: tid -> name
};

/// Installs the process-wide recorder (nullptr to uninstall) and returns
/// the previous one. The caller keeps ownership and must keep the recorder
/// alive until after uninstalling it and after any in-flight spans end.
TraceRecorder* install_trace(TraceRecorder* recorder) noexcept;

/// The installed recorder, or nullptr. Call sites guard with
/// `if (auto* rec = obs::trace())` so the disabled path costs one relaxed
/// load and performs no allocation.
[[nodiscard]] TraceRecorder* trace() noexcept;

/// RAII wall-clock span on the calling thread's track of a named lane
/// (TraceRecorder::thread_track): emits one complete event covering
/// construction to destruction. Zero-cost (no allocation, no lock) when no
/// recorder is installed. The track/name pointers must outlive the span.
class ScopedWallSpan {
 public:
  ScopedWallSpan(const char* track, const char* name);
  ScopedWallSpan(const ScopedWallSpan&) = delete;
  ScopedWallSpan& operator=(const ScopedWallSpan&) = delete;
  ~ScopedWallSpan();

 private:
  TraceRecorder* recorder_;
  int track_ = 0;
  const char* name_;
  Seconds start_{0.0};
};

}  // namespace mars::obs
