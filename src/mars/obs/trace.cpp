#include "mars/obs/trace.h"

#include <algorithm>
#include <ostream>

#include "mars/util/error.h"

namespace mars::obs {
namespace {

std::atomic<TraceRecorder*> g_trace{nullptr};
std::atomic<std::uint64_t> g_next_recorder_id{1};

// Thread-local buffer cache, keyed by recorder id rather than address so a
// recorder reallocated at the same address never aliases a stale slot.
struct ThreadSlot {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      home_(std::this_thread::get_id()) {}

TraceRecorder::Buffer& TraceRecorder::local_buffer() {
  if (t_slot.recorder_id == id_) {
    return *static_cast<Buffer*>(t_slot.buffer);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer& buffer = *buffers_.back();
  if (std::this_thread::get_id() != home_) {
    buffer.lane_suffix = " (thread " + std::to_string(++other_threads_) + ")";
  }
  t_slot = ThreadSlot{id_, &buffer};
  return buffer;
}

void TraceRecorder::emit(Event event) {
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  local_buffer().events.push_back(std::move(event));
}

int TraceRecorder::track(Clock clock, const std::string& name) {
  const auto domain = static_cast<std::size_t>(clock);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = tracks_[domain].try_emplace(
      name, static_cast<int>(track_names_[domain].size()));
  if (inserted) track_names_[domain].push_back(name);
  return it->second;
}

const std::string& TraceRecorder::lane_suffix() {
  return local_buffer().lane_suffix;
}

int TraceRecorder::thread_track(Clock clock, const std::string& name) {
  return track(clock, name + lane_suffix());
}

void TraceRecorder::complete(Clock clock, int track, std::string name,
                             Seconds start, Seconds duration, Args args) {
  Event event;
  event.clock = clock;
  event.phase = 'X';
  event.track = track;
  event.ts_us = start.micros();
  event.dur_us = duration.micros();
  event.name = std::move(name);
  event.args = std::move(args);
  emit(std::move(event));
}

void TraceRecorder::instant(Clock clock, int track, std::string name,
                            Seconds ts, Args args) {
  Event event;
  event.clock = clock;
  event.phase = 'i';
  event.track = track;
  event.ts_us = ts.micros();
  event.name = std::move(name);
  event.args = std::move(args);
  emit(std::move(event));
}

void TraceRecorder::counter(Clock clock, std::string name, Seconds ts,
                            double value) {
  Event event;
  event.clock = clock;
  event.phase = 'C';
  event.track = 0;  // counters are keyed by (pid, name); tid is cosmetic
  event.ts_us = ts.micros();
  event.name = std::move(name);
  event.args.emplace_back("value", JsonValue::number(value));
  emit(std::move(event));
}

void TraceRecorder::async_begin(Clock clock, int track, std::string category,
                                long long id, std::string name, Seconds ts,
                                Args args) {
  Event event;
  event.clock = clock;
  event.phase = 'b';
  event.track = track;
  event.id = id;
  event.ts_us = ts.micros();
  event.name = std::move(name);
  event.category = std::move(category);
  event.args = std::move(args);
  emit(std::move(event));
}

void TraceRecorder::async_end(Clock clock, int track, std::string category,
                              long long id, std::string name, Seconds ts) {
  Event event;
  event.clock = clock;
  event.phase = 'e';
  event.track = track;
  event.id = id;
  event.ts_us = ts.micros();
  event.name = std::move(name);
  event.category = std::move(category);
  emit(std::move(event));
}

Seconds TraceRecorder::wall_now() const {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - epoch_;
  return Seconds(elapsed.count());
}

std::size_t TraceRecorder::event_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    count += buffer->events.size();
  }
  return count;
}

JsonValue TraceRecorder::event_json(const Event& event) const {
  JsonValue out = JsonValue::object();
  out.set("name", JsonValue::string(event.name));
  if (!event.category.empty()) {
    out.set("cat", JsonValue::string(event.category));
  }
  out.set("ph", JsonValue::string(std::string(1, event.phase)));
  out.set("ts", JsonValue::number(event.ts_us));
  if (event.phase == 'X') out.set("dur", JsonValue::number(event.dur_us));
  out.set("pid", JsonValue::integer(trace_pid(event.clock)));
  out.set("tid", JsonValue::integer(event.track));
  if (event.phase == 'i') out.set("s", JsonValue::string("t"));
  if (event.phase == 'b' || event.phase == 'e') {
    out.set("id", JsonValue::integer(event.id));
  }
  if (!event.args.empty()) {
    JsonValue args = JsonValue::object();
    for (const auto& [key, value] : event.args) args.set(key, value);
    out.set("args", std::move(args));
  }
  return out;
}

template <typename Fn>
void TraceRecorder::for_each_export_json(Fn&& fn) const {
  const std::lock_guard<std::mutex> lock(mutex_);

  // Metadata: process names for the two clock domains, then thread (track)
  // names in (pid, tid) order — fixed shape, so the header is deterministic.
  for (const Clock clock : {Clock::kSim, Clock::kWall}) {
    JsonValue meta = JsonValue::object();
    meta.set("name", JsonValue::string("process_name"));
    meta.set("ph", JsonValue::string("M"));
    meta.set("pid", JsonValue::integer(trace_pid(clock)));
    meta.set("args",
             JsonValue::object().set(
                 "name", JsonValue::string(clock == Clock::kSim ? "simulated"
                                                                : "wall")));
    fn(meta);
  }
  for (const Clock clock : {Clock::kSim, Clock::kWall}) {
    const auto& names = track_names_[static_cast<std::size_t>(clock)];
    for (std::size_t tid = 0; tid < names.size(); ++tid) {
      JsonValue meta = JsonValue::object();
      meta.set("name", JsonValue::string("thread_name"));
      meta.set("ph", JsonValue::string("M"));
      meta.set("pid", JsonValue::integer(trace_pid(clock)));
      meta.set("tid", JsonValue::integer(static_cast<long long>(tid)));
      meta.set("args", JsonValue::object().set("name",
                                               JsonValue::string(names[tid])));
      fn(meta);
    }
  }

  std::vector<const Event*> events;
  std::size_t total = 0;
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    total += buffer->events.size();
  }
  events.reserve(total);
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    for (const Event& event : buffer->events) events.push_back(&event);
  }
  // (clock, ts, seq): grouping by domain keeps the simulated byte stream
  // independent of wall events; ts-then-seq makes timestamps monotone per
  // track (spans are emitted at end time but stamped at start time) while
  // the global sequence number breaks equal-ts ties deterministically.
  std::sort(events.begin(), events.end(), [](const Event* a, const Event* b) {
    if (a->clock != b->clock) return a->clock < b->clock;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->seq < b->seq;
  });
  for (const Event* event : events) fn(event_json(*event));
}

JsonValue TraceRecorder::to_json() const {
  JsonValue events = JsonValue::array();
  for_each_export_json([&](const JsonValue& event) { events.push(event); });
  JsonValue out = JsonValue::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", JsonValue::string("ms"));
  return out;
}

void TraceRecorder::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for_each_export_json([&](const JsonValue& event) {
    if (!first) os << ',';
    first = false;
    os << event.dump();
  });
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

TraceRecorder* install_trace(TraceRecorder* recorder) noexcept {
  return g_trace.exchange(recorder, std::memory_order_acq_rel);
}

TraceRecorder* trace() noexcept {
  return g_trace.load(std::memory_order_acquire);
}

ScopedWallSpan::ScopedWallSpan(const char* track, const char* name)
    : recorder_(trace()), name_(name) {
  if (recorder_ == nullptr) return;
  track_ = recorder_->thread_track(Clock::kWall, track);
  start_ = recorder_->wall_now();
}

ScopedWallSpan::~ScopedWallSpan() {
  if (recorder_ == nullptr) return;
  recorder_->complete(Clock::kWall, track_, name_, start_,
                      recorder_->wall_now() - start_);
}

}  // namespace mars::obs
