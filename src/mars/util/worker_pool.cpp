#include "mars/util/worker_pool.h"

#include <string>

#include "mars/obs/trace.h"
#include "mars/util/error.h"

namespace mars::util {
namespace {

/// Runs one parallel_for chunk, wrapped in a wall-clock trace span on the
/// worker's track when a recorder is installed (worker 0 is the calling
/// thread). No allocation or locking on the no-recorder path. Spans for
/// throwing chunks are dropped — the exception itself is the record there.
void run_chunk(int worker, std::size_t begin, std::size_t end,
               const WorkerPool::ChunkFn& fn) {
  obs::TraceRecorder* rec = obs::trace();
  if (rec == nullptr) {
    fn(begin, end);
    return;
  }
  const int track =
      rec->track(obs::Clock::kWall, "pool worker " + std::to_string(worker));
  const Seconds start = rec->wall_now();
  fn(begin, end);
  rec->complete(obs::Clock::kWall, track, "chunk", start,
                rec->wall_now() - start,
                {{"begin", JsonValue::integer(static_cast<long long>(begin))},
                 {"end", JsonValue::integer(static_cast<long long>(end))}});
}

}  // namespace

WorkerPool::WorkerPool(int threads) : threads_(threads) {
  if (threads < 1 || threads > kMaxThreads) {
    throw InvalidArgument("WorkerPool needs 1 to " +
                          std::to_string(kMaxThreads) + " threads, got " +
                          std::to_string(threads));
  }
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::pair<std::size_t, std::size_t> WorkerPool::chunk(std::size_t n,
                                                      int threads,
                                                      int worker) {
  const auto t = static_cast<std::size_t>(threads);
  const auto w = static_cast<std::size_t>(worker);
  return {n * w / t, n * (w + 1) / t};
}

void WorkerPool::parallel_for(std::size_t n, const ChunkFn& fn) {
  if (n == 0) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MARS_CHECK(job_ == nullptr, "WorkerPool::parallel_for re-entered");
    job_ = &fn;
    job_size_ = n;
    errors_.assign(static_cast<std::size_t>(threads_), nullptr);
    remaining_ = threads_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();

  // The caller is chunk 0; workers 1..threads-1 run concurrently.
  const auto [begin, end] = chunk(n, threads_, 0);
  try {
    if (begin < end) run_chunk(0, begin, end, fn);
  } catch (...) {
    errors_[0] = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  // Deterministic propagation: the lowest-chunk failure wins, not the
  // first to be *observed*.
  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
}

void WorkerPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    const ChunkFn* job = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
      n = job_size_;
    }
    const auto [begin, end] = chunk(n, threads_, worker);
    try {
      if (begin < end) run_chunk(worker, begin, end, *job);
    } catch (...) {
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last = --remaining_ == 0;
    }
    if (last) done_cv_.notify_all();
  }
}

}  // namespace mars::util
