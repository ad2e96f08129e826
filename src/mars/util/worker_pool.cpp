#include "mars/util/worker_pool.h"

#include <string>
#include <utility>

#include "mars/obs/trace.h"
#include "mars/util/error.h"

namespace mars::util {

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

void WorkerPool::run_claims(int worker) {
  // One wall-clock span per worker per round on the `pool` lane of the
  // worker's thread when a recorder is installed (worker 0 is the calling
  // thread), and only when the worker ran an item. No allocation or
  // locking on the no-recorder path.
  obs::TraceRecorder* rec = obs::trace();
  const Seconds start = rec != nullptr ? rec->wall_now() : Seconds{};
  long long items = 0;
  while (!failed_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_size_) break;
    ++items;
    try {
      (*job_)(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_ || i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  if (rec != nullptr && items > 0) {
    rec->complete(obs::Clock::kWall,
                  rec->thread_track(obs::Clock::kWall, "pool"), "round", start,
                  rec->wall_now() - start,
                  {{"worker", JsonValue::integer(worker)},
                   {"items", JsonValue::integer(items)}});
  }
}

void WorkerPool::parallel_for(std::size_t n, const IndexFn& fn) {
  if (threads_ == 1 || n <= 1) {
    // Nothing to share: a plain loop on the caller, with no lock, no
    // wake-up and no round span. The first throw is the lowest index.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MARS_CHECK(job_ == nullptr, "WorkerPool::parallel_for re-entered");
    job_ = &fn;
    job_size_ = n;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    remaining_ = threads_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();

  run_claims(0);

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void WorkerPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    run_claims(worker);
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      last = --remaining_ == 0;
    }
    if (last) done_cv_.notify_all();
  }
}

}  // namespace mars::util
