// A small reusable worker pool for deterministic data parallelism.
//
// MARS parallelises *independent* work — fitness evaluations, searches and
// rollouts whose results depend only on their inputs — so the pool's
// contract is deliberately narrow: parallel_for runs fn(i) once for every
// index i in [0, n) and blocks until all of them finish. Threads claim
// indices one at a time, in index order, from a shared atomic counter, so
// a thread that finishes a cheap item picks up the next one instead of
// idling behind a costly neighbour. *Which* thread runs an item depends on
// timing; callers write each result to its own index-addressed slot, so
// their output is identical at any thread count.
//
// No global state: each pool owns its threads and dies with them.
// Thread-safety: parallel_for may be called repeatedly from the owning
// thread but not concurrently with itself. The calling thread claims items
// too. A round on a one-thread pool (which spawns nothing), or of a single
// item, is a plain loop on the caller: no lock, no worker wake-up, no
// `round` trace span. So a one-thread pool is the serial case, and callers
// never need a null pool or a serial branch of their own.
//
// Exceptions: after the first item throws, no thread claims another item.
// Once every claimed item has finished, the exception of the lowest
// failing *index* is rethrown in the caller. Claims go out in index order,
// so every index below a failing one was claimed and ran: the rethrown
// exception is the one a serial loop would have hit first, deterministic,
// not a race between throwers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mars::util {

/// The most threads one pool (and so one `--threads` value) may have.
inline constexpr int kMaxThreads = 1024;

class WorkerPool {
 public:
  /// A function applied to one index of [0, n).
  using IndexFn = std::function<void(std::size_t index)>;

  /// Spawns `threads - 1` workers (the caller is the remaining thread).
  /// Throws InvalidArgument, before spawning anything, when threads is
  /// outside [1, kMaxThreads].
  explicit WorkerPool(int threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs `fn(i)` for every i in [0, n), claimed in index order by the
  /// caller and the workers; blocks until every claimed item has finished.
  /// Rethrows the lowest-index exception, if any. At threads() == 1 or
  /// n == 1 the caller runs the round alone, as a plain loop.
  void parallel_for(std::size_t n, const IndexFn& fn);

 private:
  void worker_loop(int worker);
  /// Claims and runs items of the current round until none are left or
  /// one has failed.
  void run_claims(int worker);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumps once per parallel_for round
  int remaining_ = 0;             // workers still running this round
  bool shutdown_ = false;
  std::size_t job_size_ = 0;
  const IndexFn* job_ = nullptr;
  std::atomic<std::size_t> next_{0};  // the next unclaimed index
  std::atomic<bool> failed_{false};   // an item threw: stop claiming
  std::size_t error_index_ = 0;       // lowest failing index (under mutex_)
  std::exception_ptr error_;          // its exception (under mutex_)
};

}  // namespace mars::util
