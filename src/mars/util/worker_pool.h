// A small reusable worker pool for deterministic data parallelism.
//
// MARS parallelises *independent* work — fitness evaluations whose
// results depend only on their inputs — so the pool's contract is
// deliberately narrow: parallel_for splits [0, n) into one contiguous
// chunk per thread (chunk w covers [w*n/T, (w+1)*n/T)), runs the chunks
// concurrently, and blocks until all of them finish. The partitioning is
// a pure function of (n, threads), never of timing, so *which* worker
// computes an item is deterministic; callers that write results by index
// therefore produce identical output at any thread count.
//
// No global state: each pool owns its threads and dies with them.
// Thread-safety: parallel_for may be called repeatedly from the owning
// thread but not concurrently with itself. The calling thread executes
// chunk 0 itself, so a pool constructed with threads == 1 spawns nothing
// and parallel_for degenerates to a plain loop (same code path, zero
// thread overhead).
//
// Exceptions thrown inside chunks are captured and the one from the
// lowest-numbered chunk is rethrown in the caller after every chunk has
// finished — again deterministic, not a race between throwers.
#pragma once

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
  /// A function applied to one contiguous index chunk [begin, end).
  using ChunkFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// Spawns `threads - 1` workers (the caller is the remaining thread).
  /// Throws InvalidArgument, before spawning anything, when threads is
  /// outside [1, kMaxThreads].
  explicit WorkerPool(int threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs `fn` over [0, n) split into threads() contiguous chunks; blocks
  /// until every chunk has finished. The caller runs chunk 0. Rethrows
  /// the lowest-chunk exception, if any.
  void parallel_for(std::size_t n, const ChunkFn& fn);

  /// The chunk worker `w` of `threads` receives for a job of size `n`:
  /// [n*w/threads, n*(w+1)/threads). Exposed so tests (and docs) can pin
  /// the partitioning down as part of the determinism contract.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk(
      std::size_t n, int threads, int worker);

 private:
  void worker_loop(int worker);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumps once per parallel_for round
  int remaining_ = 0;             // workers still running this round
  bool shutdown_ = false;
  std::size_t job_size_ = 0;
  const ChunkFn* job_ = nullptr;
  std::vector<std::exception_ptr> errors_;  // one slot per chunk
};

}  // namespace mars::util
