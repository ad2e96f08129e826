// Task graph: the executable form of a mapped workload.
//
// The evaluator lowers (mapping, strategies) into compute tasks pinned to
// accelerators and transfer tasks between accelerators (or the host), with
// explicit dependencies. The executor then replays the graph against the
// topology with link contention — the role ASTRA-Sim plays in the paper.
#pragma once

#include <string>
#include <vector>

#include "mars/util/units.h"

namespace mars::sim {

using TaskId = int;
/// Pseudo-endpoint for transfers to/from host memory.
inline constexpr int kHost = -1;

enum class TaskKind : std::uint8_t { kCompute, kTransfer, kBarrier };

struct Task {
  TaskId id = -1;
  TaskKind kind = TaskKind::kBarrier;
  std::string label;
  std::vector<TaskId> deps;

  // kCompute
  int acc = -1;
  Seconds duration{};

  // kTransfer
  int src = kHost;
  int dst = kHost;
  Bytes bytes{};
};

class TaskGraph {
 public:
  TaskId add_compute(int acc, Seconds duration, std::string label,
                     std::vector<TaskId> deps = {});
  TaskId add_transfer(int src, int dst, Bytes bytes, std::string label,
                      std::vector<TaskId> deps = {});
  /// Zero-duration synchronisation point.
  TaskId add_barrier(std::vector<TaskId> deps, std::string label = "barrier");

  [[nodiscard]] int size() const { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

 private:
  TaskId append(Task task);
  std::vector<Task> tasks_;
};

/// Structure-of-arrays form of a TaskGraph for hot replay loops.
///
/// The node-based TaskGraph is the builder/author form: one Task struct
/// per node with its own label string and dependency vector. Replaying it
/// per admitted serving request means cloning all of that onto the heap.
/// FlatTaskGraph lowers the graph once into dense index-based arrays —
/// per-task kind/resource/cost columns, a CSR adjacency of dependents, and
/// the initial missing-dependency counts — so instantiating a request is a
/// memcpy of `dep_counts` into an arena block plus root-event pushes, with
/// no allocation and no pointer chasing. Labels are dropped (the replay
/// loops never read them).
///
/// Array orders mirror the builder exactly: tasks in id order, each task's
/// dependents in graph construction order, roots in id order. The serving
/// engine's event ordering (and therefore its bit-determinism contract)
/// relies on this.
struct FlatTaskGraph {
  int size = 0;
  std::vector<TaskKind> kinds;
  std::vector<int> accs;           // kCompute (else -1)
  std::vector<Seconds> durations;  // kCompute (else 0)
  std::vector<int> srcs;           // kTransfer (else kHost)
  std::vector<int> dsts;
  std::vector<Bytes> bytes;
  /// Initial missing-dependency count per task (deps.size(), duplicates
  /// counted — matching the per-clone decrement the dependents lists do).
  std::vector<int> dep_counts;
  /// CSR adjacency: dependents of task t are
  /// dependents[dependent_offsets[t] .. dependent_offsets[t + 1]).
  std::vector<int> dependent_offsets;  // size + 1 entries
  std::vector<TaskId> dependents;
  /// Tasks with no dependencies, in id order (the events a fresh
  /// instantiation seeds).
  std::vector<TaskId> roots;

  [[nodiscard]] static FlatTaskGraph from(const TaskGraph& graph);

  /// Throws InvalidArgument naming the first task that computes on, or
  /// transfers from or to, an accelerator outside [0, accelerators).
  void check_resources(int accelerators) const;
};

}  // namespace mars::sim
