#include "mars/sim/task_graph.h"

#include "mars/util/error.h"

namespace mars::sim {

TaskId TaskGraph::append(Task task) {
  task.id = static_cast<TaskId>(tasks_.size());
  for (TaskId dep : task.deps) {
    MARS_CHECK_ARG(dep >= 0 && dep < task.id,
                   "task '" << task.label << "' depends on undefined task " << dep);
  }
  tasks_.push_back(std::move(task));
  return tasks_.back().id;
}

TaskId TaskGraph::add_compute(int acc, Seconds duration, std::string label,
                              std::vector<TaskId> deps) {
  MARS_CHECK_ARG(acc >= 0, "compute task needs an accelerator");
  MARS_CHECK_ARG(duration.count() >= 0.0, "negative compute duration");
  Task task;
  task.kind = TaskKind::kCompute;
  task.acc = acc;
  task.duration = duration;
  task.label = std::move(label);
  task.deps = std::move(deps);
  return append(std::move(task));
}

TaskId TaskGraph::add_transfer(int src, int dst, Bytes bytes, std::string label,
                               std::vector<TaskId> deps) {
  MARS_CHECK_ARG(src >= kHost && dst >= kHost, "invalid transfer endpoint");
  MARS_CHECK_ARG(src != dst, "transfer to self");
  MARS_CHECK_ARG(bytes.count() >= 0.0, "negative transfer size");
  Task task;
  task.kind = TaskKind::kTransfer;
  task.src = src;
  task.dst = dst;
  task.bytes = bytes;
  task.label = std::move(label);
  task.deps = std::move(deps);
  return append(std::move(task));
}

TaskId TaskGraph::add_barrier(std::vector<TaskId> deps, std::string label) {
  Task task;
  task.kind = TaskKind::kBarrier;
  task.label = std::move(label);
  task.deps = std::move(deps);
  return append(std::move(task));
}

const Task& TaskGraph::task(TaskId id) const {
  MARS_CHECK_ARG(id >= 0 && id < size(), "task id " << id << " out of range");
  return tasks_[static_cast<std::size_t>(id)];
}

FlatTaskGraph FlatTaskGraph::from(const TaskGraph& graph) {
  FlatTaskGraph flat;
  flat.size = graph.size();
  const auto n = static_cast<std::size_t>(flat.size);
  flat.kinds.reserve(n);
  flat.accs.reserve(n);
  flat.durations.reserve(n);
  flat.srcs.reserve(n);
  flat.dsts.reserve(n);
  flat.bytes.reserve(n);
  flat.dep_counts.reserve(n);

  std::size_t total_deps = 0;
  for (const Task& task : graph.tasks()) {
    flat.kinds.push_back(task.kind);
    flat.accs.push_back(task.acc);
    flat.durations.push_back(task.duration);
    flat.srcs.push_back(task.src);
    flat.dsts.push_back(task.dst);
    flat.bytes.push_back(task.bytes);
    flat.dep_counts.push_back(static_cast<int>(task.deps.size()));
    total_deps += task.deps.size();
    if (task.deps.empty()) flat.roots.push_back(task.id);
  }

  // CSR dependents: count, prefix-sum, fill. Iterating tasks in id order
  // and each task's deps in declaration order reproduces the adjacency
  // order an incremental per-clone build produces.
  std::vector<int> counts(n, 0);
  for (const Task& task : graph.tasks()) {
    for (TaskId dep : task.deps) ++counts[static_cast<std::size_t>(dep)];
  }
  flat.dependent_offsets.assign(n + 1, 0);
  for (std::size_t t = 0; t < n; ++t) {
    flat.dependent_offsets[t + 1] = flat.dependent_offsets[t] + counts[t];
  }
  flat.dependents.assign(total_deps, 0);
  std::vector<int> cursor(flat.dependent_offsets.begin(),
                          flat.dependent_offsets.end() - 1);
  for (const Task& task : graph.tasks()) {
    for (TaskId dep : task.deps) {
      flat.dependents[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(dep)]++)] = task.id;
    }
  }
  return flat;
}

void FlatTaskGraph::check_resources(int accelerators) const {
  for (std::size_t t = 0; t < static_cast<std::size_t>(size); ++t) {
    if (kinds[t] == TaskKind::kCompute) {
      MARS_CHECK_ARG(accs[t] >= 0 && accs[t] < accelerators,
                     "task " << t << " computes on accelerator " << accs[t]
                             << ", but the topology has " << accelerators);
    } else if (kinds[t] == TaskKind::kTransfer) {
      for (const int end : {srcs[t], dsts[t]}) {
        MARS_CHECK_ARG(end >= kHost && end < accelerators,
                       "task " << t << " transfers via accelerator " << end
                               << ", but the topology has " << accelerators);
      }
    }
  }
}

}  // namespace mars::sim
