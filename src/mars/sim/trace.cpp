#include "mars/sim/trace.h"

#include <sstream>

#include "mars/util/error.h"

namespace mars::sim {
namespace {

std::string escape_json(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
        break;
    }
  }
  return out;
}

std::string endpoint_name(int endpoint) {
  return endpoint == kHost ? "host" : "acc" + std::to_string(endpoint);
}

}  // namespace

std::string to_chrome_trace(const TaskGraph& graph, const ExecutionResult& result) {
  MARS_CHECK_ARG(result.timings.size() == static_cast<std::size_t>(graph.size()),
                 "result does not match graph");
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Task& task : graph.tasks()) {
    const TaskTiming& timing = result.timings[static_cast<std::size_t>(task.id)];
    if (task.kind == TaskKind::kBarrier) continue;
    const double us = timing.start.micros();
    const double dur = (timing.end - timing.start).micros();
    std::string tid;
    if (task.kind == TaskKind::kCompute) {
      tid = "acc" + std::to_string(task.acc);
    } else {
      tid = "net " + endpoint_name(task.src) + "->" + endpoint_name(task.dst);
    }
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << escape_json(task.label) << "\",\"ph\":\"X\",\"pid\":0,"
       << "\"tid\":\"" << tid << "\",\"ts\":" << us << ",\"dur\":" << dur << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace mars::sim
