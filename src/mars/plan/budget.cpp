#include "mars/plan/budget.h"

#include "mars/obs/metrics.h"
#include "mars/obs/trace.h"

namespace mars::plan {

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kEvaluationBudget:
      return "evaluation-budget";
    case StopReason::kWallClock:
      return "wall-clock";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "?";
}

BudgetMeter::BudgetMeter(Budget budget)
    : budget_(std::move(budget)), start_(std::chrono::steady_clock::now()) {
  if (budget_.clock) clock_start_ = budget_.clock();
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    polls_ = &registry->counter("plan.budget.polls");
  }
}

Seconds BudgetMeter::elapsed() const {
  if (budget_.clock) return budget_.clock() - clock_start_;
  return Seconds(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
}

bool BudgetMeter::exhausted(long long evaluations) {
  if (polls_ != nullptr) polls_->add();
  if (reason_ != StopReason::kCompleted) return true;
  // Cancellation wins over the passive limits: it is the only one a user
  // actively requested.
  if (budget_.cancel != nullptr && budget_.cancel->cancelled()) {
    reason_ = StopReason::kCancelled;
  } else if (budget_.max_evaluations > 0 &&
             evaluations >= budget_.max_evaluations) {
    reason_ = StopReason::kEvaluationBudget;
  } else if (budget_.wall_clock.count() > 0.0 &&
             elapsed() >= budget_.wall_clock) {
    reason_ = StopReason::kWallClock;
  }
  if (reason_ != StopReason::kCompleted) {
    // The poll that tripped a limit is the event worth seeing on the
    // timeline (per-poll instants would swamp a long search).
    if (obs::TraceRecorder* rec = obs::trace()) {
      rec->instant(obs::Clock::kWall,
                   rec->thread_track(obs::Clock::kWall, "plan"),
                   "budget " + to_string(reason_), rec->wall_now(),
                   {{"evaluations", JsonValue::integer(evaluations)}});
    }
    return true;
  }
  return false;
}

}  // namespace mars::plan
