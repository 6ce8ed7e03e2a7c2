#include "mapreduce/executor.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/trace.h"

namespace progres {

const char* ToString(ExecutionBackend backend) {
  switch (backend) {
    case ExecutionBackend::kSimulated:
      return "simulated";
    case ExecutionBackend::kThreaded:
      return "threaded";
  }
  return "simulated";
}

bool ParseExecutionBackend(const std::string& name, ExecutionBackend* out) {
  if (name == "simulated") {
    *out = ExecutionBackend::kSimulated;
    return true;
  }
  if (name == "threaded") {
    *out = ExecutionBackend::kThreaded;
    return true;
  }
  return false;
}

ExecutionSeam::ExecutionSeam(const ClusterConfig& cluster,
                             const JobTiming& timing)
    : timing_(timing),
      trace_(cluster.trace),
      map_slots_per_machine_(cluster.map_slots_per_machine),
      reduce_slots_per_machine_(cluster.reduce_slots_per_machine),
      pool_(cluster.backend == ExecutionBackend::kThreaded
                ? std::make_unique<ThreadPool>(
                      std::max(1, cluster.execution_threads))
                : nullptr) {}

ExecutionSeam::~ExecutionSeam() = default;

int ExecutionSeam::threads() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

size_t ExecutionSeam::BeginAttempt(TaskPhase phase, int task, int attempt) {
  if (pool_ == nullptr) return 0;
  TraceSpan span;
  span.phase = phase;
  span.task = task;
  span.attempt = attempt;
  span.slot = std::max(0, ThreadPool::CurrentWorker());
  span.start = epoch_.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.push_back(span);
  return attempts_.size() - 1;
}

void ExecutionSeam::EndAttempt(size_t token, bool failed, bool timed_out) {
  if (pool_ == nullptr) return;
  const double end = epoch_.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan& span = attempts_[token];
  span.end = end;
  span.outcome = timed_out ? SpanOutcome::kTimedOut
                 : failed  ? SpanOutcome::kFailed
                           : SpanOutcome::kCompleted;
}

void ExecutionSeam::EndPhase(TaskPhase phase) {
  if (pool_ == nullptr) return;
  const double end = epoch_.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  (phase == TaskPhase::kMap ? map_end_ : reduce_end_) = end;
}

TraceRecorder* ExecutionSeam::scheduler_trace() const {
  return pool_ != nullptr ? nullptr : trace_;
}

void ExecutionSeam::StampAttempts() const {
  if (pool_ == nullptr || trace_ == nullptr) return;
  const int pid = trace_->current_pid();
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceSpan span : attempts_) {
    span.pid = pid;
    trace_->RecordSpan(span);
  }
}

void ExecutionSeam::MarkCheckpoint(SpanKind kind, int task,
                                   double cost_units) const {
  if (pool_ == nullptr || trace_ == nullptr) return;
  TraceSpan span;
  span.kind = kind;
  span.phase = TaskPhase::kReduce;
  span.pid = trace_->current_pid();
  span.task = task;
  span.machine = -1;
  span.slot = ThreadPool::CurrentWorker();
  span.start = epoch_.ElapsedSeconds();
  span.end = span.start;
  span.cost_units = cost_units;
  trace_->RecordSpan(span);
}

bool ExecutionSeam::Winner(TaskPhase phase, int task, TraceAnchor* out) const {
  if (pool_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TraceSpan& a : attempts_) {
      if (a.phase != phase || a.task != task ||
          a.outcome != SpanOutcome::kCompleted) {
        continue;
      }
      *out = {a.attempt, -1, a.slot, a.start, a.end};
      return true;
    }
    return false;
  }
  const bool map = phase == TaskPhase::kMap;
  const int slots_per_machine =
      map ? map_slots_per_machine_ : reduce_slots_per_machine_;
  for (const TaskAttemptTiming& a :
       map ? timing_.map_attempts : timing_.reduce_attempts) {
    if (!a.won || a.task != task) continue;
    *out = {a.attempt, a.slot / slots_per_machine, a.slot, a.start, a.end};
    return true;
  }
  return false;
}

double ExecutionSeam::Barrier(TaskPhase phase) const {
  if (pool_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    return phase == TaskPhase::kMap ? map_end_ : reduce_end_;
  }
  return phase == TaskPhase::kMap ? timing_.map_end : timing_.end;
}

double ExecutionSeam::Submission() const {
  return pool_ != nullptr ? 0.0 : timing_.start;
}

}  // namespace progres
