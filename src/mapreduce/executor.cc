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

ThreadedExecutor::ThreadedExecutor(int threads)
    : pool_(new ThreadPool(std::max(1, threads))) {}

ThreadedExecutor::~ThreadedExecutor() = default;

int ThreadedExecutor::threads() const { return pool_->num_threads(); }

size_t ThreadedExecutor::BeginAttempt(TaskPhase phase, int task, int attempt) {
  WallAttempt record;
  record.phase = phase;
  record.task = task;
  record.attempt = attempt;
  record.worker = std::max(0, ThreadPool::CurrentWorker());
  record.start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.push_back(record);
  return attempts_.size() - 1;
}

void ThreadedExecutor::EndAttempt(size_t token, bool failed, bool timed_out) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  WallAttempt& record = attempts_[token];
  record.end = end;
  record.failed = failed;
  record.timed_out = timed_out;
}

void ThreadedExecutor::EndPhase(TaskPhase phase) {
  const double end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  if (phase == TaskPhase::kMap) {
    map_end_ = end;
  } else {
    reduce_end_ = end;
  }
}

double ThreadedExecutor::phase_end(TaskPhase phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase == TaskPhase::kMap ? map_end_ : reduce_end_;
}

std::vector<WallAttempt> ThreadedExecutor::attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

bool ThreadedExecutor::WinningAttempt(TaskPhase phase, int task,
                                      WallAttempt* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The winner is the task's only non-failed attempt (the runner stops the
  // chain at it), so a plain scan suffices.
  for (const WallAttempt& record : attempts_) {
    if (record.phase != phase || record.task != task) continue;
    if (record.failed) continue;
    *out = record;
    return true;
  }
  return false;
}

void ThreadedExecutor::StampAttemptSpans(TraceRecorder* trace, int pid) const {
  const std::vector<WallAttempt> snapshot = attempts();
  for (const WallAttempt& record : snapshot) {
    TraceSpan span;
    span.kind = SpanKind::kAttempt;
    span.phase = record.phase;
    span.pid = pid;
    span.task = record.task;
    span.attempt = record.attempt;
    span.machine = -1;  // no machine fault domain on the wall clock
    span.slot = record.worker;
    span.start = record.start;
    span.end = record.end;
    span.outcome = record.timed_out  ? SpanOutcome::kTimedOut
                   : record.failed  ? SpanOutcome::kFailed
                                    : SpanOutcome::kCompleted;
    trace->RecordSpan(span);
  }
}

ExecutionSeam::ExecutionSeam(const ClusterConfig& cluster,
                             const JobTiming& timing)
    : timing_(timing),
      trace_(cluster.trace),
      map_slots_per_machine_(cluster.map_slots_per_machine),
      reduce_slots_per_machine_(cluster.reduce_slots_per_machine),
      executor_(cluster.backend == ExecutionBackend::kThreaded
                    ? std::make_unique<ThreadedExecutor>(
                          cluster.execution_threads)
                    : nullptr) {}

int ExecutionSeam::threads() const {
  return executor_ != nullptr ? executor_->threads() : 1;
}

ThreadPool* ExecutionSeam::pool() const {
  return executor_ != nullptr ? executor_->pool() : nullptr;
}

size_t ExecutionSeam::BeginAttempt(TaskPhase phase, int task, int attempt) {
  return executor_ != nullptr ? executor_->BeginAttempt(phase, task, attempt)
                              : 0;
}

void ExecutionSeam::EndAttempt(size_t token, bool failed, bool timed_out) {
  if (executor_ != nullptr) executor_->EndAttempt(token, failed, timed_out);
}

void ExecutionSeam::EndPhase(TaskPhase phase) {
  if (executor_ != nullptr) executor_->EndPhase(phase);
}

TraceRecorder* ExecutionSeam::scheduler_trace() const {
  return executor_ != nullptr ? nullptr : trace_;
}

void ExecutionSeam::StampAttempts() const {
  if (executor_ == nullptr || trace_ == nullptr) return;
  executor_->StampAttemptSpans(trace_, trace_->current_pid());
}

void ExecutionSeam::MarkCheckpoint(SpanKind kind, int task,
                                   double cost_units) const {
  if (executor_ == nullptr || trace_ == nullptr) return;
  TraceSpan span;
  span.kind = kind;
  span.phase = TaskPhase::kReduce;
  span.pid = trace_->current_pid();
  span.task = task;
  span.machine = -1;
  span.slot = ThreadPool::CurrentWorker();
  span.start = executor_->Now();
  span.end = span.start;
  span.cost_units = cost_units;
  trace_->RecordSpan(span);
}

bool ExecutionSeam::Winner(TaskPhase phase, int task, TraceAnchor* out) const {
  if (executor_ != nullptr) {
    WallAttempt winner;
    if (!executor_->WinningAttempt(phase, task, &winner)) return false;
    *out = {winner.attempt, -1, winner.worker, winner.start, winner.end};
    return true;
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
  if (executor_ != nullptr) return executor_->phase_end(phase);
  return phase == TaskPhase::kMap ? timing_.map_end : timing_.end;
}

double ExecutionSeam::Submission() const {
  return executor_ != nullptr ? 0.0 : timing_.start;
}

double ExecutionSeam::CutStart(double deadline, double end) const {
  return executor_ != nullptr ? end : deadline;
}

}  // namespace progres
