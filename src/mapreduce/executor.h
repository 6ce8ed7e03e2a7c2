#ifndef PROGRES_MAPREDUCE_EXECUTOR_H_
#define PROGRES_MAPREDUCE_EXECUTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "mapreduce/fault.h"
#include "mapreduce/trace.h"

namespace progres {

class ThreadPool;
struct ClusterConfig;
struct JobTiming;

// Which engine executes a job's task attempts.
//
//  * kSimulated — attempts run serially on the submitting thread, in task
//    order. This is the deterministic reference: simulated time from the
//    attempt-aware scheduler is the only clock, and the paper's figures are
//    reproduced on it.
//  * kThreaded — attempts run concurrently on ClusterConfig::execution_threads
//    thread-pool workers and a monotonic wall clock is measured alongside.
//    The MR contract guarantees results are byte-identical to kSimulated:
//    all algorithmic cost is charged to per-task CostClocks, counters are
//    merged in task order after each phase barrier, and the shuffle
//    gather-sort order is fixed — so only the wall-clock measurements
//    (JobTiming::wall, wall-stamped trace spans) differ between runs.
//
// The simulated timeline remains the job's "results clock" under both
// backends: event timestamps, recall curves and schedule-derived "mr."
// counters come from ScheduleTaskAttemptsOnCluster either way.
enum class ExecutionBackend { kSimulated = 0, kThreaded = 1 };

// "simulated" / "threaded".
const char* ToString(ExecutionBackend backend);

// Parses a backend name as printed by ToString. Returns false (leaving
// `*out` untouched) on anything else.
bool ParseExecutionBackend(const std::string& name, ExecutionBackend* out);

// One task attempt as executed on the wall clock by the threaded backend.
// Unlike TaskAttemptTiming (simulated, deterministic), these are real
// measurements: start/end are seconds since the executor's epoch and vary
// run to run. `worker` is the pool worker lane the attempt ran on.
struct WallAttempt {
  TaskPhase phase = TaskPhase::kMap;
  int task = 0;
  int attempt = 0;
  int worker = 0;
  double start = 0.0;
  double end = 0.0;
  bool failed = false;     // injected failure, hang or poison crash
  bool timed_out = false;  // hung attempt (killed by heartbeat timeout)
};

// The threaded backend's engine: owns the worker pool and records the
// wall-clock timeline of every attempt executed on it. Thread-safe — the
// Begin/EndAttempt hooks are called concurrently from pool workers.
class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(int threads);
  ~ThreadedExecutor();

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  int threads() const;
  ThreadPool* pool() { return pool_.get(); }

  // Monotonic wall seconds since construction.
  double Now() const { return epoch_.ElapsedSeconds(); }

  // Attempt observer: BeginAttempt stamps the start time and worker lane
  // and returns a token; EndAttempt stamps the end time and outcome.
  size_t BeginAttempt(TaskPhase phase, int task, int attempt);
  void EndAttempt(size_t token, bool failed, bool timed_out);

  // Marks the phase barrier (all of the phase's attempts have finished).
  void EndPhase(TaskPhase phase);
  double phase_end(TaskPhase phase) const;

  // Snapshot of every recorded attempt, in completion order.
  std::vector<WallAttempt> attempts() const;

  // The winning (last, non-failed) executed attempt of `task` in `phase`.
  // Returns false if the task never completed an attempt successfully.
  bool WinningAttempt(TaskPhase phase, int task, WallAttempt* out) const;

  // Stamps one kAttempt trace span per executed attempt into `trace`, on
  // wall-clock time. Worker lanes stand in for slots; there is no machine
  // fault domain on the wall clock, so machine is -1 and spans carry no
  // speculative flag (the threaded backend rejects speculation).
  void StampAttemptSpans(TraceRecorder* trace, int pid) const;

 private:
  Stopwatch epoch_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;
  std::vector<WallAttempt> attempts_;
  double map_end_ = 0.0;
  double reduce_end_ = 0.0;
};

// Where a task's winning attempt sits on the trace clock.
struct TraceAnchor {
  int attempt = 0;
  int machine = -1;  // -1 on the wall clock, which has no machines
  int slot = -1;
  double start = 0.0;
  double end = 0.0;
};

// The backend seam of one job run: the only place MapReduceJob::Run
// consults ClusterConfig::backend. It picks the pool the attempt chains run
// on and tells the run's single trace emitter where the trace clock puts
// things. The simulated backend traces on the timing model's timeline
// (`timing`, which the run fills as it goes); the threaded backend traces
// on its executor's wall clock.
class ExecutionSeam {
 public:
  // `timing` must outlive the seam.
  ExecutionSeam(const ClusterConfig& cluster, const JobTiming& timing);

  ExecutionSeam(const ExecutionSeam&) = delete;
  ExecutionSeam& operator=(const ExecutionSeam&) = delete;

  int threads() const;

  // The pool TaskAttemptRunner::RunAll runs its attempt chains on. Null
  // under the simulated backend, whose chains run serially on the calling
  // thread.
  ThreadPool* pool() const;
  // RunAll's attempt observer: the threaded backend measures every attempt
  // on its wall clock (ThreadedExecutor::Begin/EndAttempt); the simulated
  // backend observes nothing.
  size_t BeginAttempt(TaskPhase phase, int task, int attempt);
  void EndAttempt(size_t token, bool failed, bool timed_out);

  // Closes `phase`'s barrier on the wall clock.
  void EndPhase(TaskPhase phase);

  // The trace the timing model records attempt spans into. Null under the
  // threaded backend, which stamps its measured attempts instead
  // (StampAttempts).
  TraceRecorder* scheduler_trace() const;
  void StampAttempts() const;

  // A checkpoint save/restore mark taken on a worker thread, recorded live
  // on the wall clock. The simulated timing model places its own marks, so
  // the simulated backend records nothing here.
  void MarkCheckpoint(SpanKind kind, int task, double cost_units) const;

  // Task `task`'s winning attempt in `phase`; false if it has none.
  bool Winner(TaskPhase phase, int task, TraceAnchor* out) const;
  // When `phase`'s barrier closed.
  double Barrier(TaskPhase phase) const;
  // When the job was submitted: the timing model's submit time, or the
  // wall clock's epoch.
  double Submission() const;
  // Where the span of a deadline cut at simulated time `deadline` starts
  // when it ends at `end` on the trace clock: at the deadline on the timing
  // model's timeline. The wall clock has no deadline point, so there the
  // span collapses onto `end`.
  double CutStart(double deadline, double end) const;

 private:
  const JobTiming& timing_;
  TraceRecorder* const trace_;
  const int map_slots_per_machine_;
  const int reduce_slots_per_machine_;
  // Null under the simulated backend.
  std::unique_ptr<ThreadedExecutor> executor_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_EXECUTOR_H_
