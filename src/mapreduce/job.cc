#include "mapreduce/job.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/executor.h"
#include "mapreduce/spill.h"
#include "mapreduce/trace.h"

namespace progres {

namespace {

// Executes the attempt chains of one phase's tasks, encapsulating the
// retry bookkeeping of the fault-tolerant runtime: per the FaultPlan, each
// task runs its failing attempts first, then the winning attempt. The reset
// hook prepares every attempt — MapReduceJob rewinds the task's context and
// its external per-task state there, so a retry never double-counts — and
// the optional abort hook observes each failed attempt before the retry.
// Per-attempt costs and doomed tasks are recorded for the attempt-aware
// timing model (ScheduleTaskAttemptsOnCluster) and the "mr." fault
// counters.
//
// With checkpointed recovery (checkpoint.h) the reset hook restores the
// task's last snapshot instead of clearing it, and the body reports the
// attempt's *incremental* cost (work past the restored boundary) so the
// timing model charges only the resumed portion.
class TaskAttemptRunner {
 public:
  // What the body callback receives for one attempt. `fail_point` is the
  // fraction of the attempt's input processed before the injected failure
  // fires; `hang_point` the fraction processed before a hung attempt's
  // heartbeat goes silent (both 1.0 when unused). At most one of `fails` /
  // `hangs` is set — the fault plan gives crashes precedence.
  struct Attempt {
    int task = 0;
    int attempt = 0;
    bool fails = false;
    double fail_point = 1.0;
    bool hangs = false;
    double hang_point = 1.0;
  };

  // What the body reports back: the cost units the attempt charged, and
  // whether a poison record crashed it mid-run (a *dynamic* failure the
  // fault plan cannot precompute — it depends on the quarantine state).
  struct BodyOutcome {
    double cost = 0.0;
    bool poison_crashed = false;
  };

  using ResetFn = std::function<void(int task)>;
  using BodyFn = std::function<BodyOutcome(const Attempt&)>;
  // Observes a failed attempt of `task`, before its retry.
  using AbortFn = std::function<void(int task)>;

  TaskAttemptRunner(TaskPhase phase, int num_tasks, const FaultPlan* plan)
      : phase_(phase),
        num_tasks_(num_tasks),
        plan_(plan),
        attempt_costs_(static_cast<size_t>(num_tasks)),
        attempt_hangs_(static_cast<size_t>(num_tasks)),
        doomed_(static_cast<size_t>(num_tasks), 0) {}

  // Per-task attempt caps from the supervisor's retry-budget ledger
  // (supervisor.h). Empty (the default) means every task gets the plan's
  // global max_attempts — the historical behaviour. A capped task that
  // exhausts its cap is doomed exactly like one exhausting max_attempts.
  void set_attempt_caps(std::vector<int> caps) { caps_ = std::move(caps); }

  // Attempt cap of task `t`: its ledger grant, or the global max_attempts.
  int EffectiveCap(int t) const {
    if (t >= 0 && t < static_cast<int>(caps_.size())) {
      return caps_[static_cast<size_t>(t)];
    }
    return plan_->max_attempts();
  }

  // Runs every task's attempt chain and waits for completion: one chain per
  // task concurrently on the seam's pool workers when it has a pool (the
  // threaded backend), serially in task order on the calling thread when it
  // has none (the simulated backend's deterministic reference path —
  // results are identical either way because all cross-task state is
  // merged after the phase barrier). The seam observes every attempt.
  // `abort` may be null. The chain cannot be precomputed from the plan
  // alone: a poison crash fails an attempt the plan scored as a winner, and
  // a quarantine later turns the same planned attempt into a real winner —
  // so the loop re-evaluates after every attempt.
  void RunAll(ExecutionSeam& seam, const ResetFn& reset, const BodyFn& body,
              const AbortFn& abort) {
    const auto chain = [this, &seam, &reset, &body, &abort](int t) {
      const int max_attempts = EffectiveCap(t);
      int attempt = 0;
      while (true) {
        Attempt a;
        a.task = t;
        a.attempt = attempt;
        a.fails = plan_->Fails(phase_, t, attempt);
        a.fail_point = a.fails ? plan_->FailurePoint(phase_, t, attempt) : 1.0;
        a.hangs = !a.fails && plan_->Hangs(phase_, t, attempt);
        a.hang_point = a.hangs ? plan_->HangPoint(phase_, t, attempt) : 1.0;
        reset(t);
        const size_t token = seam.BeginAttempt(phase_, t, attempt);
        const BodyOutcome out = body(a);
        attempt_costs_[static_cast<size_t>(t)].push_back(out.cost);
        // A hang only materializes if the attempt survived to the hang
        // point (a poison record earlier in the input crashes it first).
        const bool hung = a.hangs && !out.poison_crashed;
        attempt_hangs_[static_cast<size_t>(t)].push_back(hung ? 1 : 0);
        const bool failed = a.fails || a.hangs || out.poison_crashed;
        seam.EndAttempt(token, failed, hung);
        if (!failed) break;  // the winner
        if (abort) abort(t);
        ++attempt;
        if (attempt >= max_attempts) {
          doomed_[static_cast<size_t>(t)] = 1;
          break;
        }
      }
    };
    ThreadPool* const pool = seam.pool();
    if (pool == nullptr) {
      for (int t = 0; t < num_tasks_; ++t) chain(t);
      return;
    }
    for (int t = 0; t < num_tasks_; ++t) {
      pool->Submit([&chain, t] { chain(t); });
    }
    pool->Wait();
  }

  // Per-task cost of every executed attempt (failed attempts first, then
  // the winning one). Feeds the attempt-aware timing model.
  const std::vector<std::vector<double>>& attempt_costs() const {
    return attempt_costs_;
  }

  // Parallel to attempt_costs(): 1 where the attempt hung (stopped
  // heartbeating) instead of crashing. The timing model holds the slot for
  // the heartbeat timeout before killing such attempts.
  const std::vector<std::vector<char>>& attempt_hangs() const {
    return attempt_hangs_;
  }

  // Every task that exhausted its attempt cap, ascending: a fail-fast job
  // fails with the first, a degraded one quarantines them all.
  std::vector<int> DoomedTasks() const {
    std::vector<int> tasks;
    for (int t = 0; t < num_tasks_; ++t) {
      if (doomed_[static_cast<size_t>(t)]) tasks.push_back(t);
    }
    return tasks;
  }

  // Error message for a doomed task's clean job failure. Reports the task's
  // effective cap — identical to the historical max_attempts message
  // whenever no ledger cap is installed.
  std::string DoomedError(int task) const {
    return std::string(phase_ == TaskPhase::kMap ? "map" : "reduce") +
           " task " + std::to_string(task) + " failed after " +
           std::to_string(EffectiveCap(task)) + " attempts";
  }

  // Attempt/failure totals for this phase under the reserved "mr." counter
  // prefix. Every attempt of a doomed task failed; otherwise the last
  // attempt of each chain is the winner.
  void MergeFaultCounters(Counters* counters) const {
    int64_t attempts = 0;
    int64_t failed = 0;
    for (size_t t = 0; t < attempt_costs_.size(); ++t) {
      const int64_t executed = static_cast<int64_t>(attempt_costs_[t].size());
      attempts += executed;
      failed += doomed_[t] ? executed : executed - 1;
    }
    counters->Increment("mr.attempts", attempts);
    counters->Increment("mr.failed_attempts", failed);
  }

 private:
  TaskPhase phase_;
  int num_tasks_;
  const FaultPlan* plan_;
  std::vector<std::vector<double>> attempt_costs_;
  std::vector<std::vector<char>> attempt_hangs_;
  std::vector<char> doomed_;
  std::vector<int> caps_;
};

// Zero totals stay absent, so a fault-free job's counter set is unchanged.
void CountIfPositive(Counters* counters, const char* name, int64_t value) {
  if (value > 0) counters->Increment(name, value);
}

// Machine-fault-domain and retry-hygiene totals of one phase's schedule,
// under the reserved "mr." counter prefix: attempts killed by machine loss,
// simulated retry-backoff delay, machines blacklisted for repeated attempt
// failures, and the cost re-executed because of machine kills (~ pair
// comparisons; see cost_clock.h).
void MergeRecoveryCounters(const AttemptScheduleOutcome& outcome,
                           Counters* counters) {
  CountIfPositive(counters, "mr.faults.machine_lost",
                  outcome.machine_lost_attempts);
  CountIfPositive(counters, "mr.faults.task_timeouts", outcome.timeout_kills);
  CountIfPositive(counters, "mr.faults.machines_dead", outcome.machines_lost);
  CountIfPositive(counters, "mr.blacklist.machines",
                  outcome.machines_blacklisted);
  // Rounded totals count whenever the unrounded one is positive.
  if (outcome.backoff_seconds > 0.0) {
    counters->Increment(
        "mr.retry.backoff_seconds",
        static_cast<int64_t>(outcome.backoff_seconds + 0.5));
  }
  if (outcome.replayed_cost_units > 0.0) {
    counters->Increment(
        "mr.recovery.replayed_cost",
        static_cast<int64_t>(outcome.replayed_cost_units + 0.5));
  }
}

// Speculation totals for a finished job's timing, under the reserved "mr."
// counter prefix.
void MergeSpeculationCounters(const JobTiming& timing, Counters* counters) {
  int64_t launched = 0;
  int64_t wins = 0;
  for (const auto* phase : {&timing.map_attempts, &timing.reduce_attempts}) {
    for (const TaskAttemptTiming& attempt : *phase) {
      if (!attempt.speculative) continue;
      ++launched;
      if (attempt.won) ++wins;
    }
  }
  counters->Increment("mr.speculative_launched", launched);
  counters->Increment("mr.speculative_wins", wins);
}

JobReport Rejected(const std::string& error, double submit_time,
                   const Stopwatch& wall_watch) {
  JobReport result;
  result.failed = true;
  result.error = error;
  result.timing.start = submit_time;
  result.timing.map_end = submit_time;
  result.timing.end = submit_time;
  result.timing.wall.total_seconds = wall_watch.ElapsedSeconds();
  return result;
}

}  // namespace

// Everything the stages of one Run share, and the stages themselves: a
// fixed sequence over this state (see Run).
struct JobRuntime::RunState {
  // Per-task state of one run. An attempt only ever touches its own task's
  // entry, so the threaded backend's workers share nothing here.
  struct MapTask {
    MapTaskData ctx;
    // Executions so far (attempt retries and barrier re-runs alike): each
    // draws fresh disk-fault decisions and unique run-file names.
    int generation = 0;
    // Storage-fault tallies of the surviving executions (failed attempts'
    // are discarded with the rest of their artifacts).
    Shuffle::MapOutput::DiskStats disk;
    // Input records skip-bad-records quarantined, in input order.
    std::vector<int64_t> quarantined;
    // Degraded outcome for the completeness report (kComplete: none).
    TaskReport report;
  };

  struct ReduceTask {
    ReduceTaskData ctx;
    // Restored base cost and group watermark of the running attempt.
    double base = 0.0;
    int64_t skip = 0;
    // The base of every executed attempt, for the timing model's recovery
    // of machine-killed attempts.
    std::vector<double> bases;
    // Input values that failed attempts forced their retries to re-process.
    int64_t replayed = 0;
    // Seconds the task waits for map re-runs to regenerate corrupt shuffle
    // partitions and corrupt spill runs.
    double fetch_stall = 0.0;
    // Merge accounting of the most recent attempt, so the winner's values
    // survive.
    Shuffle::GatherStats gather;
    // Set when the task's first restore this run came from a checkpoint an
    // earlier process persisted; `restart_cost` is the restored boundary.
    bool restart_restored = false;
    double restart_cost = 0.0;
    TaskReport report;
  };

  // Supervisor events, one per kDeadlineCancel / kTaskQuarantine /
  // kBreakerTrip span. The "mr.supervisor.*" activity counters are derived
  // from this same list, so counters and spans reconcile by construction.
  struct SupervisorEvent {
    SpanKind kind;
    TaskPhase phase;
    int task;
    int domain;       // FaultDomain index for breaker trips, else -1
    double cost;      // restored boundary cost (cut/quarantine), else 0
    double deadline;  // the cut deadline, anchoring kDeadlineCancel spans
  };

  // A spill run that failed CRC validation at the map barrier.
  struct CorruptRunEvent {
    int task;
    int64_t records;
    int64_t bytes;
  };

  RunState(JobRuntime& runtime, size_t records, Tasks& typed,
           const ClusterConfig& config, double submit_time,
           const Stopwatch& watch, std::vector<std::string>* task_outputs)
      : job(runtime),
        input_size(records),
        tasks(typed),
        cluster(config),
        wall_watch(watch),
        outputs(task_outputs),
        store(runtime.checkpointing() ? runtime.checkpoint_store_ : nullptr),
        plan(config.fault),
        map_runner(TaskPhase::kMap, runtime.num_map_tasks_, &plan),
        reduce_runner(TaskPhase::kReduce, runtime.num_reduce_tasks_, &plan),
        supervisor(config.control, &plan, runtime.num_map_tasks_,
                   runtime.num_reduce_tasks_),
        seam(config, result.timing),
        maps(static_cast<size_t>(runtime.num_map_tasks_)),
        reduces(static_cast<size_t>(runtime.num_reduce_tasks_)),
        poison_crashes(static_cast<size_t>(plan.num_poison_records()), 0),
        poison_quarantined(static_cast<size_t>(plan.num_poison_records()),
                           0) {
    result.timing.start = submit_time;
    result.timing.wall.threads = seam.threads();
    for (int t = 0; t < job.num_map_tasks_; ++t) {
      map_task(t).ctx.task_id = t;
      map_outputs.push_back(&map_task(t).ctx.output);
    }
    for (int t = 0; t < job.num_reduce_tasks_; ++t) {
      reduce_task(t).ctx.task_id = t;
    }
    poison_active = job.poison_faults_ && plan.enabled() &&
                    plan.num_poison_records() > 0;
    // The supervisor precomputes the retry-budget ledger and the breaker
    // state from the fault plan — pure functions, identical under both
    // backends. An inactive JobControl leaves the run byte- and
    // timing-identical to the unsupervised runtime.
    if (!supervisor.active()) return;
    map_runner.set_attempt_caps(supervisor.map_attempt_caps());
    reduce_runner.set_attempt_caps(supervisor.reduce_attempt_caps());
    if (supervisor.budget_breaker_tripped()) {
      supervisor_events.push_back({SpanKind::kBreakerTrip, TaskPhase::kMap,
                                   -1, static_cast<int>(FaultDomain::kTask),
                                   0.0, 0.0});
    }
    // Disk circuit breaker: armed only when a fallback dir exists to fail
    // over to — without one the sticky spill error must surface unchanged.
    const Shuffle::SpillConfig& spill = job.shuffle_.spill_config();
    disk_breaker = supervisor.disk_breaker_tripped() && spill.enabled &&
                   !spill.fallback_dir.empty();
    if (disk_breaker) {
      supervisor_events.push_back({SpanKind::kBreakerTrip, TaskPhase::kMap,
                                   supervisor.first_full_task(),
                                   static_cast<int>(FaultDomain::kDisk),
                                   0.0, 0.0});
    }
  }

  MapTask& map_task(int t) { return maps[static_cast<size_t>(t)]; }
  ReduceTask& reduce_task(int t) { return reduces[static_cast<size_t>(t)]; }

  const JobRuntime& job;
  const size_t input_size;
  Tasks& tasks;
  const ClusterConfig& cluster;
  const Stopwatch wall_watch;
  // Receives each reduce task's encoded outputs when the job succeeds.
  std::vector<std::string>* const outputs;
  // The checkpoint store while checkpointing is on, else null.
  CheckpointStore* const store;
  JobReport result;
  const FaultPlan plan;
  TaskAttemptRunner map_runner;
  TaskAttemptRunner reduce_runner;
  const JobSupervisor supervisor;
  ExecutionSeam seam;
  std::vector<MapTask> maps;
  std::vector<ReduceTask> reduces;
  std::vector<Shuffle::MapOutput*> map_outputs;
  // Poison-record state, keyed by FaultPlan::PoisonIndex. Records
  // partition into disjoint per-map-task ranges, so each entry is only
  // ever touched by one task's thread.
  bool poison_active = false;
  std::vector<int> poison_crashes;
  std::vector<char> poison_quarantined;
  bool disk_breaker = false;
  std::vector<SupervisorEvent> supervisor_events;
  // One (reduce, map) pair per checksum error detected at the barrier.
  std::vector<std::pair<int, int>> corrupt_events;
  std::vector<CorruptRunEvent> corrupt_run_events;
  // Reduce tasks the timing model could not place (degraded mode).
  std::vector<int> unplaced;
  bool wall_expired = false;
  bool reduce_started = false;
  bool map_scheduled = false;

  // ---- Map phase ----
  void RunMapPhase() {
    map_runner.RunAll(
        seam, [this](int t) { ResetMap(t); },
        [this](const TaskAttemptRunner::Attempt& attempt) {
          return RunMapAttempt(attempt);
        },
        nullptr);
    seam.EndPhase(TaskPhase::kMap);
    result.timing.wall.map_seconds = wall_watch.ElapsedSeconds();
  }

  // Prepares map task `t` for a fresh execution, a scheduled attempt or a
  // barrier re-run alike. Each execution bumps the task's generation.
  void ResetMap(int t) {
    MapTask& task = map_task(t);
    ResetMapContext(&task.ctx);
    task.ctx.output.ConfigureSpill(&plan, task.generation++);
    // Disk breaker: once the first task discovered the primary spill dir
    // full, later tasks start directly on the fallback — one global
    // failover instead of a per-task ENOSPC retry storm.
    if (disk_breaker && supervisor.StartOnFallback(t)) {
      task.ctx.output.StartOnFallback();
    }
  }

  // Task `t`'s contiguous input chunk [first, second) of `n` records.
  std::pair<size_t, size_t> Chunk(size_t n, int t) const {
    const size_t count = static_cast<size_t>(job.num_map_tasks_);
    return {n * static_cast<size_t>(t) / count,
            n * static_cast<size_t>(t + 1) / count};
  }

  // Runs the map function over the attempt's share of its task's chunk, in
  // ranges between poison records: a quarantined one is skipped, any other
  // crashes the attempt. Crashes and hangs both cut the attempt short; a
  // hung attempt simply stops heartbeating at its cutoff.
  TaskAttemptRunner::BodyOutcome RunMapAttempt(
      const TaskAttemptRunner::Attempt& attempt) {
    MapTask& task = map_task(attempt.task);
    const auto [lo, hi] = Chunk(input_size, attempt.task);
    size_t end = hi;
    const bool cut = attempt.fails || attempt.hangs;
    if (cut) {
      const double point =
          attempt.fails ? attempt.fail_point : attempt.hang_point;
      end = lo + static_cast<size_t>(static_cast<double>(hi - lo) * point);
    }
    TaskAttemptRunner::BodyOutcome out;
    size_t begin = lo;
    for (size_t i = lo; poison_active && i < end; ++i) {
      const int64_t record = static_cast<int64_t>(i);
      if (!plan.IsPoisonRecord(record)) continue;
      tasks.Map(&task.ctx, begin, i);
      begin = i + 1;
      const size_t p = static_cast<size_t>(plan.PoisonIndex(record));
      if (poison_quarantined[p]) continue;  // skipped, not run
      // Once it has crashed max_attempts_before_skip attempts,
      // skip-bad-records quarantines it so the next attempt passes over it.
      ++poison_crashes[p];
      if (cluster.fault.skip_bad_records &&
          poison_crashes[p] >= cluster.fault.max_attempts_before_skip) {
        poison_quarantined[p] = 1;
        task.quarantined.push_back(record);
      }
      out.poison_crashed = true;
      break;
    }
    if (!out.poison_crashed) tasks.Map(&task.ctx, begin, end);
    if (!cut && !out.poison_crashed) {
      task.ctx.stats.cost = task.ctx.clock.units();
    }
    out.cost = task.ctx.clock.units();
    return out;
  }

  // ---- Map barrier ----
  // Doomed map tasks, spill errors, CRC re-runs, the shuffle accounting and
  // the wall deadline. Returns false when the job fails here.
  bool CloseMapBarrier() {
    const JobControl& control = cluster.control;
    map_runner.MergeFaultCounters(&result.counters);
    // Quarantine bookkeeping survives even a doomed job: the skipped
    // records and their counter are facts about the map phase.
    for (int t = 0; t < job.num_map_tasks_; ++t) {
      for (const int64_t record : map_task(t).quarantined) {
        result.quarantined.push_back({t, record});
      }
    }
    CountIfPositive(&result.counters, "mr.skipped.records",
                    static_cast<int64_t>(result.quarantined.size()));
    const std::vector<int> doomed = map_runner.DoomedTasks();
    if (!doomed.empty() && !control.allow_degraded) {
      return Fail(map_runner.DoomedError(doomed.front()));
    }
    // Degraded mode: quarantine every doomed map task and keep going.
    for (const int t : doomed) QuarantineMap(t);
    // A winning map attempt that could not honour the spill contract fails
    // the job with the labelled I/O error — silently exceeding the memory
    // budget is not an option (the buffered data stayed complete in memory,
    // but the configuration needs fixing, not retrying). Degraded mode
    // quarantines the task instead.
    for (int t = 0; t < job.num_map_tasks_; ++t) {
      const std::string& spill_error = map_task(t).ctx.output.spill_error();
      if (spill_error.empty()) continue;
      if (!control.allow_degraded) {
        return Fail("map task " + std::to_string(t) + ": " + spill_error);
      }
      QuarantineMap(t);
    }
    if (job.shuffle_.spill_config().enabled && plan.HasDiskFaults() &&
        !ValidateSpillRuns()) {
      return false;
    }

    // Shuffle volume of the winning map attempts, and every sorted spill
    // run that will feed the reduce-side merges (one kSpillWrite span per
    // run).
    Shuffle::Volume volume;
    int64_t spill_runs = 0;
    int64_t spill_records = 0;
    int64_t spill_bytes = 0;
    for (const MapTask& task : maps) {
      const auto task_volume = job.shuffle_.MeasureVolume(task.ctx.output);
      volume.records += task_volume.records;
      volume.bytes += task_volume.bytes;
      for (const SpillRun& run : task.ctx.output.spill_runs()) {
        ++spill_runs;
        spill_records += run.records;
        spill_bytes += run.bytes;
      }
    }
    result.counters.Increment("mr.shuffle.records", volume.records);
    result.counters.Increment("mr.shuffle.bytes", volume.bytes);
    // Every run holds records, so the three counters appear together.
    CountIfPositive(&result.counters, "mr.spill.runs", spill_runs);
    CountIfPositive(&result.counters, "mr.spill.records", spill_records);
    CountIfPositive(&result.counters, "mr.spill.bytes", spill_bytes);

    // ---- Shuffle corruption: detection & recovery ----
    // The fault plan decides which (map, reduce) fetches arrive corrupt,
    // and the model takes the consuming reduce task's checksum check to
    // catch every one; the delivered bytes themselves are never altered,
    // so no checksum is computed. A corrupt fetch is re-fetched (free —
    // the shuffle is in-memory), and after max_fetch_retries consecutive
    // corrupt copies the producing map attempt is re-run, stalling the
    // reduce task for the map's winning run time.
    if (plan.enabled() && cluster.fault.shuffle_corrupt_prob > 0.0) {
      int64_t checksum_errors = 0;
      int64_t map_reruns = 0;
      const int max_fetch_retries = cluster.fault.max_fetch_retries;
      for (int r = 0; r < job.num_reduce_tasks_; ++r) {
        for (int m = 0; m < job.num_map_tasks_; ++m) {
          const int corrupt = plan.CorruptFetches(m, r, max_fetch_retries + 1);
          if (corrupt == 0) continue;
          checksum_errors += corrupt;
          for (int e = 0; e < corrupt; ++e) corrupt_events.push_back({r, m});
          if (corrupt > max_fetch_retries) {
            // Re-fetching never yielded a clean copy: re-run the winning
            // map attempt (at nominal speed) to regenerate the partition.
            ++map_reruns;
            reduce_task(r).fetch_stall += MapRerunSeconds(m);
          }
        }
      }
      CountIfPositive(&result.counters, "mr.shuffle.checksum_errors",
                      checksum_errors);
      // One re-fetch per detected error.
      CountIfPositive(&result.counters, "mr.shuffle.refetches",
                      checksum_errors);
      CountIfPositive(&result.counters, "mr.shuffle.map_reruns", map_reruns);
    }

    // ---- Wall-clock deadline at the map/reduce barrier ----
    // The supervisor's coarse wall-clock guard: a job already past its wall
    // deadline when the map barrier closes does not start reduce work.
    // Degraded mode cancels every reduce task (BuildTimeline); otherwise the
    // job fails with a labelled error.
    if (control.wall_deadline_seconds > 0.0 &&
        wall_watch.ElapsedSeconds() > control.wall_deadline_seconds) {
      if (!control.allow_degraded) {
        return Fail(
            "job wall-clock deadline exceeded at the map/reduce barrier");
      }
      wall_expired = true;
    }
    return true;
  }

  // Simulated seconds a map task's winning attempt takes to re-run.
  double MapRerunSeconds(int m) const {
    return map_runner.attempt_costs()[static_cast<size_t>(m)].back() *
           cluster.seconds_per_cost_unit;
  }

  // ---- CRC validation of the spill runs the merges will trust ----
  // Torn writes and flipped bytes are silent at write time; the barrier
  // re-reads every winning run against its CRC before any reduce-side merge
  // trusts the bytes. A task with an invalid run re-runs in place — a fresh
  // generation with fresh fault decisions, mirroring the shuffle-corruption
  // map re-run — and each re-run stalls the reduce tasks it feeds for the
  // map's run time. The attempt budget caps the rounds; exhausting it fails
  // the job with a labelled error. Exports the "mr.disk.*" tallies either
  // way; returns false when the job failed.
  bool ValidateSpillRuns() {
    const bool degraded = cluster.control.allow_degraded;
    int64_t reruns = 0;
    for (int t = 0; t < job.num_map_tasks_ && !result.failed; ++t) {
      MapTask& task = map_task(t);
      for (int round = 1;; ++round) {
        const size_t known = corrupt_run_events.size();
        const auto& output = task.ctx.output;
        for (size_t i = 0; i < output.spill_runs().size(); ++i) {
          if (output.SpillRunIntact(i)) continue;
          const SpillRun& run = output.spill_runs()[i];
          corrupt_run_events.push_back({t, run.records, run.bytes});
        }
        if (corrupt_run_events.size() == known) break;
        std::string error;
        if (round >= plan.max_attempts()) {
          error = "map task " + std::to_string(t) +
                  ": spill runs failed CRC validation after " +
                  std::to_string(round) + " generations";
        } else {
          ++reruns;
          const double stall = MapRerunSeconds(t);
          for (ReduceTask& reduce : reduces) reduce.fetch_stall += stall;
          task.disk += task.ctx.output.disk_stats();
          ResetMap(t);
          TaskAttemptRunner::Attempt rerun;
          rerun.task = t;
          RunMapAttempt(rerun);
          if (task.ctx.output.spill_error().empty()) continue;
          error = "map task " + std::to_string(t) + ": " +
                  task.ctx.output.spill_error();
        }
        if (degraded) {
          QuarantineMap(t);
        } else {
          Fail(error);
        }
        break;
      }
    }
    Shuffle::MapOutput::DiskStats sum;
    for (MapTask& task : maps) {
      task.disk += task.ctx.output.disk_stats();
      sum += task.disk;
    }
    Counters* counters = &result.counters;
    CountIfPositive(counters, "mr.disk.write_errors", sum.write_errors);
    CountIfPositive(counters, "mr.disk.retries", sum.retries);
    CountIfPositive(counters, "mr.disk.retry_backoff_seconds",
                    static_cast<int64_t>(std::llround(sum.backoff_seconds)));
    CountIfPositive(counters, "mr.disk.enospc", sum.enospc);
    CountIfPositive(counters, "mr.disk.torn_writes", sum.torn_writes);
    CountIfPositive(counters, "mr.disk.dir_failovers", sum.dir_failovers);
    CountIfPositive(counters, "mr.disk.corrupt_runs",
                    static_cast<int64_t>(corrupt_run_events.size()));
    CountIfPositive(counters, "mr.disk.map_reruns", reruns);
    return !result.failed;
  }

  // ---- Reduce phase ----
  void RunReducePhase() {
    reduce_started = true;
    reduce_runner.RunAll(
        seam, [this](int t) { ResetReduce(t); },
        [this](const TaskAttemptRunner::Attempt& attempt) {
          ReduceTask& task = reduce_task(attempt.task);
          RunReduceAttempt(&task, attempt);
          // Incremental cost: with a restored checkpoint, only the work past
          // the boundary counts as this attempt's duration.
          return TaskAttemptRunner::BodyOutcome{
              task.ctx.clock.units() - task.base, false};
        },
        [this](int t) {
          // The retry repeats everything past the last checkpoint (from
          // scratch without one) — the measurable price of the failure.
          ReduceTask& task = reduce_task(t);
          const TaskCheckpoint* checkpoint = LatestCheckpoint(t);
          const int64_t kept =
              checkpoint != nullptr ? checkpoint->records_in : 0;
          task.replayed +=
              std::max<int64_t>(0, task.ctx.stats.records_in - kept);
        });
    seam.EndPhase(TaskPhase::kReduce);
    const bool degraded = cluster.control.allow_degraded;
    reduce_runner.MergeFaultCounters(&result.counters);
    const std::vector<int> doomed = reduce_runner.DoomedTasks();
    if (!doomed.empty() && !degraded) {
      Fail(reduce_runner.DoomedError(doomed.front()));
      return;
    }
    // Degraded mode: quarantine, restoring each doomed task's checkpointed
    // prefix, and keep the job alive.
    for (const int t : doomed) QuarantineReduce(t);
    // A gather that could not read its spill runs back (unreadable or
    // corrupt files) fails the job with the labelled error, like any other
    // data-plane fault — or, degraded, quarantines the task. Tasks whose
    // winning gather ran the k-way external merge count one merge pass each
    // (one kSpillMerge span per task).
    int64_t merge_passes = 0;
    for (int t = 0; t < job.num_reduce_tasks_; ++t) {
      ReduceTask& task = reduce_task(t);
      if (!task.gather.error.empty()) {
        if (!degraded) {
          Fail("reduce task " + std::to_string(t) + ": " + task.gather.error);
          return;
        }
        if (task.report.kind == TaskOutcomeKind::kComplete) {
          QuarantineReduce(t);
        }
      }
      if (task.gather.runs_merged > 0) ++merge_passes;
    }
    CountIfPositive(&result.counters, "mr.spill.merge_passes", merge_passes);
  }

  // Starts reduce task `t`'s next attempt from its latest checkpoint, or
  // from scratch without one.
  void ResetReduce(int t) {
    ReduceTask& task = reduce_task(t);
    const TaskCheckpoint* checkpoint = LatestCheckpoint(t);
    Rewind(&task.ctx, checkpoint);
    task.base = checkpoint != nullptr ? checkpoint->cost : 0.0;
    task.skip = checkpoint != nullptr ? checkpoint->groups : 0;
    task.bases.push_back(task.base);
    if (checkpoint == nullptr) return;
    // A snapshot still marked preloaded came off disk from an earlier
    // process — this restore is a cross-process restart, tallied separately
    // under "mr.restart.restored_tasks".
    if (store->Preloaded(t)) {
      task.restart_restored = true;
      task.restart_cost = checkpoint->cost;
    }
    store->NoteRestore(t);
    seam.MarkCheckpoint(SpanKind::kCheckpointRestore, t, checkpoint->cost);
  }

  // ---- Simulated timeline (failed attempts, retries, machine faults) ----
  // The results clock under both backends, plus the recovery bookkeeping of
  // the executed attempts. Returns false when a phase ran out of machines.
  bool BuildTimeline() {
    int64_t replayed = 0;
    int64_t restored_tasks = 0;
    for (const ReduceTask& task : reduces) {
      replayed += task.replayed;
      restored_tasks += task.restart_restored ? 1 : 0;
    }
    CountIfPositive(&result.counters, "mr.recovery.replayed_pairs", replayed);
    if (store != nullptr) {
      CountIfPositive(&result.counters, "mr.checkpoint.saved", store->saved());
      CountIfPositive(&result.counters, "mr.checkpoint.restored",
                      store->restored());
      CountIfPositive(&result.counters, "mr.restart.restored_tasks",
                      restored_tasks);
      CountIfPositive(&result.counters, "mr.restart.corrupt_checkpoints",
                      store->corrupt_checkpoints());
    }

    const int lost_map = ScheduleMap();
    if (lost_map >= 0 && !result.failed) {
      return Fail("map task " + std::to_string(lost_map) +
                  " lost: no healthy machines remain");
    }
    const double map_end = result.timing.map_end;
    if (wall_expired) {
      // Past the wall deadline no reduce attempt ever started: the job
      // finalizes at the map barrier and every reduce task is cancelled.
      result.timing.reduce_start.assign(
          static_cast<size_t>(job.num_reduce_tasks_), map_end);
      for (int t = 0; t < job.num_reduce_tasks_; ++t) {
        Degrade(TaskPhase::kReduce, t, TaskOutcomeKind::kCancelled,
                GatheredTotal(t), 0, 0.0, map_end);
      }
      return true;
    }
    AttemptScheduleOptions options =
        PhaseOptions(TaskPhase::kReduce, map_end);
    for (int t = 0; t < job.num_reduce_tasks_; ++t) {
      ReduceTask& task = reduce_task(t);
      options.attempt_bases.push_back(std::move(task.bases));
      options.fetch_stall_seconds.push_back(task.fetch_stall);
      if (store != nullptr) {
        options.recovery_points.push_back(store->RecoveryPoints(t));
      }
    }
    // Degraded-mode placement: machine loss that leaves reduce tasks
    // unplaceable quarantines them (EnforceDeadline) instead of failing the
    // job.
    options.tolerate_unplaced = cluster.control.allow_degraded;
    AttemptScheduleOutcome schedule =
        ScheduleTaskAttemptsOnCluster(reduce_runner.attempt_costs(), options);
    MergeRecoveryCounters(schedule, &result.counters);
    result.timing.reduce_attempts = std::move(schedule.attempts);
    result.timing.reduce_start = std::move(schedule.winning_starts);
    result.timing.end = schedule.end_time;
    unplaced = std::move(schedule.unplaced_tasks);
    if (schedule.failed && !result.failed) {
      return Fail("reduce task " + std::to_string(schedule.failed_task) +
                  " lost: no healthy machines remain");
    }
    return true;
  }

  // Schedules the map phase's attempts on the simulated cluster; the job
  // ends at the map barrier until the reduce phase is scheduled. Returns
  // the task that ran out of machines, or -1.
  int ScheduleMap() {
    AttemptScheduleOutcome schedule = ScheduleTaskAttemptsOnCluster(
        map_runner.attempt_costs(),
        PhaseOptions(TaskPhase::kMap, result.timing.start));
    MergeRecoveryCounters(schedule, &result.counters);
    result.timing.map_attempts = std::move(schedule.attempts);
    result.timing.map_end = schedule.end_time;
    result.timing.end = schedule.end_time;
    map_scheduled = true;
    return schedule.failed ? schedule.failed_task : -1;
  }

  // Scheduler inputs of one phase: its slots, the machine fault domain, the
  // retry-hygiene knobs, and the phase's hung attempts with the heartbeat
  // timeout that kills them.
  AttemptScheduleOptions PhaseOptions(const TaskPhase phase,
                                      double start) const {
    const bool map = phase == TaskPhase::kMap;
    AttemptScheduleOptions options;
    options.slots_per_machine = map ? cluster.map_slots_per_machine
                                    : cluster.reduce_slots_per_machine;
    options.slot_speeds = cluster.SlotSpeeds(options.slots_per_machine);
    options.start_time = start;
    options.seconds_per_cost_unit = cluster.seconds_per_cost_unit;
    options.speculation = cluster.speculation;
    options.machine_failures = plan.MachineFailures(cluster.machines);
    options.retry_backoff_seconds = cluster.fault.retry_backoff_seconds;
    options.retry_backoff_factor = cluster.fault.retry_backoff_factor;
    options.blacklist_failures = cluster.fault.blacklist_failures;
    options.hang_attempts =
        (map ? map_runner : reduce_runner).attempt_hangs();
    options.task_timeout_seconds = cluster.fault.task_timeout_seconds;
    options.trace = seam.scheduler_trace();
    options.trace_phase = phase;
    options.trace_pid =
        cluster.trace != nullptr ? cluster.trace->current_pid() : 0;
    return options;
  }

  // ---- Job supervision: deadline enforcement, best-effort finalization ----
  // The simulated deadline is enforced post-hoc on the results clock —
  // identical under both backends, since the threaded backend computes the
  // same simulated timeline. Without allow_degraded an overrun is a clean
  // labelled failure; with it, each late reduce task is cut back to its
  // last checkpoint at or below the progress the deadline allowed
  // (cancelled outright without one) and the job finalizes at the deadline.
  // Returns false when the job fails here.
  bool EnforceDeadline() {
    if (result.failed || !supervisor.active()) return true;
    const double deadline = cluster.control.deadline_seconds;
    if (deadline > 0.0 && result.timing.end > deadline &&
        !cluster.control.allow_degraded) {
      return Fail("job deadline exceeded: finished at " +
                  std::to_string(result.timing.end) + "s > deadline " +
                  std::to_string(deadline) + "s");
    }
    for (const int t : unplaced) {
      if (reduce_task(t).report.kind == TaskOutcomeKind::kComplete) {
        QuarantineReduce(t);
      }
    }
    if (deadline <= 0.0) return true;
    const std::vector<double> speeds =
        cluster.SlotSpeeds(cluster.reduce_slots_per_machine);
    for (const TaskAttemptTiming& a : result.timing.reduce_attempts) {
      if (!a.won || a.end <= deadline) continue;
      const int t = a.task;
      ReduceTask& task = reduce_task(t);
      if (task.report.kind != TaskOutcomeKind::kComplete) continue;
      // Progress the deadline allowed: the winning attempt advances from
      // its restored base at its slot's speed. (A mid-attempt machine-kill
      // resume point is above the base — the cut then restores an earlier
      // checkpoint: conservative, still deterministic.)
      const double speed = a.slot >= 0 && a.slot < static_cast<int>(speeds.size())
                               ? speeds[static_cast<size_t>(a.slot)]
                               : 1.0;
      const double start = result.timing.reduce_start[static_cast<size_t>(t)];
      const double cut_cost =
          task.base + std::max(0.0, deadline - start) * speed /
                          cluster.seconds_per_cost_unit;
      const int64_t total = task.ctx.stats.records_in;
      const TaskCheckpoint* checkpoint =
          store != nullptr ? store->LatestAtOrBelow(t, cut_cost) : nullptr;
      Rewind(&task.ctx, checkpoint);
      if (checkpoint != nullptr) {
        Degrade(TaskPhase::kReduce, t, TaskOutcomeKind::kCut, total,
                checkpoint->records_in, checkpoint->cost, deadline);
      } else {
        Degrade(TaskPhase::kReduce, t, TaskOutcomeKind::kCancelled, total,
                0, 0.0, deadline);
      }
    }
    // The job finalizes at the deadline: everything past it was cancelled.
    // (Reaching here with an overrun implies allow_degraded — the fail-fast
    // branch above returned otherwise.)
    result.timing.end = std::min(result.timing.end, deadline);
    return true;
  }

  // ---- Collection and the completeness report ----
  // Stats, counters and outputs are collected after the timing model and
  // the deadline enforcement: a cut task's context must hold exactly its
  // restored prefix when it is read.
  void Collect() {
    MergeSpeculationCounters(result.timing, &result.counters);
    if (result.failed) return;
    for (MapTask& task : maps) {
      result.map_stats.push_back(task.ctx.stats);
      result.counters.MergeFrom(task.ctx.counters);
    }
    for (ReduceTask& task : reduces) {
      result.reduce_stats.push_back(task.ctx.stats);
      result.counters.MergeFrom(task.ctx.counters);
      outputs->push_back(std::move(task.ctx.outputs));
    }
    if (!supervisor.active()) return;
    CompletenessReport& completeness = result.completeness;
    for (const MapTask& task : maps) {
      if (task.report.kind != TaskOutcomeKind::kComplete) {
        completeness.tasks.push_back(task.report);
      }
    }
    for (const ReduceTask& task : reduces) {
      if (task.report.kind != TaskOutcomeKind::kComplete) {
        completeness.tasks.push_back(task.report);
      } else {
        completeness.records_total += task.ctx.stats.records_in;
        completeness.records_covered += task.ctx.stats.records_in;
      }
    }
    for (const TaskReport& report : completeness.tasks) {
      completeness.records_total += report.records_total;
      completeness.records_covered += report.records_covered;
    }
    completeness.covered_fraction =
        completeness.records_total > 0
            ? static_cast<double>(completeness.records_covered) /
                  static_cast<double>(completeness.records_total)
            : 1.0;
    completeness.degraded = !completeness.tasks.empty();
    for (const SupervisorEvent& event : supervisor_events) {
      if (event.kind == SpanKind::kDeadlineCancel) {
        ++completeness.deadline_cancels;
      } else if (event.kind == SpanKind::kTaskQuarantine) {
        ++completeness.quarantined_tasks;
      } else {
        ++completeness.breaker_trips;
      }
    }
    completeness.retries_denied = supervisor.retries_denied();
    Counters* counters = &result.counters;
    CountIfPositive(counters, "mr.supervisor.deadline_cancels",
                    completeness.deadline_cancels);
    CountIfPositive(counters, "mr.supervisor.quarantined_tasks",
                    completeness.quarantined_tasks);
    CountIfPositive(counters, "mr.supervisor.breaker_trips",
                    completeness.breaker_trips);
    CountIfPositive(counters, "mr.supervisor.retries_denied",
                    completeness.retries_denied);
    CountIfPositive(counters, "mr.supervisor.retry_spend.task",
                    counters->Get("mr.failed_attempts"));
    CountIfPositive(counters, "mr.supervisor.retry_spend.machine",
                    counters->Get("mr.faults.machine_lost"));
    CountIfPositive(counters, "mr.supervisor.retry_spend.disk",
                    counters->Get("mr.disk.retries") +
                        counters->Get("mr.disk.map_reruns"));
    CountIfPositive(counters, "mr.supervisor.retry_spend.data",
                    counters->Get("mr.shuffle.refetches") +
                        counters->Get("mr.shuffle.map_reruns"));
  }

  // The run's single exit. A job stopped at the map barrier still gets its
  // map timeline; then the trace is recorded and the wall clock stamped.
  JobReport Finish() {
    if (!map_scheduled) ScheduleMap();
    RecordTrace();
    result.timing.wall.total_seconds = wall_watch.ElapsedSeconds();
    // reduce_seconds is the time past the map barrier's stamp, and only
    // once the reduce phase has actually started — on earlier exits it
    // stays 0 rather than absorbing elapsed time from a phase that never
    // ran.
    if (reduce_started) {
      result.timing.wall.reduce_seconds =
          std::max(0.0, result.timing.wall.total_seconds -
                            result.timing.wall.map_seconds);
    }
    // A finished job must not be resumable: drop its persisted snapshots.
    if (!result.failed && store != nullptr && store->persistent()) {
      store->CleanupPersisted();
    }
    return std::move(result);
  }

  // The run's one trace emitter. Attempt spans come from the timing model
  // (simulated) or the seam's wall clock (threaded); everything else is
  // placed here, on the backend's trace clock via the seam:
  //   * data-plane instants on every path — checksum errors at the map
  //     barrier, a quarantine at its task's winning map attempt start (the
  //     map barrier for a task without a winner);
  //   * for a job that succeeded, zero-length marks on the winning attempts,
  //     in task order: spill-run writes and write retries at the map
  //     attempt's end, corrupt runs at the map barrier, shuffle delivery,
  //     spill merges and restart restores at the reduce attempt's start —
  //     each reconciled 1:1 with its "mr.*" counter — and the supervisor's
  //     spans (a breaker trips at submission, a quarantine marks its task's
  //     winning attempt end or, without a winner, its phase's barrier, a
  //     deadline cancel spans the cut point to the work it threw away).
  void RecordTrace() const {
    TraceRecorder* const trace = cluster.trace;
    if (trace == nullptr) return;
    seam.StampAttempts();
    const int pid = trace->current_pid();
    const double map_barrier = seam.Barrier(TaskPhase::kMap);
    for (const auto& [r, m] : corrupt_events) {
      TraceInstant instant;
      instant.kind = InstantKind::kShuffleCorruption;
      instant.phase = TaskPhase::kReduce;
      instant.pid = pid;
      instant.time = map_barrier;
      instant.task = r;
      instant.peer_task = m;
      trace->RecordInstant(instant);
    }
    for (const QuarantinedRecord& q : result.quarantined) {
      TraceInstant instant;
      instant.kind = InstantKind::kRecordQuarantined;
      instant.phase = TaskPhase::kMap;
      instant.pid = pid;
      TraceAnchor winner;
      instant.time = seam.Winner(TaskPhase::kMap, q.task, &winner)
                         ? winner.start
                         : map_barrier;
      instant.task = q.task;
      instant.record = q.record;
      trace->RecordInstant(instant);
    }
    if (result.failed) return;

    const auto mark = [pid](SpanKind kind, TaskPhase phase, int task,
                            const TraceAnchor& at, double time) {
      TraceSpan span;
      span.kind = kind;
      span.phase = phase;
      span.pid = pid;
      span.task = task;
      span.attempt = at.attempt;
      span.machine = at.machine;
      span.slot = at.slot;
      span.start = time;
      span.end = time;
      return span;
    };
    for (int t = 0; t < job.num_map_tasks_; ++t) {
      const MapTask& task = maps[static_cast<size_t>(t)];
      TraceAnchor winner;
      if (!seam.Winner(TaskPhase::kMap, t, &winner)) continue;
      for (const SpillRun& run : task.ctx.output.spill_runs()) {
        TraceSpan span =
            mark(SpanKind::kSpillWrite, TaskPhase::kMap, t, winner, winner.end);
        span.records_in = run.records;
        span.bytes = run.bytes;
        trace->RecordSpan(span);
      }
      for (int64_t i = 0; i < task.disk.retries; ++i) {
        trace->RecordSpan(mark(SpanKind::kSpillRetry, TaskPhase::kMap, t,
                               winner, winner.end));
      }
    }
    for (const CorruptRunEvent& event : corrupt_run_events) {
      TraceAnchor winner;
      seam.Winner(TaskPhase::kMap, event.task, &winner);
      TraceSpan span = mark(SpanKind::kRunCorrupt, TaskPhase::kMap, event.task,
                            winner, map_barrier);
      span.records_in = event.records;
      span.bytes = event.bytes;
      trace->RecordSpan(span);
    }
    for (const SupervisorEvent& event : supervisor_events) {
      double at = seam.Submission();
      TraceAnchor winner;
      if (event.kind != SpanKind::kBreakerTrip) {
        at = seam.Winner(event.phase, event.task, &winner)
                 ? winner.end
                 : seam.Barrier(event.phase);
      }
      TraceSpan span =
          mark(event.kind, event.phase, event.task, TraceAnchor{}, at);
      if (event.kind == SpanKind::kDeadlineCancel) {
        span.start = seam.CutStart(event.deadline, at);
        span.end = std::max(span.start, at);
      }
      span.domain = event.domain;
      span.cost_units = event.cost;
      trace->RecordSpan(span);
    }
    for (int t = 0; t < job.num_reduce_tasks_; ++t) {
      const ReduceTask& task = reduces[static_cast<size_t>(t)];
      TraceAnchor winner;
      if (!seam.Winner(TaskPhase::kReduce, t, &winner)) continue;
      TraceSpan shuffle = mark(SpanKind::kShuffle, TaskPhase::kReduce, t,
                               winner, winner.start);
      shuffle.records_in = task.ctx.stats.records_in;
      trace->RecordSpan(shuffle);
      if (task.gather.runs_merged > 0) {
        TraceSpan merge = mark(SpanKind::kSpillMerge, TaskPhase::kReduce, t,
                               winner, winner.start);
        merge.records_in = task.gather.spilled_records;
        merge.bytes = task.gather.spilled_bytes;
        trace->RecordSpan(merge);
      }
      if (task.restart_restored) {
        TraceSpan restore = mark(SpanKind::kRestartRestore, TaskPhase::kReduce,
                                 t, winner, winner.start);
        restore.cost_units = task.restart_cost;
        trace->RecordSpan(restore);
      }
    }
  }

  // Quarantines map task `t` under allow_degraded: its output is dropped
  // (the chunk's records vanish from every downstream partition) and the
  // loss is recorded against the chunk size.
  void QuarantineMap(int t) {
    ResetMapContext(&map_task(t).ctx);
    const auto [lo, hi] = Chunk(input_size, t);
    Degrade(TaskPhase::kMap, t, TaskOutcomeKind::kQuarantined,
            static_cast<int64_t>(hi - lo), 0);
  }

  // Quarantines reduce task `t` under allow_degraded: the delivered output
  // becomes the latest checkpointed prefix (nothing without one), driver
  // state is rewound to match, and the completeness report records the
  // loss against the task's full gathered input.
  void QuarantineReduce(int t) {
    const TaskCheckpoint* checkpoint = LatestCheckpoint(t);
    Rewind(&reduce_task(t).ctx, checkpoint);
    const int64_t covered = checkpoint != nullptr ? checkpoint->records_in : 0;
    Degrade(TaskPhase::kReduce, t, TaskOutcomeKind::kQuarantined,
            std::max(GatheredTotal(t), covered), covered,
            checkpoint != nullptr ? checkpoint->cost : 0.0);
  }

  // Records task `t`'s degraded outcome for the completeness report, with
  // its supervisor event: a quarantine, or a deadline cut/cancel at
  // `deadline`. `cost` is the restored boundary.
  void Degrade(TaskPhase phase, int t, TaskOutcomeKind kind,
               int64_t total, int64_t covered, double cost = 0.0,
               double deadline = 0.0) {
    TaskReport& report = phase == TaskPhase::kMap ? map_task(t).report
                                                  : reduce_task(t).report;
    report.phase = phase;
    report.task = t;
    report.kind = kind;
    report.records_total = total;
    report.records_covered = covered;
    report.covered_fraction =
        total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                  : 0.0;
    supervisor_events.push_back(
        {kind == TaskOutcomeKind::kQuarantined ? SpanKind::kTaskQuarantine
                                               : SpanKind::kDeadlineCancel,
         phase, t, -1, cost, deadline});
  }

  // Full input of reduce task `t` — the denominator a degraded task's
  // coverage is reported against: its partition's record counts, read
  // without merging, so a task whose merge failed still reports its whole
  // input.
  int64_t GatheredTotal(int t) const {
    return Shuffle::PartitionRecords(map_outputs, t);
  }

  bool Fail(std::string error) {
    result.failed = true;
    result.error = std::move(error);
    return false;
  }

  void ResetMapContext(MapTaskData* ctx) {
    ctx->clock.Reset();
    ctx->counters = Counters();
    ctx->stats = TaskStats();
    ctx->output.Reset(job.shuffle_, ctx->task_id);
  }

  const TaskCheckpoint* LatestCheckpoint(int task) const {
    return store != nullptr ? store->Latest(task) : nullptr;
  }

  // Rewinds a reduce context, external task state included, to
  // `checkpoint` — or to a fresh start when it is null. A snapshot's
  // outputs are a prefix of the live ones (determinism makes it
  // byte-equal), except that a restarted process takes over the persisted
  // copy the live context never held.
  void Rewind(ReduceTaskData* ctx, const TaskCheckpoint* checkpoint) {
    ctx->clock.Reset();
    ctx->counters = Counters();
    ctx->stats = TaskStats();
    if (checkpoint == nullptr) {
      ctx->outputs.clear();
    } else {
      ctx->clock.Charge(checkpoint->cost);
      ctx->counters = checkpoint->counters;
      ctx->stats.cost = checkpoint->cost;
      ctx->stats.records_in = checkpoint->records_in;
      ctx->stats.pairs_out = checkpoint->pairs_out;
      if (ctx->outputs.size() < checkpoint->output_bytes) {
        ctx->outputs = checkpoint->encoded_outputs;
      }
      ctx->outputs.resize(
          std::min(ctx->outputs.size(), checkpoint->output_bytes));
    }
    if (job.restore_state_) {
      job.restore_state_(ctx->task_id, checkpoint != nullptr
                                           ? checkpoint->driver_state.get()
                                           : nullptr);
    }
  }

  // Runs one reduce-task attempt through the typed half. The merge never
  // consumes the map-side blocks or spill files, so a failing or hanging
  // attempt leaves everything intact for the retry; a cut attempt stops at
  // the group boundary past its cutoff fraction of the input pairs.
  // `task->gather` receives the attempt's merge accounting (the winner's
  // values are the ones the job reports).
  void RunReduceAttempt(ReduceTask* task,
                        const TaskAttemptRunner::Attempt& attempt) {
    const bool cut = attempt.fails || attempt.hangs;
    Shuffle::Merge merge(job.shuffle_, map_outputs, attempt.task);
    const size_t limit =
        cut ? static_cast<size_t>(
                  static_cast<double>(merge.records()) *
                  (attempt.fails ? attempt.fail_point : attempt.hang_point))
            : merge.records() + 1;
    tasks.Reduce(ReduceAttempt{task->ctx, merge, map_outputs, limit, cut,
                               task->skip, seam});
    task->gather = merge.stats();
    if (!cut) task->ctx.stats.cost = task->ctx.clock.units();
  }
};

JobReport JobRuntime::Run(size_t input_size, Tasks& tasks,
                          const ClusterConfig& cluster, double submit_time,
                          std::vector<std::string>* outputs) {
  const Stopwatch wall_watch;
  const std::string error = SetUp(cluster);
  if (!error.empty()) return Rejected(error, submit_time, wall_watch);
  RunState s(*this, input_size, tasks, cluster, submit_time, wall_watch,
             outputs);
  s.RunMapPhase();
  if (s.CloseMapBarrier()) {
    if (!s.wall_expired) s.RunReducePhase();
    if (s.BuildTimeline() && s.EnforceDeadline()) s.Collect();
  }
  return s.Finish();
}

// Validates the cluster and resolves the shuffle budget once per run: the
// job-wide budget split across map tasks (floored at one block each) and
// the spill directories prepared and probed up front, so an unusable
// directory fails the submission instead of a mid-map spill. Returns the
// labelled error that rejects the submission, or "" when it is admitted.
std::string JobRuntime::SetUp(const ClusterConfig& cluster) {
  const std::string config_error = ValidateClusterConfig(cluster);
  if (!config_error.empty()) return "invalid cluster config: " + config_error;
  const ShuffleBudget& budget = cluster.shuffle_budget;
  Shuffle::SpillConfig spill;
  spill.block_bytes = budget.block_bytes;
  if (budget.max_bytes > 0) {
    std::string error;
    spill.dir = ResolveSpillDir(budget.spill_dir, &error);
    // The optional fallback dir is probed with the same rigour — a
    // failover target discovered broken mid-spill would turn graceful
    // degradation into a second outage.
    if (!spill.dir.empty() && !budget.fallback_spill_dir.empty()) {
      spill.fallback_dir = ResolveSpillDir(budget.fallback_spill_dir, &error);
    }
    if (!error.empty()) return "shuffle budget unusable: " + error;
    spill.enabled = true;
    spill.task_buffer_bytes =
        std::max(budget.block_bytes,
                 budget.max_bytes / static_cast<int64_t>(num_map_tasks_));
  }
  shuffle_.set_spill(std::move(spill));
  // Deadline cuts restore *historical* alpha boundaries, not just the
  // latest one — arm snapshot history before the store resets (and
  // preloads any persisted snapshots into it).
  if (cluster.control.active() && checkpointing()) {
    checkpoint_store_->set_keep_history(true);
  }
  if (checkpointing()) checkpoint_store_->Reset(num_reduce_tasks_);
  return "";
}

bool JobRuntime::checkpointing() const {
  return checkpoint_store_ != nullptr && checkpoint_alpha_ > 0.0;
}

// The store ignores non-advancing saves, so a resumed attempt re-crossing
// an old boundary is a no-op. The seam marks each save live on the wall
// clock under the threaded backend.
void JobRuntime::MaybeCheckpoint(const ReduceAttempt& attempt,
                                 int64_t groups_done) const {
  if (!checkpointing()) return;
  const ReduceTaskData* ctx = &attempt.task;
  const int task = ctx->task_id;
  const double units = ctx->clock.units();
  const TaskCheckpoint* latest = checkpoint_store_->Latest(task);
  const double last = latest != nullptr ? latest->cost : 0.0;
  if (units <= last) return;
  if (std::floor(units / checkpoint_alpha_) <=
      std::floor(last / checkpoint_alpha_)) {
    return;
  }
  TaskCheckpoint checkpoint;
  checkpoint.cost = units;
  checkpoint.groups = groups_done;
  checkpoint.records_in = ctx->stats.records_in;
  checkpoint.pairs_out = ctx->stats.pairs_out;
  checkpoint.output_bytes = ctx->outputs.size();
  checkpoint.counters = ctx->counters;
  // A restarted process cannot reuse this context's live outputs, so a
  // persisted snapshot carries a copy of them.
  if (checkpoint_store_->persistent()) {
    checkpoint.encoded_outputs = ctx->outputs;
  }
  if (save_state_) checkpoint.driver_state = save_state_(task);
  checkpoint_store_->Save(task, std::move(checkpoint));
  attempt.seam.MarkCheckpoint(SpanKind::kCheckpointSave, task, units);
}

}  // namespace progres
