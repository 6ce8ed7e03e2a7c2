#ifndef PROGRES_MAPREDUCE_JOB_H_
#define PROGRES_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/cluster.h"
#include "mapreduce/cost_clock.h"
#include "mapreduce/counters.h"
#include "mapreduce/executor.h"
#include "mapreduce/fault.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"
#include "mapreduce/task_runner.h"
#include "mapreduce/trace.h"

namespace progres {

// In-process MapReduce runtime, layered out of three components:
//   * Shuffle (shuffle.h) — partition routing, the memory-budgeted map-side
//     KV block buffers with their sorted spill runs
//     (ClusterConfig::shuffle_budget), the reduce-side gather (an in-memory
//     sort, or a k-way external merge over the spill runs), and data-plane
//     accounting (exported under "mr.shuffle.*" and "mr.spill.*");
//   * TaskAttemptRunner (task_runner.h) — the retry bookkeeping of
//     fault-injected task attempts, per phase;
//   * the attempt-aware timing model (cluster.h) — converts per-attempt
//     costs into a deterministic simulated timeline, including retry delays
//     and speculative backup copies of stragglers.
//
// MapReduceJob composes them and honours the Hadoop contract the paper's
// algorithms rely on:
//   * the input is split into contiguous chunks, one per map task;
//   * map tasks emit (key, value) pairs that a partition function routes to
//     reduce tasks;
//   * each reduce task sorts its pairs by key and invokes the reduce function
//     once per distinct key, in key order (so sequence-value keys yield the
//     paper's per-task block resolution order);
//   * a reduce cleanup hook runs after each reduce task's last group (the
//     progressive driver's per-tree emission flushes there);
//   * task attempts that fail are retried up to FaultConfig::max_attempts
//     times. Every attempt starts from a reset context (and, for reduce
//     tasks, reset external per-task state via set_task_state), so a
//     failed attempt's partial buckets/outputs/counters are discarded and
//     job output is byte-identical to a fault-free run. Exhausting
//     max_attempts fails the job cleanly (Result::failed + Result::error);
//   * with checkpointing enabled (set_checkpointing), a reduce re-attempt
//     instead restores the task's last alpha-boundary snapshot and resumes
//     mid-schedule — same byte-identical outputs, but only the progress
//     since the snapshot is re-executed;
//   * machine-level failures (FaultConfig::machine_failures) play out in
//     the timing model: a dying machine kills the attempts on its slots and
//     leaves the cluster, orphaned tasks re-queue (with exponential
//     backoff) on the survivors, and the replacement attempt is costed from
//     the task's best recovery point. Losing every machine fails the job
//     cleanly;
//   * with job supervision (ClusterConfig::control, supervisor.h) the
//     fail-fast rules above soften into deadline-driven graceful
//     degradation: a retry-budget ledger caps per-task attempts, permanent
//     task failures are quarantined instead of failing the job, the
//     simulated deadline cuts late reduce tasks back to their last
//     checkpointed prefix, and Result::completeness reports exactly what
//     was delivered. All of it is opt-in — an inactive JobControl leaves
//     every run byte- and timing-identical to the unsupervised runtime.
//
// The cluster configuration is validated at submission
// (ValidateClusterConfig); an invalid config fails the job with a labelled
// error instead of running with silently corrected parameters.
//
// Two execution backends share this contract (ClusterConfig::backend):
// the simulated backend runs attempts serially on the submitting thread —
// the deterministic reference — while the threaded backend runs them
// concurrently on a thread pool (executor.h) and measures wall-clock time
// alongside (JobTiming::wall, wall-stamped trace spans). All algorithmic
// cost is charged to deterministic per-task CostClocks and all cross-task
// state merges after the phase barriers, so results are bit-identical
// across backends and regardless of real thread interleaving; the simulated
// timeline stays the results clock under both.
//
// Keys and values are typed (template parameters) rather than raw bytes;
// serialization would add nothing to the reproduced algorithms.

template <typename Record, typename K, typename V>
class MapReduceJob {
 public:
  using JobShuffle = Shuffle<K, V>;

  class MapContext {
   public:
    int task_id() const { return task_id_; }
    CostClock& clock() { return clock_; }
    Counters& counters() { return counters_; }

    // Emits a pair routed to partition `partition(key, num_reduce_tasks)`.
    void Emit(K key, V value) {
      output_.Add(std::move(key), std::move(value));
      ++stats_.pairs_out;
    }

   private:
    friend class MapReduceJob;
    int task_id_ = 0;
    CostClock clock_;
    Counters counters_;
    TaskStats stats_;
    typename JobShuffle::MapOutput output_;
  };

  class ReduceContext {
   public:
    int task_id() const { return task_id_; }
    CostClock& clock() { return clock_; }
    Counters& counters() { return counters_; }

    void Emit(K key, V value) {
      outputs_.emplace_back(std::move(key), std::move(value));
      ++stats_.pairs_out;
    }

   private:
    friend class MapReduceJob;
    int task_id_ = 0;
    CostClock clock_;
    Counters counters_;
    TaskStats stats_;
    std::vector<std::pair<K, V>> outputs_;
  };

  using MapFn = std::function<void(const Record&, MapContext*)>;
  using ReduceFn =
      std::function<void(const K&, std::vector<V>*, ReduceContext*)>;
  using PartitionFn = typename JobShuffle::PartitionFn;
  // Cleanup hook run after a reduce task's last group (Hadoop's cleanup()).
  using ReduceCleanupFn = std::function<void(ReduceContext*)>;
  // Hooks over external per-reduce-task state (see set_task_state).
  using SaveStateFn = std::function<std::shared_ptr<const void>(int task_id)>;
  using RestoreStateFn =
      std::function<void(int task_id, const void* snapshot)>;

  struct Result {
    // Reduce outputs concatenated in reduce-task order (within a task, in
    // emission order).
    std::vector<std::pair<K, V>> outputs;
    std::vector<TaskStats> map_stats;
    std::vector<TaskStats> reduce_stats;
    // Named counters merged across every map and reduce task, plus the
    // runtime's own bookkeeping under the reserved "mr." prefix (see
    // counters.h). Everything outside "mr." is byte-identical to a
    // fault-free run.
    Counters counters;
    JobTiming timing;
    // Input records quarantined by the skip-bad-records machinery
    // (FaultConfig::skip_bad_records), in map-task order. Quarantined
    // records were *not* processed — their absence from `outputs` is the
    // only permitted divergence from a fault-free run.
    std::vector<QuarantinedRecord> quarantined;
    // Job-supervision completeness report (supervisor.h). Inert — default
    // values — unless ClusterConfig::control is active. `degraded` set
    // means some task delivered less than its full output while `failed`
    // stayed false (degraded success).
    CompletenessReport completeness;
    // Set when some task exhausted FaultConfig::max_attempts. `outputs`,
    // stats and non-"mr." counters are empty/unspecified in that case.
    bool failed = false;
    std::string error;
  };

  MapReduceJob(int num_map_tasks, int num_reduce_tasks)
      : num_map_tasks_(std::max(1, num_map_tasks)),
        num_reduce_tasks_(std::max(1, num_reduce_tasks)),
        shuffle_(num_reduce_tasks) {}

  // Overrides the default hash partitioner.
  void set_partitioner(PartitionFn fn) {
    shuffle_.set_partitioner(std::move(fn));
  }

  // Cost units auto-charged per map input record (models record read +
  // key-extraction work).
  void set_map_cost_per_record(double cost) { map_cost_per_record_ = cost; }

  // Optional cleanup run at the end of each reduce task, after its last
  // group (may still charge cost and emit). Runs only on attempts that
  // complete — never on failed ones.
  void set_reduce_cleanup(ReduceCleanupFn fn) {
    reduce_cleanup_ = std::move(fn);
  }

  // Marks this job's map function as poison-sensitive: the records listed
  // in FaultConfig::poison_records crash its map attempts, engaging the
  // skip-bad-records machinery. Off by default — jobs whose map function
  // never runs the user code a bad record would crash (e.g. a statistics
  // pre-pass) stay immune, exactly like a Hadoop job without skipping.
  void set_poison_faults(bool sensitive) { poison_faults_ = sensitive; }

  // Hooks for jobs that keep external per-reduce-task state (sinks indexed
  // by task_id) beside their outputs. `restore(t, snapshot)` rewinds task
  // t's state to a snapshot `save` returned, or to freshly constructed when
  // the snapshot is null. Run calls it before every reduce attempt and on
  // every quarantine or deadline rewind, so a failed attempt's partial
  // state never reaches the retry or the results. `save` runs only under
  // set_checkpointing, at each alpha boundary.
  void set_task_state(SaveStateFn save, RestoreStateFn restore) {
    save_state_ = std::move(save);
    restore_state_ = std::move(restore);
  }

  // Enables checkpointed progressive recovery of reduce tasks: after each
  // group, when the task's cost clock crosses a multiple of `alpha` (the
  // progressive emission boundary), its context and driver state are
  // snapshotted into `store`; a re-attempt restores the latest snapshot and
  // resumes instead of replaying from scratch. `store` must outlive Run,
  // which resets it at submission. Outputs stay byte-identical to a
  // fault-free run; only the "mr." bookkeeping and the simulated timeline
  // change.
  void set_checkpointing(double alpha, CheckpointStore* store) {
    checkpoint_alpha_ = alpha;
    checkpoint_store_ = store;
  }

  // Runs the job on `input` using `cluster` for both real thread parallelism
  // and the simulated time model. `submit_time` is when the job starts on
  // the simulated clock. The run is a fixed sequence of stages over one
  // RunState: a stage that fails the job stops the sequence, and every run
  // that got past set-up leaves through Finish.
  Result Run(const std::vector<Record>& input, const MapFn& map_fn,
             const ReduceFn& reduce_fn, const ClusterConfig& cluster,
             double submit_time = 0.0) {
    const Stopwatch wall_watch;
    const std::string error = SetUp(cluster);
    if (!error.empty()) return Rejected(error, submit_time, wall_watch);
    RunState s(*this, input, map_fn, reduce_fn, cluster, submit_time,
               wall_watch);
    RunMapPhase(s);
    if (CloseMapBarrier(s)) {
      if (!s.wall_expired) RunReducePhase(s);
      if (BuildTimeline(s) && EnforceDeadline(s)) Collect(s);
    }
    return Finish(s);
  }

 private:
  // Per-task state of one run. An attempt only ever touches its own task's
  // entry, so the threaded backend's workers share nothing here.
  struct MapTask {
    MapContext ctx;
    // Executions so far (attempt retries and barrier re-runs alike): each
    // draws fresh disk-fault decisions and unique run-file names.
    int generation = 0;
    // Storage-fault tallies of the surviving executions (failed attempts'
    // are discarded with the rest of their artifacts).
    typename JobShuffle::MapOutput::DiskStats disk;
    // Input records skip-bad-records quarantined, in input order.
    std::vector<int64_t> quarantined;
    // Degraded outcome for the completeness report (kComplete: none).
    TaskReport report;
  };

  struct ReduceTask {
    ReduceContext ctx;
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
    typename JobShuffle::GatherStats gather;
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

  // Everything the stages of one Run share.
  struct RunState {
    RunState(const MapReduceJob& job, const std::vector<Record>& records,
             const MapFn& map, const ReduceFn& reduce,
             const ClusterConfig& config, double submit_time,
             const Stopwatch& watch)
        : input(records),
          map_fn(map),
          reduce_fn(reduce),
          cluster(config),
          wall_watch(watch),
          plan(config.fault),
          map_runner(TaskPhase::kMap, job.num_map_tasks_, &plan),
          reduce_runner(TaskPhase::kReduce, job.num_reduce_tasks_, &plan),
          supervisor(config.control, &plan, job.num_map_tasks_,
                     job.num_reduce_tasks_),
          seam(config, result.timing),
          maps(static_cast<size_t>(job.num_map_tasks_)),
          reduces(static_cast<size_t>(job.num_reduce_tasks_)),
          poison_crashes(static_cast<size_t>(plan.num_poison_records()), 0),
          poison_quarantined(static_cast<size_t>(plan.num_poison_records()),
                             0) {
      result.timing.start = submit_time;
      result.timing.wall.threads = seam.threads();
      for (int t = 0; t < job.num_map_tasks_; ++t) {
        map_task(t).ctx.task_id_ = t;
        map_outputs.push_back(&map_task(t).ctx.output_);
      }
      for (int t = 0; t < job.num_reduce_tasks_; ++t) {
        reduce_task(t).ctx.task_id_ = t;
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
      const auto& spill = job.shuffle_.spill_config();
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

    const std::vector<Record>& input;
    const MapFn& map_fn;
    const ReduceFn& reduce_fn;
    const ClusterConfig& cluster;
    const Stopwatch wall_watch;
    Result result;
    const FaultPlan plan;
    TaskAttemptRunner map_runner;
    TaskAttemptRunner reduce_runner;
    const JobSupervisor supervisor;
    ExecutionSeam seam;
    std::vector<MapTask> maps;
    std::vector<ReduceTask> reduces;
    std::vector<typename JobShuffle::MapOutput*> map_outputs;
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
  };

  // ---- Config and budget setup ----
  // Validates the cluster and resolves the shuffle budget once per run: the
  // job-wide budget split across map tasks (floored at one block each) and
  // the spill directories prepared and probed up front, so an unusable
  // directory fails the submission instead of a mid-map spill. Returns the
  // labelled error that rejects the submission, or "" when it is admitted.
  std::string SetUp(const ClusterConfig& cluster) {
    const std::string config_error = ValidateClusterConfig(cluster);
    if (!config_error.empty()) return "invalid cluster config: " + config_error;
    const ShuffleBudget& budget = cluster.shuffle_budget;
    typename JobShuffle::SpillConfig spill;
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

  static Result Rejected(const std::string& error, double submit_time,
                         const Stopwatch& wall_watch) {
    Result result;
    result.failed = true;
    result.error = error;
    result.timing.start = submit_time;
    result.timing.map_end = submit_time;
    result.timing.end = submit_time;
    result.timing.wall.total_seconds = wall_watch.ElapsedSeconds();
    return result;
  }

  // ---- Map phase ----
  void RunMapPhase(RunState& s) {
    s.map_runner.RunAll(
        s.seam, [&s, this](int t) { ResetMap(s, t); },
        [&s, this](const TaskAttemptRunner::Attempt& attempt) {
          return RunMapAttempt(s, attempt);
        },
        nullptr);
    s.seam.EndPhase(TaskPhase::kMap);
    s.result.timing.wall.map_seconds = s.wall_watch.ElapsedSeconds();
  }

  // Prepares map task `t` for a fresh execution, a scheduled attempt or a
  // barrier re-run alike. Each execution bumps the task's generation.
  void ResetMap(RunState& s, int t) {
    MapTask& task = s.map_task(t);
    ResetMapContext(&task.ctx);
    task.ctx.output_.ConfigureSpill(&s.plan, task.generation++);
    // Disk breaker: once the first task discovered the primary spill dir
    // full, later tasks start directly on the fallback — one global
    // failover instead of a per-task ENOSPC retry storm.
    if (s.disk_breaker && s.supervisor.StartOnFallback(t)) {
      task.ctx.output_.StartOnFallback();
    }
  }

  // Task `t`'s contiguous input chunk [first, second) of `n` records.
  std::pair<size_t, size_t> Chunk(size_t n, int t) const {
    const size_t tasks = static_cast<size_t>(num_map_tasks_);
    return {n * static_cast<size_t>(t) / tasks,
            n * static_cast<size_t>(t + 1) / tasks};
  }

  TaskAttemptRunner::BodyOutcome RunMapAttempt(
      RunState& s, const TaskAttemptRunner::Attempt& attempt) {
    MapContext& ctx = s.map_task(attempt.task).ctx;
    const std::vector<Record>& input = s.input;
    const MapFn& map_fn = s.map_fn;
    const FaultPlan& plan = s.plan;
    const FaultConfig& fault = s.cluster.fault;
    const bool poison_active = s.poison_active;
    const auto [lo, hi] = Chunk(input.size(), attempt.task);
    size_t limit = hi - lo;
    // Crashes and hangs both cut the attempt short; a hung attempt simply
    // stops heartbeating at its cutoff instead of dying.
    const bool cut = attempt.fails || attempt.hangs;
    if (cut) {
      const double point =
          attempt.fails ? attempt.fail_point : attempt.hang_point;
      limit = static_cast<size_t>(static_cast<double>(limit) * point);
    }
    TaskAttemptRunner::BodyOutcome out;
    for (size_t i = lo; i < lo + limit; ++i) {
      if (poison_active && plan.IsPoisonRecord(static_cast<int64_t>(i))) {
        const size_t p =
            static_cast<size_t>(plan.PoisonIndex(static_cast<int64_t>(i)));
        if (s.poison_quarantined[p]) continue;  // skipped, not run
        // The record crashes this attempt. Once it has crashed
        // max_attempts_before_skip attempts, skip-bad-records quarantines
        // it so the next attempt can pass over it.
        ++s.poison_crashes[p];
        if (fault.skip_bad_records &&
            s.poison_crashes[p] >= fault.max_attempts_before_skip) {
          s.poison_quarantined[p] = 1;
          s.map_task(attempt.task).quarantined.push_back(
              static_cast<int64_t>(i));
        }
        out.poison_crashed = true;
        break;
      }
      ctx.clock_.Charge(map_cost_per_record_);
      map_fn(input[i], &ctx);
      ++ctx.stats_.records_in;
    }
    if (!cut && !out.poison_crashed) ctx.stats_.cost = ctx.clock_.units();
    out.cost = ctx.clock_.units();
    return out;
  }

  // ---- Map barrier ----
  // Doomed map tasks, spill errors, CRC re-runs, the shuffle accounting and
  // the wall deadline. Returns false when the job fails here.
  bool CloseMapBarrier(RunState& s) {
    Result& result = s.result;
    const JobControl& control = s.cluster.control;
    s.map_runner.MergeFaultCounters(&result.counters);
    // Quarantine bookkeeping survives even a doomed job: the skipped
    // records and their counter are facts about the map phase.
    for (int t = 0; t < num_map_tasks_; ++t) {
      for (const int64_t record : s.map_task(t).quarantined) {
        result.quarantined.push_back({t, record});
      }
    }
    CountIfPositive(&result.counters, "mr.skipped.records",
                    static_cast<int64_t>(result.quarantined.size()));
    const int doomed = s.map_runner.FirstDoomed();
    if (doomed >= 0 && !control.allow_degraded) {
      return Fail(s, s.map_runner.DoomedError(doomed));
    }
    // Degraded mode: quarantine every doomed map task and keep going.
    for (const int t : s.map_runner.DoomedTasks()) QuarantineMap(s, t);
    // A winning map attempt that could not honour the spill contract fails
    // the job with the labelled I/O error — silently exceeding the memory
    // budget is not an option (the buffered data stayed complete in memory,
    // but the configuration needs fixing, not retrying). Degraded mode
    // quarantines the task instead.
    for (int t = 0; t < num_map_tasks_; ++t) {
      const std::string& spill_error = s.map_task(t).ctx.output_.spill_error();
      if (spill_error.empty()) continue;
      if (!control.allow_degraded) {
        return Fail(s, "map task " + std::to_string(t) + ": " + spill_error);
      }
      QuarantineMap(s, t);
    }
    if (shuffle_.spill_config().enabled && s.plan.HasDiskFaults() &&
        !ValidateSpillRuns(s)) {
      return false;
    }

    // Shuffle volume of the winning map attempts, and every sorted spill
    // run that will feed the reduce-side merges (one kSpillWrite span per
    // run).
    typename JobShuffle::Volume volume;
    int64_t spill_runs = 0;
    int64_t spill_records = 0;
    int64_t spill_bytes = 0;
    for (const MapTask& task : s.maps) {
      const auto task_volume = shuffle_.MeasureVolume(task.ctx.output_);
      volume.records += task_volume.records;
      volume.bytes += task_volume.bytes;
      for (const SpillRun& run : task.ctx.output_.spill_runs()) {
        ++spill_runs;
        spill_records += run.records;
        spill_bytes += run.bytes;
      }
    }
    result.counters.Increment("mr.shuffle.records", volume.records);
    result.counters.Increment("mr.shuffle.bytes", volume.bytes);
    if (spill_runs > 0) {
      result.counters.Increment("mr.spill.runs", spill_runs);
      result.counters.Increment("mr.spill.records", spill_records);
      result.counters.Increment("mr.spill.bytes", spill_bytes);
    }

    // ---- Checksummed shuffle: corruption detection & recovery ----
    // Every (map, reduce) partition ships with its CRC32; the consuming
    // reduce task recomputes it on fetch. A corrupt fetch is re-fetched
    // (free — the shuffle is in-memory), and after max_fetch_retries
    // consecutive corrupt copies the producing map attempt is re-run,
    // stalling the reduce task for the map's winning run time.
    if (s.plan.enabled() && s.cluster.fault.shuffle_corrupt_prob > 0.0) {
      int64_t checksum_errors = 0;
      int64_t map_reruns = 0;
      const int max_fetch_retries = s.cluster.fault.max_fetch_retries;
      for (int r = 0; r < num_reduce_tasks_; ++r) {
        for (int m = 0; m < num_map_tasks_; ++m) {
          const int corrupt = s.plan.CorruptFetches(m, r, max_fetch_retries + 1);
          if (corrupt == 0) continue;
          // Detection itself: the shipped checksum against one recomputed
          // from the delivered partition. The corruption model flips the
          // delivered copy's checksum, so a mismatch is certain — but the
          // comparison below is the real gate, not the plan.
          const uint32_t shipped =
              shuffle_.PartitionChecksum(s.map_task(m).ctx.output_, r);
          const uint32_t delivered = shipped ^ 0xffffffffu;
          if (delivered == shipped) continue;  // fetch verified clean
          checksum_errors += corrupt;
          for (int e = 0; e < corrupt; ++e) s.corrupt_events.push_back({r, m});
          if (corrupt > max_fetch_retries) {
            // Re-fetching never yielded a clean copy: re-run the winning
            // map attempt (at nominal speed) to regenerate the partition.
            ++map_reruns;
            s.reduce_task(r).fetch_stall += MapRerunSeconds(s, m);
          }
        }
      }
      if (checksum_errors > 0) {
        result.counters.Increment("mr.shuffle.checksum_errors",
                                  checksum_errors);
        // One re-fetch per detected error.
        result.counters.Increment("mr.shuffle.refetches", checksum_errors);
      }
      CountIfPositive(&result.counters, "mr.shuffle.map_reruns", map_reruns);
    }

    // ---- Wall-clock deadline at the map/reduce barrier ----
    // The supervisor's coarse wall-clock guard: a job already past its wall
    // deadline when the map barrier closes does not start reduce work.
    // Degraded mode cancels every reduce task (BuildTimeline); otherwise the
    // job fails with a labelled error.
    if (control.wall_deadline_seconds > 0.0 &&
        s.wall_watch.ElapsedSeconds() > control.wall_deadline_seconds) {
      if (!control.allow_degraded) {
        return Fail(
            s, "job wall-clock deadline exceeded at the map/reduce barrier");
      }
      s.wall_expired = true;
    }
    return true;
  }

  // Simulated seconds a map task's winning attempt takes to re-run.
  double MapRerunSeconds(const RunState& s, int m) const {
    return s.map_runner.attempt_costs()[static_cast<size_t>(m)].back() *
           s.cluster.seconds_per_cost_unit;
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
  bool ValidateSpillRuns(RunState& s) {
    const bool degraded = s.cluster.control.allow_degraded;
    int64_t reruns = 0;
    for (int t = 0; t < num_map_tasks_ && !s.result.failed; ++t) {
      MapTask& task = s.map_task(t);
      for (int round = 1;; ++round) {
        const size_t known = s.corrupt_run_events.size();
        for (const SpillRun& run : task.ctx.output_.spill_runs()) {
          if (!ValidateSpillRun(run)) {
            s.corrupt_run_events.push_back({t, run.records, run.bytes});
          }
        }
        if (s.corrupt_run_events.size() == known) break;
        std::string error;
        if (round >= s.plan.max_attempts()) {
          error = "map task " + std::to_string(t) +
                  ": spill runs failed CRC validation after " +
                  std::to_string(round) + " generations";
        } else {
          ++reruns;
          const double stall = MapRerunSeconds(s, t);
          for (ReduceTask& reduce : s.reduces) reduce.fetch_stall += stall;
          task.disk += task.ctx.output_.disk_stats();
          ResetMap(s, t);
          TaskAttemptRunner::Attempt rerun;
          rerun.task = t;
          RunMapAttempt(s, rerun);
          if (task.ctx.output_.spill_error().empty()) continue;
          error = "map task " + std::to_string(t) + ": " +
                  task.ctx.output_.spill_error();
        }
        if (degraded) {
          QuarantineMap(s, t);
        } else {
          Fail(s, error);
        }
        break;
      }
    }
    typename JobShuffle::MapOutput::DiskStats sum;
    for (MapTask& task : s.maps) {
      task.disk += task.ctx.output_.disk_stats();
      sum += task.disk;
    }
    Counters* counters = &s.result.counters;
    CountIfPositive(counters, "mr.disk.write_errors", sum.write_errors);
    CountIfPositive(counters, "mr.disk.retries", sum.retries);
    CountIfPositive(counters, "mr.disk.retry_backoff_seconds",
                    static_cast<int64_t>(std::llround(sum.backoff_seconds)));
    CountIfPositive(counters, "mr.disk.enospc", sum.enospc);
    CountIfPositive(counters, "mr.disk.torn_writes", sum.torn_writes);
    CountIfPositive(counters, "mr.disk.dir_failovers", sum.dir_failovers);
    CountIfPositive(counters, "mr.disk.corrupt_runs",
                    static_cast<int64_t>(s.corrupt_run_events.size()));
    CountIfPositive(counters, "mr.disk.map_reruns", reruns);
    return !s.result.failed;
  }

  // ---- Reduce phase ----
  void RunReducePhase(RunState& s) {
    s.reduce_started = true;
    s.reduce_runner.RunAll(
        s.seam, [&s, this](int t) { ResetReduce(s, t); },
        [&s, this](const TaskAttemptRunner::Attempt& attempt) {
          ReduceTask& task = s.reduce_task(attempt.task);
          RunReduceAttempt(s, &task, attempt);
          // Incremental cost: with a restored checkpoint, only the work past
          // the boundary counts as this attempt's duration.
          return TaskAttemptRunner::BodyOutcome{
              task.ctx.clock_.units() - task.base, false};
        },
        [&s, this](int t) {
          // The retry repeats everything past the last checkpoint (from
          // scratch without one) — the measurable price of the failure.
          ReduceTask& task = s.reduce_task(t);
          const TaskCheckpoint* checkpoint = LatestCheckpoint(t);
          const int64_t kept =
              checkpoint != nullptr ? checkpoint->records_in : 0;
          task.replayed +=
              std::max<int64_t>(0, task.ctx.stats_.records_in - kept);
        });
    s.seam.EndPhase(TaskPhase::kReduce);

    Result& result = s.result;
    const bool degraded = s.cluster.control.allow_degraded;
    s.reduce_runner.MergeFaultCounters(&result.counters);
    const int doomed = s.reduce_runner.FirstDoomed();
    if (doomed >= 0 && !degraded) {
      Fail(s, s.reduce_runner.DoomedError(doomed));
      return;
    }
    // Degraded mode: quarantine, restoring each doomed task's checkpointed
    // prefix, and keep the job alive.
    for (const int t : s.reduce_runner.DoomedTasks()) QuarantineReduce(s, t);
    // A gather that could not read its spill runs back (unreadable or
    // corrupt files) fails the job with the labelled error, like any other
    // data-plane fault — or, degraded, quarantines the task. Tasks whose
    // winning gather ran the k-way external merge count one merge pass each
    // (one kSpillMerge span per task).
    int64_t merge_passes = 0;
    for (int t = 0; t < num_reduce_tasks_; ++t) {
      ReduceTask& task = s.reduce_task(t);
      if (!task.gather.error.empty()) {
        if (!degraded) {
          Fail(s, "reduce task " + std::to_string(t) + ": " +
                      task.gather.error);
          return;
        }
        if (task.report.kind == TaskOutcomeKind::kComplete) {
          QuarantineReduce(s, t);
        }
      }
      if (task.gather.runs_merged > 0) ++merge_passes;
    }
    CountIfPositive(&result.counters, "mr.spill.merge_passes", merge_passes);
  }

  // Starts reduce task `t`'s next attempt from its latest checkpoint, or
  // from scratch without one.
  void ResetReduce(RunState& s, int t) {
    ReduceTask& task = s.reduce_task(t);
    const TaskCheckpoint* checkpoint = LatestCheckpoint(t);
    Rewind(&task.ctx, checkpoint);
    task.base = checkpoint != nullptr ? checkpoint->cost : 0.0;
    task.skip = checkpoint != nullptr ? checkpoint->groups : 0;
    task.bases.push_back(task.base);
    if (checkpoint == nullptr) return;
    // A snapshot still marked preloaded came off disk from an earlier
    // process — this restore is a cross-process restart, tallied separately
    // under "mr.restart.restored_tasks".
    if (checkpoint_store_->Preloaded(t)) {
      task.restart_restored = true;
      task.restart_cost = checkpoint->cost;
    }
    checkpoint_store_->NoteRestore(t);
    s.seam.MarkCheckpoint(SpanKind::kCheckpointRestore, t, checkpoint->cost);
  }

  // ---- Simulated timeline (failed attempts, retries, machine faults) ----
  // The results clock under both backends, plus the recovery bookkeeping of
  // the executed attempts. Returns false when a phase ran out of machines.
  bool BuildTimeline(RunState& s) {
    Result& result = s.result;
    int64_t replayed = 0;
    int64_t restored_tasks = 0;
    for (const ReduceTask& task : s.reduces) {
      replayed += task.replayed;
      restored_tasks += task.restart_restored ? 1 : 0;
    }
    CountIfPositive(&result.counters, "mr.recovery.replayed_pairs", replayed);
    if (checkpointing()) {
      CountIfPositive(&result.counters, "mr.checkpoint.saved",
                      checkpoint_store_->saved());
      CountIfPositive(&result.counters, "mr.checkpoint.restored",
                      checkpoint_store_->restored());
      CountIfPositive(&result.counters, "mr.restart.restored_tasks",
                      restored_tasks);
      CountIfPositive(&result.counters, "mr.restart.corrupt_checkpoints",
                      checkpoint_store_->corrupt_checkpoints());
    }

    const int lost_map = ScheduleMap(s);
    if (lost_map >= 0 && !result.failed) {
      return Fail(s, "map task " + std::to_string(lost_map) +
                         " lost: no healthy machines remain");
    }
    const double map_end = result.timing.map_end;
    if (s.wall_expired) {
      // Past the wall deadline no reduce attempt ever started: the job
      // finalizes at the map barrier and every reduce task is cancelled.
      result.timing.reduce_start.assign(static_cast<size_t>(num_reduce_tasks_),
                                        map_end);
      for (int t = 0; t < num_reduce_tasks_; ++t) {
        Degrade(s, TaskPhase::kReduce, t, TaskOutcomeKind::kCancelled,
                GatheredTotal(s, t), 0, 0.0, map_end);
      }
      return true;
    }
    AttemptScheduleOptions options =
        PhaseOptions(s, TaskPhase::kReduce, map_end);
    for (int t = 0; t < num_reduce_tasks_; ++t) {
      ReduceTask& task = s.reduce_task(t);
      options.attempt_bases.push_back(std::move(task.bases));
      options.fetch_stall_seconds.push_back(task.fetch_stall);
      if (checkpointing()) {
        options.recovery_points.push_back(checkpoint_store_->RecoveryPoints(t));
      }
    }
    // Degraded-mode placement: machine loss that leaves reduce tasks
    // unplaceable quarantines them (EnforceDeadline) instead of failing the
    // job.
    options.tolerate_unplaced = s.cluster.control.allow_degraded;
    AttemptScheduleOutcome schedule =
        ScheduleTaskAttemptsOnCluster(s.reduce_runner.attempt_costs(), options);
    MergeRecoveryCounters(schedule, &result.counters);
    result.timing.reduce_attempts = std::move(schedule.attempts);
    result.timing.reduce_start = std::move(schedule.winning_starts);
    result.timing.end = schedule.end_time;
    s.unplaced = std::move(schedule.unplaced_tasks);
    if (schedule.failed && !result.failed) {
      return Fail(s, "reduce task " + std::to_string(schedule.failed_task) +
                         " lost: no healthy machines remain");
    }
    return true;
  }

  // Schedules the map phase's attempts on the simulated cluster; the job
  // ends at the map barrier until the reduce phase is scheduled. Returns
  // the task that ran out of machines, or -1.
  int ScheduleMap(RunState& s) {
    AttemptScheduleOutcome schedule = ScheduleTaskAttemptsOnCluster(
        s.map_runner.attempt_costs(),
        PhaseOptions(s, TaskPhase::kMap, s.result.timing.start));
    MergeRecoveryCounters(schedule, &s.result.counters);
    s.result.timing.map_attempts = std::move(schedule.attempts);
    s.result.timing.map_end = schedule.end_time;
    s.result.timing.end = schedule.end_time;
    s.map_scheduled = true;
    return schedule.failed ? schedule.failed_task : -1;
  }

  // Scheduler inputs of one phase: its slots, the machine fault domain, the
  // retry-hygiene knobs, and the phase's hung attempts with the heartbeat
  // timeout that kills them.
  AttemptScheduleOptions PhaseOptions(const RunState& s, TaskPhase phase,
                                      double start) const {
    const ClusterConfig& cluster = s.cluster;
    const bool map = phase == TaskPhase::kMap;
    AttemptScheduleOptions options;
    options.slots_per_machine = map ? cluster.map_slots_per_machine
                                    : cluster.reduce_slots_per_machine;
    options.slot_speeds = cluster.SlotSpeeds(options.slots_per_machine);
    options.start_time = start;
    options.seconds_per_cost_unit = cluster.seconds_per_cost_unit;
    options.speculation = cluster.speculation;
    options.machine_failures = s.plan.MachineFailures(cluster.machines);
    options.retry_backoff_seconds = cluster.fault.retry_backoff_seconds;
    options.retry_backoff_factor = cluster.fault.retry_backoff_factor;
    options.blacklist_failures = cluster.fault.blacklist_failures;
    options.hang_attempts =
        (map ? s.map_runner : s.reduce_runner).attempt_hangs();
    options.task_timeout_seconds = cluster.fault.task_timeout_seconds;
    options.trace = s.seam.scheduler_trace();
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
  bool EnforceDeadline(RunState& s) {
    Result& result = s.result;
    if (result.failed || !s.supervisor.active()) return true;
    const ClusterConfig& cluster = s.cluster;
    const double deadline = cluster.control.deadline_seconds;
    if (deadline > 0.0 && result.timing.end > deadline &&
        !cluster.control.allow_degraded) {
      return Fail(s, "job deadline exceeded: finished at " +
                         std::to_string(result.timing.end) + "s > deadline " +
                         std::to_string(deadline) + "s");
    }
    for (const int t : s.unplaced) {
      if (s.reduce_task(t).report.kind == TaskOutcomeKind::kComplete) {
        QuarantineReduce(s, t);
      }
    }
    if (deadline <= 0.0) return true;
    const std::vector<double> speeds =
        cluster.SlotSpeeds(cluster.reduce_slots_per_machine);
    for (const TaskAttemptTiming& a : result.timing.reduce_attempts) {
      if (!a.won || a.end <= deadline) continue;
      const int t = a.task;
      ReduceTask& task = s.reduce_task(t);
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
      const int64_t total = task.ctx.stats_.records_in;
      const TaskCheckpoint* checkpoint =
          checkpointing() ? checkpoint_store_->LatestAtOrBelow(t, cut_cost)
                          : nullptr;
      Rewind(&task.ctx, checkpoint);
      if (checkpoint != nullptr) {
        Degrade(s, TaskPhase::kReduce, t, TaskOutcomeKind::kCut, total,
                checkpoint->records_in, checkpoint->cost, deadline);
      } else {
        Degrade(s, TaskPhase::kReduce, t, TaskOutcomeKind::kCancelled, total,
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
  void Collect(RunState& s) {
    Result& result = s.result;
    MergeSpeculationCounters(result.timing, &result.counters);
    if (result.failed) return;
    for (MapTask& task : s.maps) {
      result.map_stats.push_back(task.ctx.stats_);
      result.counters.MergeFrom(task.ctx.counters_);
    }
    for (ReduceTask& task : s.reduces) {
      result.reduce_stats.push_back(task.ctx.stats_);
      result.counters.MergeFrom(task.ctx.counters_);
      for (auto& kv : task.ctx.outputs_) result.outputs.push_back(std::move(kv));
    }
    if (!s.supervisor.active()) return;
    CompletenessReport& completeness = result.completeness;
    for (const MapTask& task : s.maps) {
      if (task.report.kind != TaskOutcomeKind::kComplete) {
        completeness.tasks.push_back(task.report);
      }
    }
    for (const ReduceTask& task : s.reduces) {
      if (task.report.kind != TaskOutcomeKind::kComplete) {
        completeness.tasks.push_back(task.report);
      } else {
        completeness.records_total += task.ctx.stats_.records_in;
        completeness.records_covered += task.ctx.stats_.records_in;
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
    for (const SupervisorEvent& event : s.supervisor_events) {
      if (event.kind == SpanKind::kDeadlineCancel) {
        ++completeness.deadline_cancels;
      } else if (event.kind == SpanKind::kTaskQuarantine) {
        ++completeness.quarantined_tasks;
      } else {
        ++completeness.breaker_trips;
      }
    }
    completeness.retries_denied = s.supervisor.retries_denied();
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
  Result Finish(RunState& s) {
    Result& result = s.result;
    if (!s.map_scheduled) ScheduleMap(s);
    RecordTrace(s);
    result.timing.wall.total_seconds = s.wall_watch.ElapsedSeconds();
    // reduce_seconds is the time past the map barrier's stamp, and only
    // once the reduce phase has actually started — on earlier exits it
    // stays 0 rather than absorbing elapsed time from a phase that never
    // ran.
    if (s.reduce_started) {
      result.timing.wall.reduce_seconds =
          std::max(0.0, result.timing.wall.total_seconds -
                            result.timing.wall.map_seconds);
    }
    // A finished job must not be resumable: drop its persisted snapshots.
    if (!result.failed && checkpointing() && checkpoint_store_->persistent()) {
      checkpoint_store_->CleanupPersisted();
    }
    return std::move(result);
  }

  // The run's one trace emitter. Attempt spans come from the timing model
  // (simulated) or the seam's executor (threaded); everything else is
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
  void RecordTrace(const RunState& s) const {
    TraceRecorder* const trace = s.cluster.trace;
    if (trace == nullptr) return;
    const ExecutionSeam& seam = s.seam;
    seam.StampAttempts();
    const int pid = trace->current_pid();
    const double map_barrier = seam.Barrier(TaskPhase::kMap);
    for (const auto& [r, m] : s.corrupt_events) {
      TraceInstant instant;
      instant.kind = InstantKind::kShuffleCorruption;
      instant.phase = TaskPhase::kReduce;
      instant.pid = pid;
      instant.time = map_barrier;
      instant.task = r;
      instant.peer_task = m;
      trace->RecordInstant(instant);
    }
    for (const QuarantinedRecord& q : s.result.quarantined) {
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
    if (s.result.failed) return;

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
    for (int t = 0; t < num_map_tasks_; ++t) {
      const MapTask& task = s.maps[static_cast<size_t>(t)];
      TraceAnchor winner;
      if (!seam.Winner(TaskPhase::kMap, t, &winner)) continue;
      for (const SpillRun& run : task.ctx.output_.spill_runs()) {
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
    for (const CorruptRunEvent& event : s.corrupt_run_events) {
      TraceAnchor winner;
      seam.Winner(TaskPhase::kMap, event.task, &winner);
      TraceSpan span = mark(SpanKind::kRunCorrupt, TaskPhase::kMap, event.task,
                            winner, map_barrier);
      span.records_in = event.records;
      span.bytes = event.bytes;
      trace->RecordSpan(span);
    }
    for (const SupervisorEvent& event : s.supervisor_events) {
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
    for (int t = 0; t < num_reduce_tasks_; ++t) {
      const ReduceTask& task = s.reduces[static_cast<size_t>(t)];
      TraceAnchor winner;
      if (!seam.Winner(TaskPhase::kReduce, t, &winner)) continue;
      TraceSpan shuffle = mark(SpanKind::kShuffle, TaskPhase::kReduce, t,
                               winner, winner.start);
      shuffle.records_in = task.ctx.stats_.records_in;
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
  void QuarantineMap(RunState& s, int t) {
    ResetMapContext(&s.map_task(t).ctx);
    const auto [lo, hi] = Chunk(s.input.size(), t);
    Degrade(s, TaskPhase::kMap, t, TaskOutcomeKind::kQuarantined,
            static_cast<int64_t>(hi - lo), 0);
  }

  // Quarantines reduce task `t` under allow_degraded: the delivered output
  // becomes the latest checkpointed prefix (nothing without one), driver
  // state is rewound to match, and the completeness report records the
  // loss against the task's full gathered input.
  void QuarantineReduce(RunState& s, int t) {
    const TaskCheckpoint* checkpoint = LatestCheckpoint(t);
    Rewind(&s.reduce_task(t).ctx, checkpoint);
    const int64_t covered = checkpoint != nullptr ? checkpoint->records_in : 0;
    Degrade(s, TaskPhase::kReduce, t, TaskOutcomeKind::kQuarantined,
            std::max(GatheredTotal(s, t), covered), covered,
            checkpoint != nullptr ? checkpoint->cost : 0.0);
  }

  // Records task `t`'s degraded outcome for the completeness report, with
  // its supervisor event: a quarantine, or a deadline cut/cancel at
  // `deadline`. `cost` is the restored boundary.
  void Degrade(RunState& s, TaskPhase phase, int t, TaskOutcomeKind kind,
               int64_t total, int64_t covered, double cost = 0.0,
               double deadline = 0.0) {
    TaskReport& report = phase == TaskPhase::kMap ? s.map_task(t).report
                                                  : s.reduce_task(t).report;
    report.phase = phase;
    report.task = t;
    report.kind = kind;
    report.records_total = total;
    report.records_covered = covered;
    report.covered_fraction =
        total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                  : 0.0;
    s.supervisor_events.push_back(
        {kind == TaskOutcomeKind::kQuarantined ? SpanKind::kTaskQuarantine
                                               : SpanKind::kDeadlineCancel,
         phase, t, -1, cost, deadline});
  }

  // Full gathered input of reduce task `t` — the denominator a degraded
  // task's coverage is reported against. Re-gathers (cheap, in-memory or a
  // re-read of the spill runs); a failing gather yields its partial size,
  // floored at the covered count by the callers.
  int64_t GatheredTotal(RunState& s, int t) {
    typename JobShuffle::GatherStats probe;
    return static_cast<int64_t>(
        shuffle_.GatherSorted(s.map_outputs, t, &probe).size());
  }

  static bool Fail(RunState& s, std::string error) {
    s.result.failed = true;
    s.result.error = std::move(error);
    return false;
  }

  // Zero totals stay absent, so a fault-free job's counter set is
  // unchanged.
  static void CountIfPositive(Counters* counters, const char* name,
                              int64_t value) {
    if (value > 0) counters->Increment(name, value);
  }

  void ResetMapContext(MapContext* ctx) {
    ctx->clock_.Reset();
    ctx->counters_ = Counters();
    ctx->stats_ = TaskStats();
    ctx->output_.Reset(shuffle_, ctx->task_id_);
  }

  void ResetReduceContext(ReduceContext* ctx) {
    ctx->clock_.Reset();
    ctx->counters_ = Counters();
    ctx->stats_ = TaskStats();
    ctx->outputs_.clear();
  }

  bool checkpointing() const {
    return checkpoint_store_ != nullptr && checkpoint_alpha_ > 0.0;
  }

  const TaskCheckpoint* LatestCheckpoint(int task) const {
    return checkpointing() ? checkpoint_store_->Latest(task) : nullptr;
  }

  // Rewinds a reduce context, external task state included, to
  // `checkpoint` — or to a fresh start when it is null.
  void Rewind(ReduceContext* ctx, const TaskCheckpoint* checkpoint) {
    if (checkpoint == nullptr) {
      ResetReduceContext(ctx);
    } else {
      RestoreReduceContext(ctx, *checkpoint);
    }
    if (restore_state_) {
      restore_state_(ctx->task_id_, checkpoint != nullptr
                                        ? checkpoint->driver_state.get()
                                        : nullptr);
    }
  }

  // Rewinds a reduce context to a saved snapshot: clock re-charged to the
  // boundary cost, counters/stats replaced, outputs truncated to the
  // boundary's length (everything before the boundary was already emitted
  // identically — determinism makes the prefix byte-equal).
  void RestoreReduceContext(ReduceContext* ctx,
                            const TaskCheckpoint& checkpoint) {
    ctx->clock_.Reset();
    ctx->clock_.Charge(checkpoint.cost);
    ctx->counters_ = checkpoint.counters;
    ctx->stats_ = TaskStats();
    ctx->stats_.cost = checkpoint.cost;
    ctx->stats_.records_in = checkpoint.records_in;
    ctx->stats_.pairs_out = checkpoint.pairs_out;
    if (ctx->outputs_.size() < checkpoint.outputs &&
        !checkpoint.encoded_outputs.empty()) {
      // A snapshot loaded from disk by a restarted process: the live
      // context never held the outputs, so decode the persisted copy.
      ctx->outputs_.clear();
      const std::string_view view(checkpoint.encoded_outputs);
      size_t offset = 0;
      while (offset < view.size()) {
        K key;
        V value;
        if (!KvCodec<K>::Decode(view, &offset, &key) ||
            !KvCodec<V>::Decode(view, &offset, &value)) {
          break;
        }
        ctx->outputs_.emplace_back(std::move(key), std::move(value));
      }
    }
    if (ctx->outputs_.size() > checkpoint.outputs) {
      ctx->outputs_.erase(
          ctx->outputs_.begin() +
              static_cast<std::ptrdiff_t>(checkpoint.outputs),
          ctx->outputs_.end());
    }
  }

  // Snapshots the task after a group if its clock crossed into a new
  // alpha-window (the progressive emission boundary) since the last saved
  // snapshot. The store ignores non-advancing saves, so a resumed attempt
  // re-crossing an old boundary is a no-op. The seam marks each save live
  // on the wall clock under the threaded backend.
  void MaybeCheckpoint(ReduceContext* ctx, int64_t groups_done,
                       const ExecutionSeam& seam) {
    if (!checkpointing()) return;
    const int task = ctx->task_id_;
    const double units = ctx->clock_.units();
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
    checkpoint.records_in = ctx->stats_.records_in;
    checkpoint.pairs_out = ctx->stats_.pairs_out;
    checkpoint.outputs = ctx->outputs_.size();
    checkpoint.counters = ctx->counters_;
    if (checkpoint_store_->persistent()) {
      // A restarted process can't reuse this context's live outputs, so a
      // persisted snapshot carries an encoded copy of them.
      for (const auto& kv : ctx->outputs_) {
        KvCodec<K>::Encode(kv.first, &checkpoint.encoded_outputs);
        KvCodec<V>::Encode(kv.second, &checkpoint.encoded_outputs);
      }
    }
    if (save_state_) checkpoint.driver_state = save_state_(task);
    checkpoint_store_->Save(task, std::move(checkpoint));
    seam.MarkCheckpoint(SpanKind::kCheckpointSave, task, units);
  }

  // Runs one reduce-task attempt: gather/merge via the shuffle (decoding
  // never consumes the map-side blocks or spill files, so a failing or
  // hanging attempt leaves everything intact for the retry; a cut attempt
  // stops at the group boundary past its cutoff fraction of the input
  // pairs), then one reduce call per group; the winning attempt runs
  // cleanup. A resumed attempt skips the groups its restored checkpoint
  // already covers. `task->gather` receives the attempt's merge accounting
  // (the winner's values are the ones the job reports).
  void RunReduceAttempt(RunState& s, ReduceTask* task,
                        const TaskAttemptRunner::Attempt& attempt) {
    ReduceContext* ctx = &task->ctx;
    const ReduceFn& reduce_fn = s.reduce_fn;
    const ExecutionSeam& seam = s.seam;
    const int64_t skip_groups = task->skip;
    const bool cut = attempt.fails || attempt.hangs;
    std::vector<std::pair<K, V>> pairs =
        shuffle_.GatherSorted(s.map_outputs, attempt.task, &task->gather);
    const size_t limit =
        cut ? static_cast<size_t>(
                  static_cast<double>(pairs.size()) *
                  (attempt.fails ? attempt.fail_point : attempt.hang_point))
            : pairs.size() + 1;

    int64_t group_index = 0;
    JobShuffle::ForEachGroup(
        &pairs, limit, [&](const K& key, std::vector<V>* values) {
          const int64_t group = group_index++;
          if (group < skip_groups) return;
          ctx->stats_.records_in += static_cast<int64_t>(values->size());
          reduce_fn(key, values, ctx);
          MaybeCheckpoint(ctx, group + 1, seam);
        });
    if (!cut) {
      if (reduce_cleanup_) reduce_cleanup_(ctx);
      ctx->stats_.cost = ctx->clock_.units();
    }
  }

  int num_map_tasks_;
  int num_reduce_tasks_;
  JobShuffle shuffle_;
  double map_cost_per_record_ = 1.0;
  ReduceCleanupFn reduce_cleanup_;
  bool poison_faults_ = false;
  SaveStateFn save_state_;
  RestoreStateFn restore_state_;
  double checkpoint_alpha_ = 0.0;
  CheckpointStore* checkpoint_store_ = nullptr;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_JOB_H_
