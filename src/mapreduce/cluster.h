#ifndef PROGRES_MAPREDUCE_CLUSTER_H_
#define PROGRES_MAPREDUCE_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/executor.h"
#include "mapreduce/fault.h"

namespace progres {

class TraceRecorder;

// Memory policy of the shuffle data plane (see shuffle.h). `max_bytes` is
// the job-wide budget for buffered map output: each map task may hold its
// share (max_bytes / num_map_tasks, floored at one block) of encoded KV
// blocks in memory before spilling a sorted run to `spill_dir`. 0 (the
// default) disables spilling — buffers grow without bound, the historical
// in-memory behaviour. `block_bytes` sizes the KV blocks (and the spill
// readers' chunks); `spill_dir` empty means the system temp directory.
// Outputs are byte-identical with spilling off or on — only memory
// footprint, the "mr.spill.*" counters and spill trace spans change.
struct ShuffleBudget {
  int64_t max_bytes = 0;
  int64_t block_bytes = 256 * 1024;
  std::string spill_dir;
  // Optional secondary spill directory. A map task whose primary dir
  // becomes unusable mid-attempt (ENOSPC, exhausted write retries) fails
  // over here instead of failing the job; empty means no fallback and the
  // historical sticky-spill-error behaviour.
  std::string fallback_spill_dir;
};

// Configuration of the simulated Hadoop-style cluster. Mirrors the paper's
// setup (Sec. VI-A1): mu machines, at most two concurrent map and two
// concurrent reduce tasks per machine.
struct ClusterConfig {
  int machines = 10;
  int map_slots_per_machine = 2;
  int reduce_slots_per_machine = 2;

  // Conversion from abstract cost units to simulated seconds. The default
  // makes one million pair comparisons cost ~10 simulated seconds, in the
  // ballpark of the paper's edit-distance match function.
  double seconds_per_cost_unit = 1e-5;

  // Which engine executes task attempts (see mapreduce/executor.h). The
  // simulated backend runs them serially — the deterministic reference; the
  // threaded backend runs them concurrently on `execution_threads` pool
  // workers and measures wall-clock time alongside. Outputs and counters
  // are byte-identical either way.
  ExecutionBackend backend = ExecutionBackend::kSimulated;

  // Worker threads of the threaded backend. Ignored by the simulated
  // backend (which is serial); the threaded backend requires >= 1, at most
  // the cluster's slot capacity — more workers than simulated slots would
  // give the wall clock concurrency the modeled cluster does not have.
  // 0 (the default) is only valid with the simulated backend; callers
  // selecting the threaded backend typically pass
  // std::thread::hardware_concurrency().
  int execution_threads = 0;

  // Optional per-machine speed factors (1.0 = nominal). Homogeneous when
  // empty. A machine with speed 0.5 takes twice as long per cost unit —
  // models heterogeneous clusters and stragglers.
  std::vector<double> machine_speed;

  // Deterministic fault injection (task-attempt failures + retry) and
  // speculative execution of stragglers. Both default to off, in which case
  // the runtime is byte- and timing-identical to the pre-fault behaviour.
  FaultConfig fault;
  SpeculationConfig speculation;

  // Job supervision: deadline-driven graceful degradation, the job-wide
  // retry-budget ledger and task quarantine (see mapreduce/supervisor.h).
  // Inactive by default — with `control.active()` false every run is byte-
  // and timing-identical to the unsupervised runtime.
  JobControl control;

  // Optional execution tracing (see mapreduce/trace.h). Strictly
  // observational: attaching a recorder never changes outputs, counters or
  // timings. Not owned; must outlive every job run with this config.
  TraceRecorder* trace = nullptr;

  // Out-of-core shuffle memory budget (spilling off by default).
  ShuffleBudget shuffle_budget;

  int map_slots() const { return machines * map_slots_per_machine; }
  int reduce_slots() const { return machines * reduce_slots_per_machine; }

  // Speed factor of machine `m` (1.0 for machines past the end of
  // `machine_speed`). Listed entries are returned verbatim — non-positive
  // speeds are a configuration error that ValidateClusterConfig rejects at
  // job submission, never silently coerced.
  double SpeedOfMachine(int m) const {
    if (m >= 0 && m < static_cast<int>(machine_speed.size())) {
      return machine_speed[static_cast<size_t>(m)];
    }
    return 1.0;
  }

  // Per-slot speed factors for a phase with `slots_per_machine` slots.
  std::vector<double> SlotSpeeds(int slots_per_machine) const;
};

// Validates a cluster configuration at job submission: machine and slot
// counts >= 1, failure/hang/corruption probabilities in [0, 1],
// max_attempts >= 1, speed factors and time conversions > 0,
// machine-failure events inside the cluster, backoff/blacklist knobs
// non-negative, task_timeout_seconds non-negative, injected hang fractions
// in (0, 1], fetch-retry and skip knobs within range, shuffle-budget bytes
// non-negative with a positive block size, supervisor deadlines and the
// fault budget non-negative. Job supervision (`control.active()`) rejects
// speculative execution: a deadline cut needs one unambiguous winning
// attempt per task to anchor the cut point, and a backup racing its
// original has two. The threaded backend additionally requires
// execution_threads in [1, slot capacity] and rejects speculation and
// machine failures (both live in the simulated timing model). Returns an
// empty string when valid, otherwise a labelled
// description of the first violation.
// MapReduceJob::Run fails cleanly (Result::failed) on a non-empty result
// instead of running with a silently "normalized" config.
std::string ValidateClusterConfig(const ClusterConfig& cluster);

// One scheduled task attempt on the simulated cluster. Failed attempts hold
// the slot until their injected failure fires; the retry is re-queued at
// that moment (Hadoop reschedules failed attempts FIFO). Speculative
// attempts are backup copies launched on idle slots; exactly one attempt
// per task has `won` set — its output is the task's output, and its
// start/end are what the job timing reports.
struct TaskAttemptTiming {
  int task = 0;
  int attempt = 0;   // 0-based; speculative backups reuse the winning index
  int slot = 0;
  double start = 0.0;
  double end = 0.0;
  bool failed = false;       // ended by an injected failure or machine loss
  bool speculative = false;  // backup copy from speculative execution
  bool won = false;          // produced the task's result
  // Killed because its machine died mid-run. The task re-runs the same
  // attempt index on a surviving machine (a machine loss does not count
  // against max_attempts), so one (task, attempt) pair may appear more than
  // once — every occurrence but the last is machine_lost.
  bool machine_lost = false;
  // Hung (heartbeat went silent) and was killed by the task timeout. Always
  // also `failed`; the occurrence held its slot for the work it finished
  // before hanging plus the timeout.
  bool timed_out = false;
};

// Per-task execution statistics (winning attempt only).
struct TaskStats {
  double cost = 0.0;        // cost units charged by the task
  int64_t records_in = 0;   // map: input records; reduce: input values
  int64_t pairs_out = 0;    // map: emitted KVs; reduce: emitted KVs
};

// Measured wall-clock timing of one job run. Unlike the simulated fields
// of JobTiming these are real, nondeterministic measurements — they vary
// run to run and across machines, and nothing downstream of the results
// clock (events, recall curves, counters, goldens) reads them. Benches
// report the two clocks side by side, never conflated.
struct JobWallTiming {
  int threads = 1;             // pool workers (1 = serial simulated backend)
  double map_seconds = 0.0;    // submission to the map/shuffle barrier
  double reduce_seconds = 0.0; // barrier to job completion
  double total_seconds = 0.0;  // submission to job completion
};

// Timing of one job on the simulated cluster, plus the measured wall clock.
struct JobTiming {
  double start = 0.0;               // when the job was submitted (seconds)
  double map_end = 0.0;             // end of the map phase (barrier)
  std::vector<double> reduce_start; // per reduce task (winning attempt)
  double end = 0.0;                 // job completion (makespan)
  // Every scheduled attempt, including failed and speculative ones.
  std::vector<TaskAttemptTiming> map_attempts;
  std::vector<TaskAttemptTiming> reduce_attempts;
  // Measured wall clock of the same run (filled by both backends).
  JobWallTiming wall;
};

// Inputs of the attempt scheduler beyond the attempt-cost chains.
struct AttemptScheduleOptions {
  std::vector<double> slot_speeds;
  // Slots [m*slots_per_machine, (m+1)*slots_per_machine) belong to machine
  // m — the fault domain of machine failures and blacklisting. 0 puts every
  // slot on machine 0.
  int slots_per_machine = 0;
  double start_time = 0.0;
  double seconds_per_cost_unit = 1.0;
  // Speculative backups are simulated only when `machine_failures` is empty
  // (losing a backup's machine mid-race is out of scope for the model).
  SpeculationConfig speculation;

  // Machine deaths at absolute simulated times. A machine dead at time T
  // runs nothing that starts at or after T; attempts running at T are
  // killed and re-queued on the survivors. A machine already dead before
  // `start_time` contributes no slots at all. If no machine can host a
  // pending task, the phase fails (`failed` below).
  std::vector<MachineFault> machine_failures;

  // Retry hygiene (see FaultConfig): the k-th failure of a task delays its
  // re-dispatch by retry_backoff_seconds * retry_backoff_factor^(k-1);
  // a machine hosting `blacklist_failures` failed attempts stops receiving
  // new ones (0 = off; the last healthy machine is never blacklisted).
  double retry_backoff_seconds = 0.0;
  double retry_backoff_factor = 2.0;
  int blacklist_failures = 0;

  // Recovery model for machine-killed attempts, in task-progress cost
  // units. `attempt_bases[t][a]` is the absolute progress at which planned
  // attempt `a` of task `t` starts (empty: all attempts restart from 0 —
  // the from-scratch model); `recovery_points[t]` holds the task's
  // checkpointed progress marks, ascending (empty: none). A kill at
  // progress p re-runs the same planned attempt from the highest recovery
  // point <= p (at least the attempt's own base); the progress between that
  // point and p is re-executed and accumulated into `replayed_cost_units`.
  std::vector<std::vector<double>> attempt_bases;
  std::vector<std::vector<double>> recovery_points;

  // Hang model: `hang_attempts[t][a]` is non-zero when planned attempt `a`
  // of task `t` hangs (its run cost covers only the progress before the
  // heartbeat stopped). A hung occurrence holds its slot for its run time
  // plus `task_timeout_seconds` before the tracker kills it; the kill goes
  // through the normal failure path (backoff, blacklist). A hung occurrence
  // killed earlier by its machine's death counts as machine-lost, not
  // timed-out; its re-run hangs again.
  std::vector<std::vector<char>> hang_attempts;
  double task_timeout_seconds = 600.0;

  // Shuffle-corruption recovery: extra seconds the *first dispatched
  // occurrence* of task `t` spends re-fetching corrupt partitions and
  // waiting for producing map tasks to re-run, before its processing
  // starts. Later occurrences re-use the repaired fetches. Empty = none.
  std::vector<double> fetch_stall_seconds;

  // Degraded-mode placement: when a task cannot be placed because every
  // machine is dead or blacklisted, record it in `unplaced_tasks` and keep
  // scheduling the remaining tasks instead of failing the phase. Off by
  // default — the historical fail-fast behaviour.
  bool tolerate_unplaced = false;

  // Optional trace sink: attempt spans (with nested checkpoint/backoff
  // children) and machine-death/blacklist instants are recorded under
  // `trace_pid` with `trace_phase` lanes. Purely observational.
  TraceRecorder* trace = nullptr;
  TaskPhase trace_phase = TaskPhase::kMap;
  int trace_pid = 0;
};

// Result of the machine-aware scheduler: the attempt timeline plus the
// fault-domain bookkeeping the runtime exports under "mr." counters.
struct AttemptScheduleOutcome {
  std::vector<TaskAttemptTiming> attempts;
  double end_time = 0.0;
  std::vector<double> winning_starts;
  // Some task could not be placed because every machine was dead or
  // blacklisted — the job must fail cleanly. Never set with
  // `tolerate_unplaced`, which routes such tasks to `unplaced_tasks`.
  bool failed = false;
  int failed_task = -1;
  // Tasks skipped under `tolerate_unplaced`, in dispatch order (each at
  // most once — an unplaced task is never re-queued). They have no winning
  // attempt; `winning_starts` keeps `start_time` for them.
  std::vector<int> unplaced_tasks;
  // Attempts killed by a machine death ("mr.faults.machine_lost").
  int64_t machine_lost_attempts = 0;
  // Hung attempts killed by the heartbeat timeout
  // ("mr.faults.task_timeouts").
  int64_t timeout_kills = 0;
  // Machines whose death fell before this phase's end.
  int machines_lost = 0;
  // Machines blacklisted during this phase ("mr.blacklist.machines").
  int machines_blacklisted = 0;
  // Total simulated re-dispatch delay ("mr.retry.backoff_seconds").
  double backoff_seconds = 0.0;
  // Progress re-executed because of machine kills, in cost units.
  double replayed_cost_units = 0.0;
};

// Attempt-aware scheduler used by MapReduceJob. `attempt_costs[i]` holds the
// cost of every executed attempt of task i in attempt order; all but the
// last failed (an empty vector means the task does not exist and is
// skipped). Attempts are dispatched FIFO — first attempts in task order,
// each retry re-queued the moment its predecessor fails — onto the slot
// that can start them earliest (ties to the lowest slot index); a task's
// duration on a slot is cost * seconds_per_cost_unit / slot speed.
//
// When `speculation.enabled`, slots that fall idle afterwards launch backup
// copies of still-running winning attempts: the candidate with the largest
// remaining time is backed up iff its remaining time exceeds
// `speculation.min_remaining_seconds` and the backup would finish strictly
// earlier; the earlier finisher wins (at most one backup per task, as in
// Hadoop). The makespan counts winning attempts only — a losing straggler
// attempt is killed when its backup completes.
//
// On top of that it models machine-level fault domains, exponential retry
// backoff, machine blacklisting and checkpoint-aware recovery of
// machine-killed attempts. Returns every attempt (regular ones in dispatch
// order, then speculative ones in launch order), the makespan and the start
// time of each task's winning attempt.
AttemptScheduleOutcome ScheduleTaskAttemptsOnCluster(
    const std::vector<std::vector<double>>& attempt_costs,
    const AttemptScheduleOptions& options);

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_CLUSTER_H_
