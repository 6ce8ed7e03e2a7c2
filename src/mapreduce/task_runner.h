#ifndef PROGRES_MAPREDUCE_TASK_RUNNER_H_
#define PROGRES_MAPREDUCE_TASK_RUNNER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "mapreduce/cluster.h"
#include "mapreduce/counters.h"
#include "mapreduce/executor.h"
#include "mapreduce/fault.h"

namespace progres {

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

  // Lowest-indexed task that exhausted max_attempts, or -1.
  int FirstDoomed() const {
    for (int t = 0; t < num_tasks_; ++t) {
      if (doomed_[static_cast<size_t>(t)]) return t;
    }
    return -1;
  }

  // Every task that exhausted its attempt cap, ascending — what quarantine
  // iterates under allow_degraded (a fail-fast job only needs FirstDoomed).
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

// Machine-fault-domain and retry-hygiene totals of one phase's schedule,
// under the reserved "mr." counter prefix: attempts killed by machine loss,
// simulated retry-backoff delay, machines blacklisted for repeated attempt
// failures, and the cost re-executed because of machine kills (~ pair
// comparisons; see cost_clock.h).
inline void MergeRecoveryCounters(const AttemptScheduleOutcome& outcome,
                                  Counters* counters) {
  // Zero totals stay absent so a fault-free job's counter set is unchanged.
  if (outcome.machine_lost_attempts > 0) {
    counters->Increment("mr.faults.machine_lost",
                        outcome.machine_lost_attempts);
  }
  if (outcome.timeout_kills > 0) {
    counters->Increment("mr.faults.task_timeouts", outcome.timeout_kills);
  }
  if (outcome.machines_lost > 0) {
    counters->Increment("mr.faults.machines_dead", outcome.machines_lost);
  }
  if (outcome.machines_blacklisted > 0) {
    counters->Increment("mr.blacklist.machines",
                        outcome.machines_blacklisted);
  }
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
inline void MergeSpeculationCounters(const JobTiming& timing,
                                     Counters* counters) {
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

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_TASK_RUNNER_H_
