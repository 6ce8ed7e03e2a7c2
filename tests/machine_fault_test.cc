// Machine-level fault domains: deterministic machine deaths kill the
// attempts on the machine's slots and remove it from the cluster, orphaned
// tasks re-queue (with exponential backoff) on the survivors, repeatedly
// failing machines are blacklisted, and the data plane stays byte-identical
// throughout — only the simulated timeline and "mr." bookkeeping change.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"
#include "mechanism/sorted_neighbor.h"
#include "mr_test_util.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;
using testing_util::ValidateAttemptSchedule;

// ---- FaultPlan machine-failure derivation ----

TEST(MachineFailurePlanTest, DisabledPlanHasNoFailures) {
  FaultConfig config;
  config.machine_failures.push_back({0, 5.0});
  config.machine_failure_prob = 1.0;
  config.machine_failure_horizon_seconds = 100.0;
  const FaultPlan plan(config);  // enabled stays false
  EXPECT_TRUE(plan.MachineFailures(4).empty());
}

TEST(MachineFailurePlanTest, SeededFailuresAreDeterministicAndInRange) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 11;
  config.machine_failure_prob = 0.5;
  config.machine_failure_horizon_seconds = 100.0;
  const FaultPlan plan(config);
  const std::vector<MachineFault> a = plan.MachineFailures(10);
  const std::vector<MachineFault> b = plan.MachineFailures(10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].machine, b[i].machine);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_GE(a[i].machine, 0);
    EXPECT_LT(a[i].machine, 10);
    EXPECT_GE(a[i].time, 0.0);
    EXPECT_LT(a[i].time, 100.0);
  }
  // prob=0.5 over 10 machines: some die, some survive (seed-checked once).
  EXPECT_GE(a.size(), 1u);
  EXPECT_LT(a.size(), 10u);
  // Sorted by (time, machine), at most one event per machine.
  std::vector<bool> seen(10, false);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].time, a[i].time);
  }
  for (const MachineFault& f : a) {
    EXPECT_FALSE(seen[static_cast<size_t>(f.machine)]);
    seen[static_cast<size_t>(f.machine)] = true;
  }
}

TEST(MachineFailurePlanTest, InjectedMergesWithSeededEarliestWins) {
  FaultConfig config;
  config.enabled = true;
  config.machine_failures.push_back({2, 30.0});
  config.machine_failures.push_back({2, 10.0});  // earlier event wins
  config.machine_failures.push_back({7, 12.0});  // out of range for 4 machines
  const FaultPlan plan(config);
  const std::vector<MachineFault> failures = plan.MachineFailures(4);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].machine, 2);
  EXPECT_DOUBLE_EQ(failures[0].time, 10.0);
}

// ---- Config validation of the fault taxonomy knobs ----

TEST(FaultValidationTest, RejectsOutOfRangeHangTimeoutAndSkipKnobs) {
  const auto error_of = [](void (*mutate)(FaultConfig*)) {
    ClusterConfig cluster;
    cluster.fault.enabled = true;
    mutate(&cluster.fault);
    return ValidateClusterConfig(cluster);
  };

  EXPECT_NE(error_of([](FaultConfig* f) { f->map_hang_prob = 1.5; })
                .find("fault.map_hang_prob"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) { f->reduce_hang_prob = -0.1; })
                .find("fault.reduce_hang_prob"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) { f->task_timeout_seconds = -1.0; })
                .find("fault.task_timeout_seconds"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) {
              f->injected_hangs = {{TaskPhase::kMap, 0, 0, 0.0}};
            }).find("fault.injected_hangs[0].hang_at_fraction"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) {
              f->injected_hangs = {{TaskPhase::kMap, 0, 0, 1.5}};
            }).find("fault.injected_hangs[0].hang_at_fraction"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) { f->shuffle_corrupt_prob = 2.0; })
                .find("fault.shuffle_corrupt_prob"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) { f->max_fetch_retries = -1; })
                .find("fault.max_fetch_retries"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) { f->max_attempts_before_skip = 0; })
                .find("fault.max_attempts_before_skip"),
            std::string::npos);
  EXPECT_NE(error_of([](FaultConfig* f) { f->poison_records = {-3}; })
                .find("fault.poison_records[0]"),
            std::string::npos);
  // In-range values of every new knob pass.
  EXPECT_EQ(error_of([](FaultConfig* f) {
              f->map_hang_prob = 0.5;
              f->reduce_hang_prob = 1.0;
              f->task_timeout_seconds = 0.0;
              f->injected_hangs = {{TaskPhase::kReduce, 1, 0, 1.0}};
              f->shuffle_corrupt_prob = 0.25;
              f->max_fetch_retries = 0;
              f->max_attempts_before_skip = 1;
              f->poison_records = {0, 7};
            }),
            "");
}

// ---- Scheduler-level fault domains ----

AttemptScheduleOptions TwoMachineOptions() {
  AttemptScheduleOptions options;
  options.slot_speeds = {1.0, 1.0};
  options.slots_per_machine = 1;  // slot s == machine s
  options.seconds_per_cost_unit = 1.0;
  return options;
}

// Without faults, spreading the slots over machines changes nothing: the
// schedule matches the one with every slot on machine 0.
TEST(MachineScheduleTest, NoFaultsMatchesSingleMachineSchedule) {
  const std::vector<std::vector<double>> chains = {
      {5.0}, {3.0, 9.0}, {2.0}, {7.0, 1.0, 4.0}, {6.0}};
  const std::vector<double> speeds = {1.0, 0.5, 2.0};
  AttemptScheduleOptions options;
  options.slot_speeds = speeds;
  options.start_time = 2.0;
  options.seconds_per_cost_unit = 0.5;
  const AttemptScheduleOutcome single =
      ScheduleTaskAttemptsOnCluster(chains, options);

  options.slots_per_machine = 1;
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster(chains, options);

  EXPECT_DOUBLE_EQ(outcome.end_time, single.end_time);
  ASSERT_EQ(outcome.attempts.size(), single.attempts.size());
  for (size_t i = 0; i < single.attempts.size(); ++i) {
    EXPECT_EQ(outcome.attempts[i].task, single.attempts[i].task);
    EXPECT_EQ(outcome.attempts[i].slot, single.attempts[i].slot);
    EXPECT_DOUBLE_EQ(outcome.attempts[i].start, single.attempts[i].start);
    EXPECT_DOUBLE_EQ(outcome.attempts[i].end, single.attempts[i].end);
    EXPECT_EQ(outcome.attempts[i].won, single.attempts[i].won);
  }
  ASSERT_EQ(outcome.winning_starts.size(), single.winning_starts.size());
  for (size_t i = 0; i < single.winning_starts.size(); ++i) {
    EXPECT_DOUBLE_EQ(outcome.winning_starts[i], single.winning_starts[i]);
  }
  EXPECT_EQ(outcome.machine_lost_attempts, 0);
  EXPECT_EQ(outcome.machines_lost, 0);
  EXPECT_DOUBLE_EQ(outcome.replayed_cost_units, 0.0);
}

TEST(MachineScheduleTest, DeathKillsAttemptAndRequeuesOnSurvivor) {
  AttemptScheduleOptions options = TwoMachineOptions();
  options.machine_failures = {{0, 5.0}};
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{10.0}, {10.0}}, options);

  ASSERT_FALSE(outcome.failed);
  // Task 0 runs 0-5 on machine 0, is killed, then re-runs its full 10 units
  // on machine 1 after task 1 finishes there at t=10.
  ASSERT_EQ(outcome.attempts.size(), 3u);
  const TaskAttemptTiming& killed = outcome.attempts[0];
  EXPECT_EQ(killed.task, 0);
  EXPECT_TRUE(killed.machine_lost);
  EXPECT_TRUE(killed.failed);
  EXPECT_FALSE(killed.won);
  EXPECT_DOUBLE_EQ(killed.start, 0.0);
  EXPECT_DOUBLE_EQ(killed.end, 5.0);
  const TaskAttemptTiming& rerun = outcome.attempts.back();
  EXPECT_EQ(rerun.task, 0);
  EXPECT_EQ(rerun.attempt, killed.attempt);  // no max_attempts consumed
  EXPECT_EQ(rerun.slot, 1);
  EXPECT_TRUE(rerun.won);
  EXPECT_DOUBLE_EQ(rerun.start, 10.0);
  EXPECT_DOUBLE_EQ(rerun.end, 20.0);
  EXPECT_DOUBLE_EQ(outcome.end_time, 20.0);
  EXPECT_EQ(outcome.machine_lost_attempts, 1);
  EXPECT_EQ(outcome.machines_lost, 1);
  // The 5 units done before the kill are replayed from scratch.
  EXPECT_DOUBLE_EQ(outcome.replayed_cost_units, 5.0);
  ValidateAttemptSchedule(outcome.attempts, 2, 0.0, outcome.end_time);
}

TEST(MachineScheduleTest, RecoveryPointShortensTheRerun) {
  AttemptScheduleOptions options = TwoMachineOptions();
  options.machine_failures = {{0, 5.0}};
  // Checkpoints at 2 and 4 cost units: the kill at progress 5 resumes from
  // 4, so the rerun executes only 6 of the 10 units.
  options.recovery_points = {{2.0, 4.0}, {}};
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{10.0}, {10.0}}, options);

  ASSERT_FALSE(outcome.failed);
  const TaskAttemptTiming& rerun = outcome.attempts.back();
  EXPECT_EQ(rerun.task, 0);
  EXPECT_DOUBLE_EQ(rerun.start, 10.0);
  EXPECT_DOUBLE_EQ(rerun.end, 16.0);
  EXPECT_DOUBLE_EQ(outcome.end_time, 16.0);
  EXPECT_DOUBLE_EQ(outcome.replayed_cost_units, 1.0);  // progress 5 - point 4
}

TEST(MachineScheduleTest, LosingEveryMachineFailsThePhase) {
  AttemptScheduleOptions options = TwoMachineOptions();
  options.machine_failures = {{0, 5.0}, {1, 8.0}};
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{10.0}, {10.0}}, options);
  EXPECT_TRUE(outcome.failed);
  EXPECT_GE(outcome.failed_task, 0);
  // The last death coincides with the truncated makespan, so at least the
  // earlier one falls inside the phase window.
  EXPECT_GE(outcome.machines_lost, 1);
  EXPECT_GE(outcome.machine_lost_attempts, 2);
}

TEST(MachineScheduleTest, BackoffDelaysEachRedispatchExponentially) {
  AttemptScheduleOptions options;
  options.slot_speeds = {1.0};
  options.slots_per_machine = 1;
  options.seconds_per_cost_unit = 1.0;
  options.retry_backoff_seconds = 3.0;
  options.retry_backoff_factor = 2.0;
  // Two plan failures then success: re-dispatch delays 3 and 6 seconds.
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{5.0, 5.0, 10.0}}, options);
  ASSERT_FALSE(outcome.failed);
  ASSERT_EQ(outcome.attempts.size(), 3u);
  EXPECT_DOUBLE_EQ(outcome.attempts[0].start, 0.0);
  EXPECT_DOUBLE_EQ(outcome.attempts[0].end, 5.0);
  EXPECT_DOUBLE_EQ(outcome.attempts[1].start, 8.0);   // 5 + 3
  EXPECT_DOUBLE_EQ(outcome.attempts[1].end, 13.0);
  EXPECT_DOUBLE_EQ(outcome.attempts[2].start, 19.0);  // 13 + 6
  EXPECT_DOUBLE_EQ(outcome.attempts[2].end, 29.0);
  EXPECT_DOUBLE_EQ(outcome.backoff_seconds, 9.0);
  EXPECT_DOUBLE_EQ(outcome.end_time, 29.0);
}

TEST(MachineScheduleTest, RepeatedFailuresBlacklistTheMachine) {
  AttemptScheduleOptions options = TwoMachineOptions();
  options.blacklist_failures = 2;
  // Task 0 fails twice; both failures land on machine 0 (ties go to the
  // lowest slot), so machine 0 is blacklisted and the third attempt runs on
  // machine 1.
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{1.0, 1.0, 10.0}}, options);
  ASSERT_FALSE(outcome.failed);
  ASSERT_EQ(outcome.attempts.size(), 3u);
  EXPECT_EQ(outcome.attempts[0].slot, 0);
  EXPECT_EQ(outcome.attempts[1].slot, 0);
  EXPECT_EQ(outcome.attempts[2].slot, 1);
  EXPECT_TRUE(outcome.attempts[2].won);
  EXPECT_EQ(outcome.machines_blacklisted, 1);
}

TEST(MachineScheduleTest, LastHealthyMachineIsNeverBlacklisted) {
  AttemptScheduleOptions options;
  options.slot_speeds = {1.0};
  options.slots_per_machine = 1;
  options.seconds_per_cost_unit = 1.0;
  options.blacklist_failures = 1;
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{1.0, 1.0, 10.0}}, options);
  ASSERT_FALSE(outcome.failed);
  EXPECT_EQ(outcome.machines_blacklisted, 0);
  EXPECT_TRUE(outcome.attempts.back().won);
}

// ---- Scheduler-level hangs and heartbeat timeouts ----

TEST(MachineScheduleTest, HungAttemptHoldsSlotThroughTimeoutThenRetries) {
  AttemptScheduleOptions options;
  options.slot_speeds = {1.0};
  options.slots_per_machine = 1;
  options.seconds_per_cost_unit = 1.0;
  options.task_timeout_seconds = 7.0;
  // Attempt 0 does 4 units of work, then its heartbeat goes silent; the
  // tracker kills it 7 seconds later and the retry (10 units) runs clean.
  options.hang_attempts = {{1, 0}};
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{4.0, 10.0}}, options);

  ASSERT_FALSE(outcome.failed);
  ASSERT_EQ(outcome.attempts.size(), 2u);
  const TaskAttemptTiming& hung = outcome.attempts[0];
  EXPECT_TRUE(hung.timed_out);
  EXPECT_TRUE(hung.failed);
  EXPECT_FALSE(hung.won);
  EXPECT_FALSE(hung.machine_lost);
  EXPECT_DOUBLE_EQ(hung.start, 0.0);
  EXPECT_DOUBLE_EQ(hung.end, 11.0);  // 4 units of work + 7s of silence
  const TaskAttemptTiming& retry = outcome.attempts[1];
  EXPECT_TRUE(retry.won);
  EXPECT_FALSE(retry.timed_out);
  EXPECT_DOUBLE_EQ(retry.start, 11.0);
  EXPECT_DOUBLE_EQ(retry.end, 21.0);
  EXPECT_EQ(outcome.timeout_kills, 1);
  EXPECT_DOUBLE_EQ(outcome.end_time, 21.0);
}

TEST(MachineScheduleTest, MachineDeathDuringHangCountsAsMachineLost) {
  AttemptScheduleOptions options = TwoMachineOptions();
  options.task_timeout_seconds = 7.0;
  options.hang_attempts = {{1, 0}};
  // The hung occurrence (work done at t=4, kill due t=11) loses its machine
  // at t=6: that is a machine loss, not a timeout, and the re-run of the
  // same attempt index hangs again on the survivor.
  options.machine_failures = {{0, 6.0}};
  const AttemptScheduleOutcome outcome =
      ScheduleTaskAttemptsOnCluster({{4.0, 10.0}}, options);

  ASSERT_FALSE(outcome.failed);
  ASSERT_EQ(outcome.attempts.size(), 3u);
  const TaskAttemptTiming& lost = outcome.attempts[0];
  EXPECT_TRUE(lost.machine_lost);
  EXPECT_FALSE(lost.timed_out);
  EXPECT_DOUBLE_EQ(lost.end, 6.0);
  const TaskAttemptTiming& rehang = outcome.attempts[1];
  EXPECT_EQ(rehang.attempt, lost.attempt);  // machine loss costs no attempt
  EXPECT_EQ(rehang.slot, 1);
  EXPECT_TRUE(rehang.timed_out);
  EXPECT_DOUBLE_EQ(rehang.start, 6.0);
  EXPECT_DOUBLE_EQ(rehang.end, 17.0);
  const TaskAttemptTiming& retry = outcome.attempts[2];
  EXPECT_TRUE(retry.won);
  EXPECT_DOUBLE_EQ(retry.end, 27.0);
  EXPECT_EQ(outcome.machine_lost_attempts, 1);
  EXPECT_EQ(outcome.timeout_kills, 1);
  // All 4 units of pre-hang progress are replayed (no recovery points).
  EXPECT_DOUBLE_EQ(outcome.replayed_cost_units, 4.0);
}

// ---- Job-level: data plane unchanged, timeline and counters shift ----

constexpr int kMapTasks = 4;
constexpr int kReduceTasks = 3;

ClusterConfig TestCluster(FaultConfig fault = FaultConfig()) {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.seconds_per_cost_unit = 1.0;
  cluster.fault = std::move(fault);
  return cluster;
}

using Job = MapReduceJob<int, int, int>;

Job::Result RunJob(const ClusterConfig& cluster) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);
  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  return job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->counters().Increment("map.records");
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 11, record);
      },
      [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->counters().Increment("reduce.groups");
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

TEST(MachineFaultJobTest, OutputsIdenticalUnderMachineLoss) {
  const Job::Result baseline = RunJob(TestCluster());
  ASSERT_FALSE(baseline.failed);

  FaultConfig fault;
  fault.enabled = true;
  fault.machine_failures = {{0, 20.0}};  // dies mid-map
  const Job::Result run = RunJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;

  EXPECT_EQ(run.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(run.counters), CountersMinusMr(baseline.counters));
  EXPECT_GE(run.counters.Get("mr.faults.machine_lost"), 1);
  EXPECT_EQ(run.counters.Get("mr.faults.machines_dead"), 1);
  EXPECT_GT(run.counters.Get("mr.recovery.replayed_cost"), 0);
  EXPECT_GE(run.timing.end, baseline.timing.end);
  ValidateAttemptSchedule(run.timing.map_attempts, kMapTasks, run.timing.start,
                          run.timing.map_end);
  ValidateAttemptSchedule(run.timing.reduce_attempts, kReduceTasks,
                          run.timing.map_end, run.timing.end);
}

TEST(MachineFaultJobTest, FaultFreeCounterSetHasNoRecoveryEntries) {
  const Job::Result baseline = RunJob(TestCluster());
  for (const std::string name :
       {"mr.faults.machine_lost", "mr.faults.machines_dead",
        "mr.blacklist.machines", "mr.retry.backoff_seconds",
        "mr.recovery.replayed_pairs", "mr.recovery.replayed_cost",
        "mr.checkpoint.saved", "mr.checkpoint.restored",
        "mr.faults.task_timeouts", "mr.shuffle.checksum_errors",
        "mr.shuffle.refetches", "mr.shuffle.map_reruns",
        "mr.skipped.records"}) {
    EXPECT_EQ(baseline.counters.values().count(name), 0u) << name;
  }
}

TEST(MachineFaultJobTest, OutputsIdenticalUnderInjectedHangs) {
  const Job::Result baseline = RunJob(TestCluster());
  ASSERT_FALSE(baseline.failed);

  FaultConfig fault;
  fault.enabled = true;
  fault.task_timeout_seconds = 30.0;
  fault.injected_hangs = {{TaskPhase::kMap, 1, 0, 0.5},
                          {TaskPhase::kReduce, 0, 0, 0.25}};
  const Job::Result run = RunJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;

  EXPECT_EQ(run.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(run.counters), CountersMinusMr(baseline.counters));
  EXPECT_EQ(run.counters.Get("mr.faults.task_timeouts"), 2);
  EXPECT_EQ(run.counters.Get("mr.failed_attempts"), 2);
  // Each hang holds its slot for the timeout before the retry can start.
  EXPECT_GE(run.timing.end, baseline.timing.end + 30.0);
  // A hung original never wins — the timeout kill subsumes the race with
  // any speculative twin.
  int timed_out = 0;
  for (const auto* attempts : {&run.timing.map_attempts,
                               &run.timing.reduce_attempts}) {
    for (const TaskAttemptTiming& a : *attempts) {
      if (a.timed_out) {
        ++timed_out;
        EXPECT_TRUE(a.failed);
        EXPECT_FALSE(a.won);
      }
    }
  }
  EXPECT_EQ(timed_out, 2);
  ValidateAttemptSchedule(run.timing.map_attempts, kMapTasks, run.timing.start,
                          run.timing.map_end);
  ValidateAttemptSchedule(run.timing.reduce_attempts, kReduceTasks,
                          run.timing.map_end, run.timing.end);
}

TEST(MachineFaultJobTest, SeededHangsKeepOutputsIdentical) {
  const Job::Result baseline = RunJob(TestCluster());
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 9;
  fault.map_hang_prob = 0.3;
  fault.reduce_hang_prob = 0.3;
  fault.task_timeout_seconds = 20.0;
  fault.max_attempts = 10;
  const Job::Result run = RunJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_EQ(run.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(run.counters), CountersMinusMr(baseline.counters));
  // prob=0.3 over 7 tasks: at least one hangs (seed-checked once).
  EXPECT_GE(run.counters.Get("mr.faults.task_timeouts"), 1);
}

TEST(MachineFaultJobTest, ShuffleCorruptionRefetchesAndRecovers) {
  const Job::Result baseline = RunJob(TestCluster());
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 3;
  fault.shuffle_corrupt_prob = 0.4;
  fault.max_fetch_retries = 1;
  const Job::Result run = RunJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;

  EXPECT_EQ(run.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(run.counters), CountersMinusMr(baseline.counters));
  const int64_t errors = run.counters.Get("mr.shuffle.checksum_errors");
  // prob=0.4 over 4x3 partitions: some fetch is corrupt (seed-checked once).
  EXPECT_GE(errors, 1);
  // Every checksum error triggers exactly one re-fetch.
  EXPECT_EQ(run.counters.Get("mr.shuffle.refetches"), errors);
  const int64_t reruns = run.counters.Get("mr.shuffle.map_reruns");
  EXPECT_GE(reruns, 0);
  EXPECT_LE(reruns, errors);
  if (reruns > 0) {
    // Waiting out a map re-run stalls the affected reduce task.
    EXPECT_GT(run.timing.end, baseline.timing.end);
  }
}

TEST(MachineFaultJobTest, CorruptionCountersAbsentWhenProbabilityZero) {
  FaultConfig fault;
  fault.enabled = true;
  fault.injected = {{TaskPhase::kMap, 0, 0}};  // unrelated crash fault
  const Job::Result run = RunJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_EQ(run.counters.values().count("mr.shuffle.checksum_errors"), 0u);
  EXPECT_EQ(run.counters.values().count("mr.shuffle.refetches"), 0u);
  EXPECT_EQ(run.counters.values().count("mr.shuffle.map_reruns"), 0u);
}

// Poison-sensitive variant of RunJob: input record i carries value i, so
// FaultPlan's record indices line up with the values the map function sees.
// `drop_records` (sorted) makes the map function itself skip those records —
// the fault-free twin of what skip-bad-records quarantining should produce.
Job::Result RunPoisonableJob(const ClusterConfig& cluster,
                             const std::vector<int64_t>& drop_records = {}) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i);
  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  job.set_poison_faults(true);
  return job.Run(
      input,
      [&drop_records](const int& record, Job::MapContext* ctx) {
        if (std::binary_search(drop_records.begin(), drop_records.end(),
                               static_cast<int64_t>(record))) {
          return;
        }
        ctx->counters().Increment("map.records");
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 11, record);
      },
      [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->counters().Increment("reduce.groups");
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

TEST(MachineFaultJobTest, SkipBadRecordsQuarantinesAndMatchesManualSkip) {
  // Records 10 (map task 0) and 100 (map task 1) are poison.
  FaultConfig fault;
  fault.enabled = true;
  fault.poison_records = {10, 100};
  fault.skip_bad_records = true;
  const Job::Result run = RunPoisonableJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;

  ASSERT_EQ(run.quarantined.size(), 2u);
  EXPECT_EQ(run.quarantined[0].task, 0);
  EXPECT_EQ(run.quarantined[0].record, 10);
  EXPECT_EQ(run.quarantined[1].task, 1);
  EXPECT_EQ(run.quarantined[1].record, 100);
  EXPECT_EQ(run.counters.Get("mr.skipped.records"), 2);
  // Each poison record crashed max_attempts_before_skip=2 attempts.
  EXPECT_EQ(run.counters.Get("mr.failed_attempts"), 4);

  // Byte-identical to a fault-free run whose map function skips the same
  // records by hand — quarantining is the ONLY divergence.
  const Job::Result twin = RunPoisonableJob(TestCluster(), {10, 100});
  ASSERT_FALSE(twin.failed);
  EXPECT_TRUE(twin.quarantined.empty());
  EXPECT_EQ(run.outputs, twin.outputs);
  EXPECT_EQ(CountersMinusMr(run.counters), CountersMinusMr(twin.counters));
}

TEST(MachineFaultJobTest, PoisonWithoutSkipDoomsTheJob) {
  FaultConfig fault;
  fault.enabled = true;
  fault.poison_records = {10};
  fault.skip_bad_records = false;  // Hadoop default: the record kills the job
  const Job::Result run = RunPoisonableJob(TestCluster(fault));
  EXPECT_TRUE(run.failed);
  EXPECT_NE(run.error.find("attempts"), std::string::npos) << run.error;
  EXPECT_TRUE(run.quarantined.empty());
  EXPECT_TRUE(run.outputs.empty());
}

TEST(MachineFaultJobTest, PoisonInsensitiveJobIgnoresPoisonRecords) {
  const Job::Result baseline = RunJob(TestCluster());
  FaultConfig fault;
  fault.enabled = true;
  fault.poison_records = {10, 100};
  fault.skip_bad_records = true;
  // RunJob never calls set_poison_faults: like a statistics pre-pass, its
  // map code cannot crash on a bad record.
  const Job::Result run = RunJob(TestCluster(fault));
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_TRUE(run.quarantined.empty());
  EXPECT_EQ(run.outputs, baseline.outputs);
  EXPECT_EQ(run.counters.values().count("mr.skipped.records"), 0u);
}

TEST(MachineFaultJobTest, LosingAllMachinesFailsTheJobCleanly) {
  FaultConfig fault;
  fault.enabled = true;
  fault.machine_failures = {{0, 10.0}, {1, 15.0}};
  const Job::Result run = RunJob(TestCluster(fault));
  EXPECT_TRUE(run.failed);
  EXPECT_NE(run.error.find("no healthy machines remain"), std::string::npos)
      << run.error;
  EXPECT_TRUE(run.outputs.empty());
  // Only the runtime's own bookkeeping survives a failed job.
  for (const auto& [name, value] : run.counters.values()) {
    EXPECT_EQ(name.rfind("mr.", 0), 0u) << name;
  }
}

TEST(MachineFaultJobTest, BackoffShiftsTimelineOnly) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.injected = {{TaskPhase::kReduce, 0, 0}, {TaskPhase::kReduce, 0, 1}};
  const Job::Result immediate = RunJob(TestCluster(fault));
  ASSERT_FALSE(immediate.failed);

  fault.retry_backoff_seconds = 5.0;
  fault.retry_backoff_factor = 2.0;
  const Job::Result delayed = RunJob(TestCluster(fault));
  ASSERT_FALSE(delayed.failed);

  EXPECT_EQ(delayed.outputs, immediate.outputs);
  // Two failures of one task: delays 5 and 10 seconds.
  EXPECT_EQ(delayed.counters.Get("mr.retry.backoff_seconds"), 15);
  EXPECT_GE(delayed.timing.end, immediate.timing.end + 15.0);
}

// ---- End-to-end: ProgressiveEr under machine failures ----

TEST(MachineFaultJobTest, ProgressiveErResolvedPairsSurviveMachineLoss) {
  PublicationConfig gen;
  gen.num_entities = 1500;
  gen.seed = 23;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = 500;
  train_gen.seed = 24;
  const LabeledDataset train = GeneratePublications(train_gen);

  const BlockingConfig blocking(
      {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3}, -1}});
  const MatchFunction match(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.7, 0},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.3, 0}},
      0.75);
  const ProbabilityModel prob =
      ProbabilityModel::Train(train.dataset, train.truth, blocking);
  const SortedNeighborMechanism sn;

  ProgressiveErOptions options;
  options.cluster = TestCluster();
  options.cluster.machines = 3;
  options.cluster.seconds_per_cost_unit = 1e-3;
  const ErRunResult clean =
      ProgressiveEr(blocking, match, sn, prob, options).Run(data.dataset);
  ASSERT_FALSE(clean.failed) << clean.error;

  ProgressiveErOptions faulty_options = options;
  faulty_options.cluster.fault.enabled = true;
  faulty_options.cluster.fault.seed = 5;
  faulty_options.cluster.fault.reduce_failure_prob = 0.2;
  faulty_options.cluster.fault.max_attempts = 10;
  faulty_options.cluster.fault.retry_backoff_seconds = 1.0;
  // One machine dies mid-run; the survivors absorb its tasks.
  faulty_options.cluster.fault.machine_failures = {
      {1, clean.total_time * 0.5}};
  const ErRunResult faulty =
      ProgressiveEr(blocking, match, sn, prob, faulty_options)
          .Run(data.dataset);
  ASSERT_FALSE(faulty.failed) << faulty.error;

  // Byte-identical resolved pairs — the acceptance bar for fault domains.
  EXPECT_EQ(faulty.duplicates, clean.duplicates);
  EXPECT_EQ(faulty.duplicate_count, clean.duplicate_count);
  EXPECT_EQ(faulty.comparisons, clean.comparisons);
  EXPECT_EQ(CountersMinusMr(faulty.counters), CountersMinusMr(clean.counters));
  EXPECT_GE(faulty.total_time, clean.total_time);
}

}  // namespace
}  // namespace progres
