#include <gtest/gtest.h>

#include "mapreduce/cluster.h"
#include "mapreduce/job.h"
#include "mr_test_util.h"

namespace progres {
namespace {

using testing_util::ValidateAttemptSchedule;

// Schedules single-attempt tasks with the given costs on slots of the given
// speeds.
AttemptScheduleOutcome ScheduleSingleAttempts(
    const std::vector<double>& costs, const std::vector<double>& slot_speeds,
    double start_time, double seconds_per_cost_unit,
    const SpeculationConfig& speculation = {}) {
  std::vector<std::vector<double>> chains;
  chains.reserve(costs.size());
  for (double c : costs) chains.push_back({c});
  AttemptScheduleOptions options;
  options.slot_speeds = slot_speeds;
  options.start_time = start_time;
  options.seconds_per_cost_unit = seconds_per_cost_unit;
  options.speculation = speculation;
  return ScheduleTaskAttemptsOnCluster(chains, options);
}

TEST(SlotSpeedsTest, ExpandsPerMachine) {
  ClusterConfig cluster;
  cluster.machines = 3;
  cluster.machine_speed = {1.0, 0.5, 2.0};
  const std::vector<double> speeds = cluster.SlotSpeeds(2);
  ASSERT_EQ(speeds.size(), 6u);
  EXPECT_DOUBLE_EQ(speeds[0], 1.0);
  EXPECT_DOUBLE_EQ(speeds[1], 1.0);
  EXPECT_DOUBLE_EQ(speeds[2], 0.5);
  EXPECT_DOUBLE_EQ(speeds[3], 0.5);
  EXPECT_DOUBLE_EQ(speeds[4], 2.0);
  EXPECT_DOUBLE_EQ(speeds[5], 2.0);
}

TEST(SlotSpeedsTest, MissingEntriesDefaultToNominal) {
  ClusterConfig cluster;
  cluster.machines = 3;
  cluster.machine_speed = {0.5};  // machines 1 and 2 unspecified
  EXPECT_DOUBLE_EQ(cluster.SpeedOfMachine(0), 0.5);
  EXPECT_DOUBLE_EQ(cluster.SpeedOfMachine(1), 1.0);
  EXPECT_DOUBLE_EQ(cluster.SpeedOfMachine(2), 1.0);
  // Zero/negative speeds are a config error now, caught by validation
  // instead of being silently coerced to nominal.
  cluster.machine_speed = {0.0};
  const std::string error = ValidateClusterConfig(cluster);
  EXPECT_NE(error.find("machine_speed"), std::string::npos) << error;
}

TEST(ValidateClusterConfigTest, AcceptsDefaultsAndRejectsBadFields) {
  ClusterConfig cluster;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");

  cluster.machines = 0;
  EXPECT_NE(ValidateClusterConfig(cluster).find("machines"),
            std::string::npos);
  cluster = ClusterConfig();
  cluster.map_slots_per_machine = 0;
  EXPECT_NE(ValidateClusterConfig(cluster).find("map_slots_per_machine"),
            std::string::npos);
  cluster = ClusterConfig();
  cluster.seconds_per_cost_unit = 0.0;
  EXPECT_NE(ValidateClusterConfig(cluster).find("seconds_per_cost_unit"),
            std::string::npos);
  cluster = ClusterConfig();
  cluster.machine_speed = {1.0, -2.0};
  EXPECT_NE(ValidateClusterConfig(cluster).find("machine_speed"),
            std::string::npos);
}

TEST(ValidateClusterConfigTest, ChecksFaultFieldsOnlyWhenEnabled) {
  ClusterConfig cluster;
  // Garbage fault fields are ignored while fault injection is disabled.
  cluster.fault.max_attempts = 0;
  cluster.fault.map_failure_prob = 7.0;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");

  cluster.fault.enabled = true;
  EXPECT_NE(ValidateClusterConfig(cluster).find("max_attempts"),
            std::string::npos);
  cluster.fault.max_attempts = 3;
  EXPECT_NE(ValidateClusterConfig(cluster).find("map_failure_prob"),
            std::string::npos);
  cluster.fault.map_failure_prob = 0.1;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");

  cluster.fault.machine_failures.push_back(
      {cluster.machines, 0.0});  // machine out of range
  EXPECT_NE(ValidateClusterConfig(cluster).find("machine_failures"),
            std::string::npos);
  cluster.fault.machine_failures.clear();
  cluster.fault.retry_backoff_factor = 0.5;
  EXPECT_NE(ValidateClusterConfig(cluster).find("retry_backoff_factor"),
            std::string::npos);
  cluster.fault.retry_backoff_factor = 2.0;
  cluster.fault.blacklist_failures = -1;
  EXPECT_NE(ValidateClusterConfig(cluster).find("blacklist_failures"),
            std::string::npos);
}

TEST(ValidateClusterConfigTest, ThreadedBackendRequiresValidThreadCount) {
  ClusterConfig cluster;
  cluster.backend = ExecutionBackend::kThreaded;
  // 0 (the simulated default) is not a legal worker count.
  cluster.execution_threads = 0;
  EXPECT_NE(ValidateClusterConfig(cluster)
                .find("backend=threaded requires execution_threads >= 1"),
            std::string::npos);
  // More workers than simulated slots would give the wall clock
  // concurrency the modeled cluster does not have. Default cluster:
  // 10 machines x 2 slots = 20-slot capacity.
  cluster.execution_threads = 21;
  EXPECT_NE(
      ValidateClusterConfig(cluster).find("must not exceed the cluster's"),
      std::string::npos);
  cluster.execution_threads = 20;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");
  cluster.execution_threads = 1;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");
}

TEST(ValidateClusterConfigTest, ThreadedBackendRejectsSpeculation) {
  ClusterConfig cluster;
  cluster.backend = ExecutionBackend::kThreaded;
  cluster.execution_threads = 4;
  cluster.speculation.enabled = true;
  EXPECT_NE(ValidateClusterConfig(cluster)
                .find("does not support speculative execution"),
            std::string::npos);
  // The simulated backend keeps accepting the same config.
  cluster.backend = ExecutionBackend::kSimulated;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");
}

TEST(ValidateClusterConfigTest, ThreadedBackendRejectsMachineFailures) {
  ClusterConfig cluster;
  cluster.backend = ExecutionBackend::kThreaded;
  cluster.execution_threads = 4;
  cluster.fault.enabled = true;
  cluster.fault.machine_failure_prob = 0.05;
  cluster.fault.machine_failure_horizon_seconds = 100.0;
  EXPECT_NE(
      ValidateClusterConfig(cluster).find("does not support machine failures"),
      std::string::npos);
  cluster.fault.machine_failure_prob = 0.0;
  cluster.fault.machine_failures.push_back({0, 5.0});
  EXPECT_NE(
      ValidateClusterConfig(cluster).find("does not support machine failures"),
      std::string::npos);
  // Task-level faults remain fair game for the threaded backend...
  cluster.fault.machine_failures.clear();
  cluster.fault.map_failure_prob = 0.2;
  EXPECT_EQ(ValidateClusterConfig(cluster), "");
  // ...and the simulated backend still takes the machine fault domain.
  cluster.backend = ExecutionBackend::kSimulated;
  cluster.fault.machine_failure_prob = 0.05;
  cluster.fault.machine_failures.push_back({0, 5.0});
  EXPECT_EQ(ValidateClusterConfig(cluster), "");
}

TEST(ValidateClusterConfigTest, ThreadedMisconfigFailsJobSubmission) {
  using Job = MapReduceJob<int, int, int>;
  ClusterConfig cluster;
  cluster.backend = ExecutionBackend::kThreaded;
  cluster.execution_threads = 0;
  Job job(2, 2);
  const auto result = job.Run(
      {1, 2, 3},
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int&, std::vector<int>*, Job::ReduceContext*) {}, cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("invalid cluster config"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("backend=threaded"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.outputs.empty());
  // No phase ran: the elapsed wall time must not be booked to reduce.
  EXPECT_EQ(result.timing.wall.map_seconds, 0.0);
  EXPECT_EQ(result.timing.wall.reduce_seconds, 0.0);
}

TEST(ValidateClusterConfigTest, InvalidConfigFailsJobSubmission) {
  using Job = MapReduceJob<int, int, int>;
  ClusterConfig cluster;
  cluster.machines = -2;
  Job job(2, 2);
  const auto result = job.Run(
      {1, 2, 3},
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int&, std::vector<int>*, Job::ReduceContext*) {}, cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("invalid cluster config"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.outputs.empty());
  // No phase ran: the elapsed wall time must not be booked to reduce.
  EXPECT_EQ(result.timing.wall.map_seconds, 0.0);
  EXPECT_EQ(result.timing.wall.reduce_seconds, 0.0);
}

TEST(ScheduleHeterogeneousTest, SlowSlotStretchesTask) {
  // One slot at half speed: a 10-unit task takes 20 seconds.
  const AttemptScheduleOutcome schedule =
      ScheduleSingleAttempts({10.0}, {0.5}, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(schedule.winning_starts[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.end_time, 20.0);
}

TEST(ScheduleHeterogeneousTest, FastSlotTakesMoreTasks) {
  // Slot 1 runs 4x faster; with many equal tasks it should absorb most of
  // them, keeping the makespan well under the homogeneous value.
  std::vector<double> costs(20, 10.0);
  const double slow_end =
      ScheduleSingleAttempts(costs, {1.0, 1.0}, 0.0, 1.0).end_time;
  const double fast_end =
      ScheduleSingleAttempts(costs, {1.0, 4.0}, 0.0, 1.0).end_time;
  EXPECT_LT(fast_end, slow_end);
}

TEST(ScheduleHeterogeneousTest, AttemptScheduleIsValid) {
  const std::vector<double> costs = {5.0, 9.0, 2.0, 7.0, 1.0, 4.0};
  const std::vector<double> speeds = {1.0, 0.5, 2.0};
  const AttemptScheduleOutcome schedule =
      ScheduleSingleAttempts(costs, speeds, 2.0, 0.5);
  const std::vector<TaskAttemptTiming>& attempts = schedule.attempts;
  ASSERT_EQ(attempts.size(), costs.size());
  ValidateAttemptSchedule(attempts, static_cast<int>(costs.size()), 2.0,
                          schedule.end_time);
  for (size_t t = 0; t < costs.size(); ++t) {
    EXPECT_DOUBLE_EQ(schedule.winning_starts[t], attempts[t].start);
  }
}

TEST(SpeculationTest, BackupBeatsStraggler) {
  // Slot 1 is a 4x straggler. Without speculation the task assigned to it
  // runs 0→40 and dominates the makespan; with speculation the fast slot
  // frees at t=10, launches a backup finishing at t=20, and wins.
  const std::vector<double> costs = {10.0, 10.0};
  const std::vector<double> speeds = {1.0, 0.25};
  const AttemptScheduleOutcome plain =
      ScheduleSingleAttempts(costs, speeds, 0.0, 1.0);
  ValidateAttemptSchedule(plain.attempts, static_cast<int>(costs.size()), 0.0,
                          plain.end_time);

  SpeculationConfig speculation;
  speculation.enabled = true;
  const AttemptScheduleOutcome spec =
      ScheduleSingleAttempts(costs, speeds, 0.0, 1.0, speculation);
  ValidateAttemptSchedule(spec.attempts, static_cast<int>(costs.size()), 0.0,
                          spec.end_time);

  EXPECT_LT(spec.end_time, plain.end_time);  // strictly smaller makespan
  int backups = 0;
  int backup_wins = 0;
  for (const TaskAttemptTiming& a : spec.attempts) {
    if (!a.speculative) continue;
    ++backups;
    if (a.won) ++backup_wins;
  }
  EXPECT_GE(backups, 1);
  EXPECT_EQ(backups, backup_wins);  // only profitable backups are launched
}

TEST(SpeculationTest, HomogeneousClusterIsNoOp) {
  // On equal-speed slots a backup can never finish before the original, so
  // speculation must not change the schedule at all.
  const std::vector<double> costs = {5.0, 9.0, 2.0, 7.0, 1.0, 4.0, 8.0};
  const std::vector<double> speeds = {1.0, 1.0, 1.0};
  SpeculationConfig speculation;
  speculation.enabled = true;
  const AttemptScheduleOutcome plain =
      ScheduleSingleAttempts(costs, speeds, 0.0, 1.0);
  const AttemptScheduleOutcome spec =
      ScheduleSingleAttempts(costs, speeds, 0.0, 1.0, speculation);
  EXPECT_DOUBLE_EQ(spec.end_time, plain.end_time);
  ASSERT_EQ(spec.attempts.size(), plain.attempts.size());
  for (size_t i = 0; i < spec.attempts.size(); ++i) {
    EXPECT_FALSE(spec.attempts[i].speculative);
    EXPECT_DOUBLE_EQ(spec.attempts[i].start, plain.attempts[i].start);
    EXPECT_DOUBLE_EQ(spec.attempts[i].end, plain.attempts[i].end);
  }
}

TEST(SpeculationTest, ThresholdSuppressesShortBackups) {
  // The straggler task has 40 simulated seconds remaining when the fast
  // slot frees up; a threshold above that suppresses the backup.
  const std::vector<double> costs = {10.0, 10.0};
  const std::vector<double> speeds = {1.0, 0.25};
  SpeculationConfig speculation;
  speculation.enabled = true;
  speculation.min_remaining_seconds = 1e6;
  const AttemptScheduleOutcome schedule =
      ScheduleSingleAttempts(costs, speeds, 0.0, 1.0, speculation);
  for (const TaskAttemptTiming& a : schedule.attempts) {
    EXPECT_FALSE(a.speculative);
  }
}

TEST(HeterogeneousJobTest, StragglerMachineDelaysJob) {
  using Job = MapReduceJob<int, int, int>;
  std::vector<int> input;
  for (int i = 0; i < 100; ++i) input.push_back(i);
  const auto run = [&input](std::vector<double> speeds) {
    ClusterConfig cluster;
    cluster.machines = 2;  // 4 reduce slots: tasks land on both machines
    cluster.execution_threads = 4;
    cluster.seconds_per_cost_unit = 1.0;
    cluster.machine_speed = std::move(speeds);
    Job job(4, 4);
    const auto result = job.Run(
        input,
        [](const int& record, Job::MapContext* ctx) {
          ctx->Emit(record % 4, record);
        },
        [](const int&, std::vector<int>*, Job::ReduceContext* ctx) {
          ctx->clock().Charge(100.0);
        },
        cluster);
    return result.timing.end;
  };
  const double nominal = run({});
  const double straggler = run({1.0, 0.25});
  EXPECT_GT(straggler, nominal);
}

TEST(HeterogeneousJobTest, SpeculationRecoversStragglerTime) {
  using Job = MapReduceJob<int, int, int>;
  std::vector<int> input;
  for (int i = 0; i < 100; ++i) input.push_back(i);
  const auto run = [&input](bool speculate) {
    ClusterConfig cluster;
    cluster.machines = 2;
    cluster.execution_threads = 4;
    cluster.seconds_per_cost_unit = 1.0;
    cluster.machine_speed = {1.0, 0.25};
    cluster.speculation.enabled = speculate;
    Job job(4, 4);
    return job.Run(
        input,
        [](const int& record, Job::MapContext* ctx) {
          ctx->Emit(record % 4, record);
        },
        [](const int&, std::vector<int>*, Job::ReduceContext* ctx) {
          ctx->clock().Charge(100.0);
        },
        cluster);
  };
  const auto plain = run(false);
  const auto spec = run(true);
  // The timing model improves; the data plane is untouched.
  EXPECT_LT(spec.timing.end, plain.timing.end);
  EXPECT_EQ(spec.outputs, plain.outputs);
  EXPECT_GE(spec.counters.Get("mr.speculative_wins"), 1);
  EXPECT_EQ(spec.counters.Get("mr.speculative_wins"),
            spec.counters.Get("mr.speculative_launched"));
  EXPECT_EQ(plain.counters.Get("mr.speculative_wins"), 0);
  testing_util::ValidateAttemptSchedule(spec.timing.reduce_attempts, 4,
                                        spec.timing.map_end, spec.timing.end);
}

}  // namespace
}  // namespace progres
