// Checkpointed progressive recovery: reduce tasks snapshot at each
// alpha-emission boundary, re-attempts restore the latest snapshot and
// resume mid-schedule, outputs stay byte-identical to a fault-free run, and
// the replayed work (pairs and simulated time) is strictly smaller than
// with from-scratch retries.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/checkpoint.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"
#include "mr_test_util.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;

// ---- CheckpointStore unit tests ----

TEST(CheckpointStoreTest, SavesLatestAndKeepsRecoveryPoints) {
  CheckpointStore store;
  store.Reset(2);
  EXPECT_EQ(store.num_tasks(), 2);
  EXPECT_EQ(store.Latest(0), nullptr);

  TaskCheckpoint first;
  first.cost = 10.0;
  first.groups = 2;
  store.Save(0, first);
  TaskCheckpoint second;
  second.cost = 25.0;
  second.groups = 5;
  store.Save(0, second);

  ASSERT_NE(store.Latest(0), nullptr);
  EXPECT_DOUBLE_EQ(store.Latest(0)->cost, 25.0);
  EXPECT_EQ(store.Latest(0)->groups, 5);
  EXPECT_EQ(store.Latest(1), nullptr);
  const std::vector<double>& points = store.RecoveryPoints(0);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0], 10.0);
  EXPECT_DOUBLE_EQ(points[1], 25.0);
  EXPECT_EQ(store.saved(), 2);
}

TEST(CheckpointStoreTest, IgnoresNonAdvancingSaves) {
  CheckpointStore store;
  store.Reset(1);
  TaskCheckpoint checkpoint;
  checkpoint.cost = 10.0;
  store.Save(0, checkpoint);
  // A resumed attempt re-crossing the same boundary must not duplicate it.
  TaskCheckpoint stale;
  stale.cost = 10.0;
  store.Save(0, stale);
  stale.cost = 5.0;
  store.Save(0, stale);
  EXPECT_EQ(store.saved(), 1);
  EXPECT_EQ(store.RecoveryPoints(0).size(), 1u);
  EXPECT_DOUBLE_EQ(store.Latest(0)->cost, 10.0);
}

TEST(CheckpointStoreTest, ResetClearsSnapshotsAndTallies) {
  CheckpointStore store;
  store.Reset(1);
  TaskCheckpoint checkpoint;
  checkpoint.cost = 3.0;
  store.Save(0, checkpoint);
  store.NoteRestore(0);
  store.Reset(3);
  EXPECT_EQ(store.num_tasks(), 3);
  EXPECT_EQ(store.Latest(0), nullptr);
  EXPECT_EQ(store.saved(), 0);
  EXPECT_EQ(store.restored(), 0);
  EXPECT_TRUE(store.RecoveryPoints(0).empty());
}

TEST(CheckpointStoreTest, OutOfRangeTasksAreSafe) {
  CheckpointStore store;
  store.Reset(1);
  TaskCheckpoint checkpoint;
  store.Save(-1, checkpoint);
  store.Save(7, checkpoint);
  store.NoteRestore(9);
  EXPECT_EQ(store.Latest(-1), nullptr);
  EXPECT_EQ(store.Latest(7), nullptr);
  EXPECT_TRUE(store.RecoveryPoints(7).empty());
  EXPECT_EQ(store.saved(), 0);
  EXPECT_EQ(store.restored(), 0);
}

// ---- Job-level checkpointed recovery ----

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

// Reduce tasks see ~4 groups each, every group costing its value count; a
// small alpha yields several checkpoints per task.
Job::Result RunJob(const ClusterConfig& cluster, CheckpointStore* store,
                   double alpha) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);
  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  job.set_reduce_cleanup([](Job::ReduceContext* ctx) {
    ctx->clock().Charge(2.0);
    ctx->Emit(-1, ctx->task_id());
  });
  if (store != nullptr) {
    job.set_checkpointing(alpha, store);
  }
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
        ctx->counters().Increment("reduce.values",
                                  static_cast<int64_t>(values->size()));
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

FaultConfig ReduceFaults() {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 6;
  for (int task = 0; task < kReduceTasks; ++task) {
    fault.injected.push_back({TaskPhase::kReduce, task, 0});
    fault.injected.push_back({TaskPhase::kReduce, task, 1});
  }
  return fault;
}

TEST(JobCheckpointTest, FaultFreeCheckpointingOnlySavesSnapshots) {
  const Job::Result baseline = RunJob(TestCluster(), nullptr, 0.0);
  CheckpointStore store;
  const Job::Result checkpointed = RunJob(TestCluster(), &store, 10.0);
  ASSERT_FALSE(checkpointed.failed);
  EXPECT_EQ(checkpointed.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(checkpointed.counters),
            CountersMinusMr(baseline.counters));
  EXPECT_GT(checkpointed.counters.Get("mr.checkpoint.saved"), 0);
  EXPECT_EQ(checkpointed.counters.Get("mr.checkpoint.restored"), 0);
  // Fault-free: nothing re-executed, identical timeline.
  EXPECT_EQ(checkpointed.counters.values().count("mr.recovery.replayed_pairs"),
            0u);
  EXPECT_DOUBLE_EQ(checkpointed.timing.end, baseline.timing.end);
}

TEST(JobCheckpointTest, ResumedRetriesMatchScratchOutputs) {
  const Job::Result baseline = RunJob(TestCluster(), nullptr, 0.0);
  ASSERT_FALSE(baseline.failed);

  const Job::Result scratch = RunJob(TestCluster(ReduceFaults()), nullptr,
                                     0.0);
  ASSERT_FALSE(scratch.failed) << scratch.error;
  CheckpointStore store;
  const Job::Result resumed =
      RunJob(TestCluster(ReduceFaults()), &store, 10.0);
  ASSERT_FALSE(resumed.failed) << resumed.error;

  // Data plane byte-identical across all three runs.
  EXPECT_EQ(scratch.outputs, baseline.outputs);
  EXPECT_EQ(resumed.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(resumed.counters),
            CountersMinusMr(baseline.counters));
  for (size_t t = 0; t < baseline.reduce_stats.size(); ++t) {
    EXPECT_DOUBLE_EQ(resumed.reduce_stats[t].cost,
                     baseline.reduce_stats[t].cost);
    EXPECT_EQ(resumed.reduce_stats[t].records_in,
              baseline.reduce_stats[t].records_in);
  }

  // Checkpoints were saved and restored...
  EXPECT_GT(resumed.counters.Get("mr.checkpoint.saved"), 0);
  EXPECT_GT(resumed.counters.Get("mr.checkpoint.restored"), 0);
  // ...and the retries re-processed strictly fewer input values than the
  // from-scratch runs of the same fault plan.
  const int64_t scratch_replayed =
      scratch.counters.Get("mr.recovery.replayed_pairs");
  const int64_t resumed_replayed =
      resumed.counters.Get("mr.recovery.replayed_pairs");
  EXPECT_GT(scratch_replayed, 0);
  EXPECT_LT(resumed_replayed, scratch_replayed);
  // Shorter re-runs can only shrink the simulated makespan.
  EXPECT_LE(resumed.timing.end, scratch.timing.end);
}

TEST(JobCheckpointTest, DriverStateHooksRoundTrip) {
  // External per-task state mirroring what the ER drivers keep: the job's
  // save hook snapshots it at each boundary, the restore hook rewinds it,
  // and after a faulty run it must match a clean run exactly.
  struct TaskState {
    std::vector<int> sums;
  };
  const auto run = [](const ClusterConfig& cluster, CheckpointStore* store,
                      std::vector<TaskState>* states) {
    std::vector<int> input;
    for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);
    Job job(kMapTasks, kReduceTasks);
    job.set_map_cost_per_record(0.5);
    job.set_partitioner([](const int& key, int r) { return key % r; });
    states->assign(kReduceTasks, {});
    job.set_task_state(
        [states](int task_id) -> std::shared_ptr<const void> {
          return std::make_shared<const TaskState>(
              (*states)[static_cast<size_t>(task_id)]);
        },
        [states](int task_id, const void* snapshot) {
          TaskState& state = (*states)[static_cast<size_t>(task_id)];
          state = snapshot == nullptr
                      ? TaskState()
                      : *static_cast<const TaskState*>(snapshot);
        });
    if (store != nullptr) job.set_checkpointing(10.0, store);
    return job.Run(
        input,
        [](const int& record, Job::MapContext* ctx) {
          ctx->Emit(record % 11, record);
        },
        [states](const int& key, std::vector<int>* values,
                 Job::ReduceContext* ctx) {
          int sum = 0;
          for (int v : *values) sum += v;
          ctx->clock().Charge(static_cast<double>(values->size()));
          (*states)[static_cast<size_t>(ctx->task_id())].sums.push_back(sum);
          ctx->Emit(key, sum);
        },
        cluster);
  };

  std::vector<TaskState> clean_states;
  const Job::Result clean = run(TestCluster(), nullptr, &clean_states);
  ASSERT_FALSE(clean.failed);

  std::vector<TaskState> faulty_states;
  CheckpointStore store;
  const Job::Result faulty =
      run(TestCluster(ReduceFaults()), &store, &faulty_states);
  ASSERT_FALSE(faulty.failed) << faulty.error;

  EXPECT_EQ(faulty.outputs, clean.outputs);
  ASSERT_EQ(faulty_states.size(), clean_states.size());
  for (size_t t = 0; t < clean_states.size(); ++t) {
    EXPECT_EQ(faulty_states[t].sums, clean_states[t].sums) << "task " << t;
  }
  EXPECT_GT(faulty.counters.Get("mr.checkpoint.restored"), 0);
}

TEST(JobCheckpointTest, StoreIsReusableAcrossRuns) {
  CheckpointStore store;
  const Job::Result first = RunJob(TestCluster(ReduceFaults()), &store, 10.0);
  const Job::Result second = RunJob(TestCluster(ReduceFaults()), &store, 10.0);
  ASSERT_FALSE(first.failed);
  ASSERT_FALSE(second.failed);
  EXPECT_EQ(second.outputs, first.outputs);
  EXPECT_EQ(second.counters.Get("mr.checkpoint.saved"),
            first.counters.Get("mr.checkpoint.saved"));
  EXPECT_EQ(second.counters.Get("mr.checkpoint.restored"),
            first.counters.Get("mr.checkpoint.restored"));
}

}  // namespace
}  // namespace progres
