#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/checkpoint.h"
#include "mapreduce/counters.h"
#include "mapreduce/job.h"
#include "test_overlays.h"

namespace progres {
namespace {

TEST(CountersTest, IncrementAndGet) {
  Counters counters;
  EXPECT_EQ(counters.Get("x"), 0);
  counters.Increment("x");
  counters.Increment("x", 4);
  EXPECT_EQ(counters.Get("x"), 5);
  EXPECT_EQ(counters.Get("absent"), 0);
}

TEST(CountersTest, MergeSums) {
  Counters a;
  Counters b;
  a.Increment("shared", 2);
  b.Increment("shared", 3);
  b.Increment("only_b", 7);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get("shared"), 5);
  EXPECT_EQ(a.Get("only_b"), 7);
}

ClusterConfig TestCluster() {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  testing_util::ApplyTestOverlays(&cluster);
  return cluster;
}

// The forced-spill variant of this suite checks the spill counters only if
// TestCluster() really spills under it.
TEST(TestOverlayTest, TestClusterSpillsUnderForcedSpillOverlay) {
  if (!testing_util::ForcedSpillOverlayActive()) {
    GTEST_SKIP() << "PROGRES_FORCE_SPILL not set";
  }
  using Job = MapReduceJob<int, int, int>;
  std::vector<int> input;
  for (int i = 0; i < 5000; ++i) input.push_back(i);
  Job job(3, 2);
  const auto result = job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int&, std::vector<int>*, Job::ReduceContext*) {},
      TestCluster());
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_GT(result.counters.Get("mr.spill.runs"), 0);
}

TEST(JobCountersTest, MergedAcrossTasks) {
  using Job = MapReduceJob<int, int, int>;
  Job job(3, 2);
  std::vector<int> input = {1, 2, 3, 4, 5, 6};
  const auto result = job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->counters().Increment("map.records");
        ctx->Emit(record % 2, record);
      },
      [](const int&, std::vector<int>* values, Job::ReduceContext* ctx) {
        ctx->counters().Increment("reduce.values",
                                  static_cast<int64_t>(values->size()));
      },
      TestCluster());
  EXPECT_EQ(result.counters.Get("map.records"), 6);
  EXPECT_EQ(result.counters.Get("reduce.values"), 6);
}

TEST(JobCountersTest, UserCountersIndependentOfReservedOnes) {
  // User counters and the runtime's reserved "mr." bookkeeping live in the
  // same namespace but never interfere: the runtime only increments "mr."
  // names, and merging tasks sums the two families independently.
  using Job = MapReduceJob<int, int, int>;
  Job job(2, 2);
  std::vector<int> input = {1, 2, 3, 4};
  const auto result = job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->counters().Increment("user.map", 10);
        ctx->Emit(record, record);
      },
      [](const int&, std::vector<int>*, Job::ReduceContext* ctx) {
        ctx->counters().Increment("user.reduce", 100);
      },
      TestCluster());
  // The user's counters hold exactly what the tasks put there...
  EXPECT_EQ(result.counters.Get("user.map"), 40);
  EXPECT_EQ(result.counters.Get("user.reduce"), 400);
  // ...and the runtime's bookkeeping landed only under "mr.".
  EXPECT_EQ(result.counters.Get("mr.attempts"), 4);  // 2 map + 2 reduce tasks
  EXPECT_EQ(result.counters.Get("mr.failed_attempts"), 0);
  EXPECT_EQ(result.counters.Get("mr.shuffle.records"), 4);
  // Each pair encodes as a one-byte key and a one-byte value.
  EXPECT_EQ(result.counters.Get("mr.shuffle.bytes"), 8);
  for (const auto& [name, value] : result.counters.values()) {
    if (name.rfind("mr.", 0) == 0) continue;
    EXPECT_TRUE(name.rfind("user.", 0) == 0) << name;
  }
}

TEST(JobCountersTest, RetriedAttemptsDoNotDoubleCountUserCounters) {
  // A failed attempt's user counters must be discarded with the attempt —
  // the job-wide totals count each record/value exactly once, for scratch
  // retries and checkpoint-resumed retries alike.
  using Job = MapReduceJob<int, int, int>;
  const auto run = [](const ClusterConfig& cluster, CheckpointStore* store) {
    Job job(2, 2);
    if (store != nullptr) job.set_checkpointing(5.0, store);
    std::vector<int> input;
    for (int i = 0; i < 60; ++i) input.push_back(i);
    return job.Run(
        input,
        [](const int& record, Job::MapContext* ctx) {
          ctx->counters().Increment("user.map_records");
          ctx->Emit(record % 6, record);
        },
        [](const int&, std::vector<int>* values, Job::ReduceContext* ctx) {
          ctx->counters().Increment("user.reduce_values",
                                    static_cast<int64_t>(values->size()));
          ctx->clock().Charge(static_cast<double>(values->size()));
        },
        cluster);
  };

  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 5;
  for (int task = 0; task < 2; ++task) {
    fault.injected.push_back({TaskPhase::kMap, task, 0});
    fault.injected.push_back({TaskPhase::kReduce, task, 0});
    fault.injected.push_back({TaskPhase::kReduce, task, 1});
  }
  ClusterConfig faulty = TestCluster();
  faulty.fault = fault;

  const auto clean = run(TestCluster(), nullptr);
  const auto scratch = run(faulty, nullptr);
  CheckpointStore store;
  const auto resumed = run(faulty, &store);

  ASSERT_FALSE(scratch.failed) << scratch.error;
  ASSERT_FALSE(resumed.failed) << resumed.error;
  EXPECT_EQ(clean.counters.Get("user.map_records"), 60);
  EXPECT_EQ(clean.counters.Get("user.reduce_values"), 60);
  EXPECT_EQ(scratch.counters.Get("user.map_records"), 60);
  EXPECT_EQ(scratch.counters.Get("user.reduce_values"), 60);
  EXPECT_EQ(resumed.counters.Get("user.map_records"), 60);
  EXPECT_EQ(resumed.counters.Get("user.reduce_values"), 60);
  // The retries themselves are visible — but only under "mr.".
  EXPECT_GE(scratch.counters.Get("mr.failed_attempts"), 6);
  EXPECT_GE(resumed.counters.Get("mr.failed_attempts"), 6);
}

TEST(JobCountersTest, ShuffleAccountingSkipsEmptyPartitions) {
  // A partitioner that routes everything to reduce task 0 leaves the other
  // partitions empty: byte accounting must count only the pairs that
  // actually cross the shuffle, and empty partitions contribute nothing.
  using Job = MapReduceJob<int, int, int>;
  Job job(2, 4);
  job.set_partitioner([](const int&, int) { return 0; });
  std::vector<int> input = {1, 2, 3, 4, 5};
  const auto result = job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int&, std::vector<int>*, Job::ReduceContext* ctx) {
        ctx->counters().Increment("reduce.groups");
      },
      TestCluster());
  ASSERT_FALSE(result.failed);
  EXPECT_EQ(result.counters.Get("mr.shuffle.records"), 5);
  EXPECT_EQ(result.counters.Get("mr.shuffle.bytes"), 10);  // 2 bytes a pair
  EXPECT_EQ(result.counters.Get("reduce.groups"), 5);
  // All four reduce tasks ran; three saw no input.
  ASSERT_EQ(result.reduce_stats.size(), 4u);
  EXPECT_EQ(result.reduce_stats[0].records_in, 5);
  for (size_t t = 1; t < 4; ++t) {
    EXPECT_EQ(result.reduce_stats[t].records_in, 0);
  }
}

TEST(JobCleanupTest, RunsOncePerReduceTask) {
  using Job = MapReduceJob<int, int, int>;
  Job job(2, 3);
  std::mutex mu;
  std::vector<int> cleaned;
  job.set_reduce_cleanup([&](Job::ReduceContext* ctx) {
    std::lock_guard<std::mutex> lock(mu);
    cleaned.push_back(ctx->task_id());
    ctx->Emit(-1, ctx->task_id());
  });
  const auto result = job.Run(
      std::vector<int>{1, 2, 3, 4},
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int&, std::vector<int>*, Job::ReduceContext*) {},
      TestCluster());
  EXPECT_EQ(cleaned.size(), 3u);
  // Cleanup emissions land in the outputs.
  int cleanup_outputs = 0;
  for (const auto& [k, v] : result.outputs) {
    if (k == -1) ++cleanup_outputs;
  }
  EXPECT_EQ(cleanup_outputs, 3);
}

}  // namespace
}  // namespace progres
