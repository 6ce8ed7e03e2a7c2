#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/cluster.h"
#include "mapreduce/cost_clock.h"
#include "mapreduce/job.h"
#include "test_overlays.h"

namespace progres {
namespace {

// ------------------------------------------------------------ cost clock

TEST(CostClockTest, Accumulates) {
  CostClock clock;
  clock.Charge(1.5);
  clock.Charge(2.5);
  EXPECT_DOUBLE_EQ(clock.units(), 4.0);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.units(), 0.0);
}

// ------------------------------------------------------------ scheduler

// FIFO schedule of single-attempt tasks on `slots` unit-speed slots.
AttemptScheduleOutcome ScheduleOnSlots(const std::vector<double>& costs,
                                       int slots, double start_time,
                                       double seconds_per_cost_unit) {
  std::vector<std::vector<double>> chains;
  for (const double cost : costs) chains.push_back({cost});
  AttemptScheduleOptions options;
  options.slot_speeds.assign(static_cast<size_t>(slots), 1.0);
  options.start_time = start_time;
  options.seconds_per_cost_unit = seconds_per_cost_unit;
  return ScheduleTaskAttemptsOnCluster(chains, options);
}

TEST(ScheduleTasksTest, SingleSlotSerializes) {
  const AttemptScheduleOutcome schedule =
      ScheduleOnSlots({10.0, 20.0, 30.0}, 1, 5.0, 1.0);
  const std::vector<double>& starts = schedule.winning_starts;
  EXPECT_DOUBLE_EQ(starts[0], 5.0);
  EXPECT_DOUBLE_EQ(starts[1], 15.0);
  EXPECT_DOUBLE_EQ(starts[2], 35.0);
  EXPECT_DOUBLE_EQ(schedule.end_time, 65.0);
}

TEST(ScheduleTasksTest, ParallelSlotsStartTogether) {
  const AttemptScheduleOutcome schedule =
      ScheduleOnSlots({10.0, 20.0}, 2, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(schedule.winning_starts[0], 0.0);
  EXPECT_DOUBLE_EQ(schedule.winning_starts[1], 0.0);
  EXPECT_DOUBLE_EQ(schedule.end_time, 20.0);
}

TEST(ScheduleTasksTest, WavesUseFreedSlots) {
  // Two slots, three tasks: the third starts when the first finishes.
  const AttemptScheduleOutcome schedule =
      ScheduleOnSlots({5.0, 50.0, 5.0}, 2, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(schedule.winning_starts[2], 5.0);
  EXPECT_DOUBLE_EQ(schedule.end_time, 50.0);
}

TEST(ScheduleTasksTest, CostUnitsScaleTime) {
  EXPECT_DOUBLE_EQ(ScheduleOnSlots({100.0}, 1, 0.0, 0.01).end_time, 1.0);
}

TEST(ScheduleTasksTest, EmptyTaskList) {
  const AttemptScheduleOutcome schedule = ScheduleOnSlots({}, 4, 3.0, 1.0);
  EXPECT_TRUE(schedule.winning_starts.empty());
  EXPECT_DOUBLE_EQ(schedule.end_time, 3.0);
}

// ------------------------------------------------------------ MR runtime

ClusterConfig TestCluster() {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.seconds_per_cost_unit = 1.0;
  testing_util::ApplyTestOverlays(&cluster);
  return cluster;
}

// The forced-spill variant of this suite tests the out-of-core path only if
// TestCluster() really spills under it.
TEST(TestOverlayTest, TestClusterSpillsUnderForcedSpillOverlay) {
  if (!testing_util::ForcedSpillOverlayActive()) {
    GTEST_SKIP() << "PROGRES_FORCE_SPILL not set";
  }
  using Job = MapReduceJob<int, int, int>;
  std::vector<int> input;
  for (int i = 0; i < 5000; ++i) input.push_back(i);
  Job job(2, 2);
  const auto result = job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
        ctx->Emit(key, static_cast<int>(values->size()));
      },
      TestCluster());
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_GT(result.counters.Get("mr.spill.runs"), 0);
}

TEST(MapReduceJobTest, WordCount) {
  using Job = MapReduceJob<std::string, std::string, int>;
  const std::vector<std::string> input = {"a b a", "b c", "a"};
  Job job(2, 2);
  const auto result = job.Run(
      input,
      [](const std::string& line, Job::MapContext* ctx) {
        size_t start = 0;
        while (start < line.size()) {
          size_t end = line.find(' ', start);
          if (end == std::string::npos) end = line.size();
          ctx->Emit(line.substr(start, end - start), 1);
          start = end + 1;
        }
      },
      [](const std::string& key, std::vector<int>* values,
         Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->Emit(key, sum);
      },
      TestCluster());

  std::map<std::string, int> counts;
  for (const auto& [k, v] : result.outputs) counts[k] = v;
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
}

TEST(MapReduceJobTest, ReduceSeesKeysInSortedOrder) {
  using Job = MapReduceJob<int, int, int>;
  std::vector<int> input;
  for (int i = 0; i < 100; ++i) input.push_back(99 - i);
  Job job(4, 1);  // single reduce task: global order check
  std::vector<int> seen;
  job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [&seen](const int& key, std::vector<int>* /*values*/,
              Job::ReduceContext* /*ctx*/) { seen.push_back(key); },
      TestCluster());
  ASSERT_EQ(seen.size(), 100u);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i - 1], seen[i]);
}

TEST(MapReduceJobTest, PartitionerRoutesKeys) {
  using Job = MapReduceJob<int, int, int>;
  Job job(2, 4);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  std::vector<int> task_of_key(16, -1);
  std::mutex mu;
  job.Run(
      std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 0); },
      [&](const int& key, std::vector<int>* /*values*/,
          Job::ReduceContext* ctx) {
        std::lock_guard<std::mutex> lock(mu);
        task_of_key[static_cast<size_t>(key)] = ctx->task_id();
      },
      TestCluster());
  for (int k = 0; k < 16; ++k) EXPECT_EQ(task_of_key[static_cast<size_t>(k)], k % 4);
}

TEST(MapReduceJobTest, GroupsAllValuesOfAKey) {
  using Job = MapReduceJob<int, int, int>;
  Job job(3, 2);
  std::mutex mu;
  std::map<int, size_t> group_sizes;
  std::vector<int> input;
  for (int i = 0; i < 60; ++i) input.push_back(i % 5);
  job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, record); },
      [&](const int& key, std::vector<int>* values, Job::ReduceContext*) {
        std::lock_guard<std::mutex> lock(mu);
        group_sizes[key] = values->size();
      },
      TestCluster());
  for (int k = 0; k < 5; ++k) EXPECT_EQ(group_sizes[k], 12u);
}

TEST(MapReduceJobTest, CostChargedPerRecordAndManually) {
  using Job = MapReduceJob<int, int, int>;
  Job job(1, 1);
  job.set_map_cost_per_record(2.0);
  const auto result = job.Run(
      std::vector<int>{1, 2, 3},
      [](const int& record, Job::MapContext* ctx) {
        ctx->clock().Charge(0.5);
        ctx->Emit(record, 1);
      },
      [](const int&, std::vector<int>*, Job::ReduceContext* ctx) {
        ctx->clock().Charge(10.0);
      },
      TestCluster());
  ASSERT_EQ(result.map_stats.size(), 1u);
  EXPECT_DOUBLE_EQ(result.map_stats[0].cost, 3 * 2.0 + 3 * 0.5);
  ASSERT_EQ(result.reduce_stats.size(), 1u);
  EXPECT_DOUBLE_EQ(result.reduce_stats[0].cost, 30.0);
}

TEST(MapReduceJobTest, TimingIsConsistent) {
  using Job = MapReduceJob<int, int, int>;
  Job job(2, 2);
  const auto result = job.Run(
      std::vector<int>{1, 2, 3, 4},
      [](const int& record, Job::MapContext* ctx) { ctx->Emit(record, 1); },
      [](const int&, std::vector<int>*, Job::ReduceContext* ctx) {
        ctx->clock().Charge(7.0);
      },
      TestCluster(), /*submit_time=*/100.0);
  EXPECT_DOUBLE_EQ(result.timing.start, 100.0);
  EXPECT_GE(result.timing.map_end, 100.0);
  for (double start : result.timing.reduce_start) {
    EXPECT_GE(start, result.timing.map_end);
  }
  EXPECT_GE(result.timing.end, result.timing.map_end);
}

TEST(MapReduceJobTest, DeterministicAcrossRuns) {
  using Job = MapReduceJob<int, int, int>;
  std::vector<int> input;
  for (int i = 0; i < 500; ++i) input.push_back(i * 37 % 101);
  const auto run_once = [&input]() {
    Job job(4, 3);
    return job.Run(
        input,
        [](const int& record, Job::MapContext* ctx) {
          ctx->Emit(record % 10, record);
        },
        [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
          int sum = 0;
          for (int v : *values) sum += v;
          ctx->Emit(key, sum);
        },
        TestCluster());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.outputs, b.outputs);
  for (size_t i = 0; i < a.reduce_stats.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.reduce_stats[i].cost, b.reduce_stats[i].cost);
  }
}

TEST(ClusterConfigTest, SlotCounts) {
  ClusterConfig cluster;
  cluster.machines = 10;
  cluster.map_slots_per_machine = 2;
  cluster.reduce_slots_per_machine = 2;
  EXPECT_EQ(cluster.map_slots(), 20);
  EXPECT_EQ(cluster.reduce_slots(), 20);
}

}  // namespace
}  // namespace progres
