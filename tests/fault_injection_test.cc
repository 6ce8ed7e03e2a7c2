// Deterministic fault-injection tests for the MapReduce runtime: injected
// map/reduce attempt failures at every attempt index must leave outputs,
// per-task stats and non-"mr." counters byte-identical to a fault-free run,
// exhausting max_attempts must fail the job cleanly, and the fault plan must
// compose with the end-to-end ER jobs (which reset their external per-task
// sinks through the task-state hook).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "core/stats_job.h"
#include "datagen/generators.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"
#include "mechanism/sorted_neighbor.h"
#include "mr_test_util.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;
using testing_util::ValidateAttemptSchedule;

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

// A job exercising every hook the ER drivers rely on: custom partitioner,
// per-record + manual cost, counters, a reduce cleanup that emits, and
// (with `sinks`) the task-state hook over external per-task sinks.
// Deterministic for a fixed input.
using Job = MapReduceJob<int, int, int>;

Job::Result RunHookedJob(const ClusterConfig& cluster,
                         std::vector<std::vector<int>>* sinks = nullptr) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);

  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  job.set_reduce_cleanup([](Job::ReduceContext* ctx) {
    ctx->clock().Charge(2.0);
    ctx->Emit(-1, ctx->task_id());
  });
  if (sinks != nullptr) {
    sinks->assign(kReduceTasks, {});
    // No checkpointing, so the save half never runs: every attempt starts
    // from an empty sink.
    job.set_task_state(nullptr, [sinks](int task_id, const void* snapshot) {
      EXPECT_EQ(snapshot, nullptr);
      (*sinks)[static_cast<size_t>(task_id)].clear();
    });
  }
  return job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->counters().Increment("map.records");
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 11, record);
        if (record % 2 == 0) ctx->Emit(record % 5, 1);
      },
      [sinks](const int& key, std::vector<int>* values,
              Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->counters().Increment("reduce.groups");
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
        if (sinks != nullptr) {
          (*sinks)[static_cast<size_t>(ctx->task_id())].push_back(sum);
        }
      },
      cluster);
}

void ExpectSameModuloFaults(const Job::Result& expected,
                            const Job::Result& actual) {
  EXPECT_FALSE(actual.failed) << actual.error;
  EXPECT_EQ(actual.outputs, expected.outputs);
  EXPECT_EQ(CountersMinusMr(actual.counters),
            CountersMinusMr(expected.counters));
  ASSERT_EQ(actual.map_stats.size(), expected.map_stats.size());
  for (size_t t = 0; t < expected.map_stats.size(); ++t) {
    EXPECT_DOUBLE_EQ(actual.map_stats[t].cost, expected.map_stats[t].cost);
    EXPECT_EQ(actual.map_stats[t].records_in, expected.map_stats[t].records_in);
    EXPECT_EQ(actual.map_stats[t].pairs_out, expected.map_stats[t].pairs_out);
  }
  ASSERT_EQ(actual.reduce_stats.size(), expected.reduce_stats.size());
  for (size_t t = 0; t < expected.reduce_stats.size(); ++t) {
    EXPECT_DOUBLE_EQ(actual.reduce_stats[t].cost,
                     expected.reduce_stats[t].cost);
  }
}

TEST(FaultInjectionTest, MapFailuresAtEveryAttemptIndex) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  for (int task = 0; task < kMapTasks; ++task) {
    for (int failures = 1; failures <= 3; ++failures) {  // max_attempts=4
      FaultConfig fault;
      fault.enabled = true;
      fault.max_attempts = 4;
      for (int a = 0; a < failures; ++a) {
        fault.injected.push_back({TaskPhase::kMap, task, a});
      }
      const Job::Result run = RunHookedJob(TestCluster(fault));
      ExpectSameModuloFaults(baseline, run);
      EXPECT_EQ(run.counters.Get("mr.failed_attempts"), failures);
      EXPECT_EQ(run.counters.Get("mr.attempts"),
                kMapTasks + kReduceTasks + failures);
    }
  }
}

TEST(FaultInjectionTest, ReduceFailuresAtEveryAttemptIndex) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  for (int task = 0; task < kReduceTasks; ++task) {
    for (int failures = 1; failures <= 3; ++failures) {
      FaultConfig fault;
      fault.enabled = true;
      fault.max_attempts = 4;
      for (int a = 0; a < failures; ++a) {
        fault.injected.push_back({TaskPhase::kReduce, task, a});
      }
      const Job::Result run = RunHookedJob(TestCluster(fault));
      ExpectSameModuloFaults(baseline, run);
      EXPECT_EQ(run.counters.Get("mr.failed_attempts"), failures);
    }
  }
}

TEST(FaultInjectionTest, SeededFailuresAcrossBothPhases) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultConfig fault;
    fault.enabled = true;
    fault.seed = seed;
    fault.map_failure_prob = 0.4;
    fault.reduce_failure_prob = 0.4;
    fault.max_attempts = 12;
    const Job::Result run = RunHookedJob(TestCluster(fault));
    ExpectSameModuloFaults(baseline, run);
    EXPECT_GE(run.counters.Get("mr.attempts"), kMapTasks + kReduceTasks);
    ValidateAttemptSchedule(run.timing.map_attempts, kMapTasks,
                            run.timing.start, run.timing.map_end);
    ValidateAttemptSchedule(run.timing.reduce_attempts, kReduceTasks,
                            run.timing.map_end, run.timing.end);
  }
}

TEST(FaultInjectionTest, RetriesDelayTheSimulatedClockOnly) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.injected.push_back({TaskPhase::kMap, 0, 0});
  fault.injected.push_back({TaskPhase::kReduce, 1, 0});
  const Job::Result run = RunHookedJob(TestCluster(fault));
  ExpectSameModuloFaults(baseline, run);
  // Failed attempts occupy slots, so the makespan can only grow.
  EXPECT_GE(run.timing.end, baseline.timing.end);
  EXPECT_EQ(run.timing.map_attempts.size(),
            baseline.timing.map_attempts.size() + 1);
  EXPECT_EQ(run.timing.reduce_attempts.size(),
            baseline.timing.reduce_attempts.size() + 1);
}

TEST(FaultInjectionTest, DeterministicAttemptScheduleAcrossRuns) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 99;
  fault.map_failure_prob = 0.5;
  fault.reduce_failure_prob = 0.5;
  fault.max_attempts = 10;
  const Job::Result a = RunHookedJob(TestCluster(fault));
  const Job::Result b = RunHookedJob(TestCluster(fault));
  EXPECT_EQ(a.outputs, b.outputs);
  ASSERT_EQ(a.timing.map_attempts.size(), b.timing.map_attempts.size());
  for (size_t i = 0; i < a.timing.map_attempts.size(); ++i) {
    EXPECT_EQ(a.timing.map_attempts[i].task, b.timing.map_attempts[i].task);
    EXPECT_EQ(a.timing.map_attempts[i].slot, b.timing.map_attempts[i].slot);
    EXPECT_DOUBLE_EQ(a.timing.map_attempts[i].start,
                     b.timing.map_attempts[i].start);
    EXPECT_DOUBLE_EQ(a.timing.map_attempts[i].end,
                     b.timing.map_attempts[i].end);
  }
  EXPECT_DOUBLE_EQ(a.timing.end, b.timing.end);
}

TEST(FaultInjectionTest, ExceedingMaxAttemptsFailsMapJobCleanly) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 3;
  for (int a = 0; a < 3; ++a) {
    fault.injected.push_back({TaskPhase::kMap, 1, a});
  }
  const Job::Result run = RunHookedJob(TestCluster(fault));
  EXPECT_TRUE(run.failed);
  EXPECT_NE(run.error.find("map task 1"), std::string::npos) << run.error;
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_EQ(run.counters.Get("mr.failed_attempts"), 3);
}

TEST(FaultInjectionTest, ExceedingMaxAttemptsFailsReduceJobCleanly) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 2;
  fault.reduce_failure_prob = 1.0;  // every reduce attempt dies
  const Job::Result run = RunHookedJob(TestCluster(fault));
  EXPECT_TRUE(run.failed);
  EXPECT_NE(run.error.find("reduce task"), std::string::npos) << run.error;
  EXPECT_TRUE(run.outputs.empty());
}

TEST(FaultInjectionTest, TaskStateHookResetsExternalSinks) {
  std::vector<std::vector<int>> clean_sinks;
  const Job::Result baseline = RunHookedJob(TestCluster(), &clean_sinks);
  ASSERT_FALSE(baseline.failed);

  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 6;
  for (int task = 0; task < kReduceTasks; ++task) {
    for (int a = 0; a < 2; ++a) {
      fault.injected.push_back({TaskPhase::kReduce, task, a});
    }
  }
  std::vector<std::vector<int>> faulty_sinks;
  const Job::Result run = RunHookedJob(TestCluster(fault), &faulty_sinks);
  ExpectSameModuloFaults(baseline, run);
  // Without the task-state hook the failed attempts would have left
  // partial sums behind; with it the external sinks match exactly.
  EXPECT_EQ(faulty_sinks, clean_sinks);
}

// ---- End-to-end: the ER jobs survive injected failures unchanged ----

TEST(FaultInjectionTest, StatisticsJobSurvivesFaults) {
  PublicationConfig gen;
  gen.num_entities = 1200;
  gen.seed = 17;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config(
      {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3}, -1}});

  const StatsJobOutput clean =
      RunStatisticsJob(data.dataset, config, TestCluster(), 5, 4);
  ASSERT_FALSE(clean.failed);

  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 3;
  fault.map_failure_prob = 0.3;
  fault.reduce_failure_prob = 0.3;
  fault.max_attempts = 10;
  const StatsJobOutput faulty =
      RunStatisticsJob(data.dataset, config, TestCluster(fault), 5, 4);
  ASSERT_FALSE(faulty.failed) << faulty.error;

  ASSERT_EQ(faulty.forests.size(), clean.forests.size());
  for (size_t f = 0; f < clean.forests.size(); ++f) {
    ASSERT_EQ(faulty.forests[f].nodes.size(), clean.forests[f].nodes.size());
    for (size_t n = 0; n < clean.forests[f].nodes.size(); ++n) {
      const BlockNode& expected = clean.forests[f].nodes[n];
      const BlockNode& got = faulty.forests[f].nodes[n];
      EXPECT_EQ(got.id.path, expected.id.path);
      EXPECT_EQ(got.size, expected.size);
      EXPECT_EQ(got.uncov, expected.uncov);
      EXPECT_EQ(got.parent, expected.parent);
    }
  }
  // Retries can only push the simulated completion later.
  EXPECT_GE(faulty.timing.end, clean.timing.end);
}

TEST(FaultInjectionTest, ProgressiveErSurvivesFaultsWithIdenticalDuplicates) {
  PublicationConfig gen;
  gen.num_entities = 1500;
  gen.seed = 23;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = 500;
  train_gen.seed = 24;
  const LabeledDataset train = GeneratePublications(train_gen);

  const BlockingConfig blocking({{"X", kPubTitle, {2, 4}, -1},
                                 {"Y", kPubVenue, {3}, -1}});
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
  const ErRunResult clean =
      ProgressiveEr(blocking, match, sn, prob, options).Run(data.dataset);
  ASSERT_FALSE(clean.failed);

  ProgressiveErOptions faulty_options = options;
  faulty_options.cluster.fault.enabled = true;
  faulty_options.cluster.fault.seed = 7;
  faulty_options.cluster.fault.map_failure_prob = 0.25;
  faulty_options.cluster.fault.reduce_failure_prob = 0.25;
  faulty_options.cluster.fault.max_attempts = 10;
  const ErRunResult faulty =
      ProgressiveEr(blocking, match, sn, prob, faulty_options)
          .Run(data.dataset);
  ASSERT_FALSE(faulty.failed) << faulty.error;

  // Values identical: same duplicates, same resolution outcome counts.
  EXPECT_EQ(faulty.duplicates, clean.duplicates);
  EXPECT_EQ(faulty.duplicate_count, clean.duplicate_count);
  EXPECT_EQ(faulty.comparisons, clean.comparisons);
  EXPECT_EQ(faulty.skipped_count, clean.skipped_count);
  EXPECT_EQ(CountersMinusMr(faulty.counters), CountersMinusMr(clean.counters));
  // Timing shifted (never earlier) by the injected retries.
  EXPECT_GE(faulty.total_time, clean.total_time);
  ASSERT_EQ(faulty.events.size(), clean.events.size());
  for (size_t i = 0; i < clean.events.size(); ++i) {
    EXPECT_EQ(faulty.events[i].pair, clean.events[i].pair);
    EXPECT_GE(faulty.events[i].time, clean.events[i].time);
  }

  // Checkpointed recovery under the same fault plan: identical duplicates
  // again, but re-attempts resume from their last alpha-boundary snapshot
  // instead of replaying, so strictly less work is repeated.
  ProgressiveErOptions resumed_options = faulty_options;
  resumed_options.checkpoint_recovery = true;
  const ErRunResult resumed =
      ProgressiveEr(blocking, match, sn, prob, resumed_options)
          .Run(data.dataset);
  ASSERT_FALSE(resumed.failed) << resumed.error;
  EXPECT_EQ(resumed.duplicates, clean.duplicates);
  EXPECT_EQ(resumed.duplicate_count, clean.duplicate_count);
  EXPECT_EQ(resumed.comparisons, clean.comparisons);
  EXPECT_EQ(CountersMinusMr(resumed.counters),
            CountersMinusMr(clean.counters));
  EXPECT_GT(resumed.counters.Get("mr.checkpoint.saved"), 0);
  EXPECT_LE(resumed.counters.Get("mr.recovery.replayed_pairs"),
            faulty.counters.Get("mr.recovery.replayed_pairs"));
  EXPECT_LE(resumed.total_time, faulty.total_time);
}

TEST(FaultInjectionTest, ProgressiveErPropagatesJobFailure) {
  const LabeledDataset toy = GeneratePeopleToy();
  const BlockingConfig blocking({{"X", 0, {2}, -1}});
  const MatchFunction match(
      {{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.75);
  const ProbabilityModel prob;
  const SortedNeighborMechanism sn;

  ProgressiveErOptions options;
  options.cluster = TestCluster();
  options.cluster.fault.enabled = true;
  options.cluster.fault.max_attempts = 2;
  options.cluster.fault.map_failure_prob = 1.0;  // unrecoverable
  const ErRunResult result =
      ProgressiveEr(blocking, match, sn, prob, options).Run(toy.dataset);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.duplicates.empty());
}

}  // namespace
}  // namespace progres
