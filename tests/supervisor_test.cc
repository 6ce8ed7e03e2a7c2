// Job-supervision tests (mapreduce/supervisor.h): the simulated deadline is
// enforced deterministically on both backends — hard failure without
// allow_degraded, checkpoint-or-cancel cuts with it; permanently failing
// tasks are quarantined into best-effort finalization; both rewinds leave
// external per-task state (set_task_state) holding exactly the delivered
// prefix; the retry-budget ledger caps attempts deterministically and a
// sufficient budget changes nothing; the disk breaker collapses per-task
// ENOSPC discovery into one failover; every "mr.supervisor.*" counter
// reconciles 1:1 against the kDeadlineCancel / kTaskQuarantine /
// kBreakerTrip trace spans; and with degradation disabled every
// hard-failure path keeps its labelled error.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"
#include "mapreduce/supervisor.h"
#include "mapreduce/trace.h"
#include "mechanism/sorted_neighbor.h"
#include "mr_test_util.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;

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

Job::Result RunHookedJob(const ClusterConfig& cluster) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);

  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  return job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 11, record);
      },
      [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

// A deadline strictly inside the reduce phase of `baseline`.
double MidReduceDeadline(const Job::Result& baseline) {
  return baseline.timing.map_end +
         (baseline.timing.end - baseline.timing.map_end) * 0.5;
}

struct SpanTally {
  int64_t deadline_cancels = 0;
  int64_t quarantines = 0;
  int64_t breaker_trips = 0;
};

SpanTally TallySupervisorSpans(const TraceRecorder& trace) {
  SpanTally tally;
  for (const TraceSpan& span : trace.spans()) {
    if (span.kind == SpanKind::kDeadlineCancel) ++tally.deadline_cancels;
    if (span.kind == SpanKind::kTaskQuarantine) ++tally.quarantines;
    if (span.kind == SpanKind::kBreakerTrip) ++tally.breaker_trips;
  }
  return tally;
}

// ---- Deadline enforcement ----

TEST(SupervisorTest, HardDeadlineFailureIsLabelled) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  ASSERT_FALSE(baseline.failed) << baseline.error;

  ClusterConfig cluster = TestCluster();
  cluster.control.deadline_seconds = MidReduceDeadline(baseline);
  const Job::Result run = RunHookedJob(cluster);
  EXPECT_TRUE(run.failed);
  EXPECT_NE(run.error.find("job deadline exceeded"), std::string::npos)
      << run.error;
  EXPECT_TRUE(run.outputs.empty());
  // A hard deadline failure reports no degradation — the job failed.
  EXPECT_FALSE(run.completeness.degraded);
}

TEST(SupervisorTest, DeadlineAtOrPastCompletionChangesNothing) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  ClusterConfig cluster = TestCluster();
  cluster.control.deadline_seconds = baseline.timing.end;
  cluster.control.allow_degraded = true;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_EQ(run.outputs, baseline.outputs);
  EXPECT_FALSE(run.completeness.degraded);
  EXPECT_DOUBLE_EQ(run.completeness.covered_fraction, 1.0);
}

TEST(SupervisorTest, DegradedDeadlineCancelsUncheckpointedTasks) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  ClusterConfig cluster = TestCluster();
  const double deadline = MidReduceDeadline(baseline);
  cluster.control.deadline_seconds = deadline;
  cluster.control.allow_degraded = true;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;

  // Some reduce task overran the deadline; without checkpoints its output
  // is cancelled outright.
  EXPECT_TRUE(run.completeness.degraded);
  EXPECT_LT(run.outputs.size(), baseline.outputs.size());
  EXPECT_DOUBLE_EQ(run.timing.end, deadline);
  EXPECT_GT(run.completeness.deadline_cancels, 0);
  EXPECT_LT(run.completeness.covered_fraction, 1.0);
  ASSERT_FALSE(run.completeness.tasks.empty());
  for (const TaskReport& task : run.completeness.tasks) {
    EXPECT_EQ(task.phase, TaskPhase::kReduce);
    EXPECT_EQ(task.kind, TaskOutcomeKind::kCancelled);
    EXPECT_EQ(task.records_covered, 0);
    EXPECT_GT(task.records_total, 0);
  }
  EXPECT_EQ(run.counters.Get("mr.supervisor.deadline_cancels"),
            run.completeness.deadline_cancels);

  // Deterministic: an identical configuration cuts identically.
  const Job::Result rerun = RunHookedJob(cluster);
  ASSERT_FALSE(rerun.failed) << rerun.error;
  EXPECT_EQ(rerun.outputs, run.outputs);
  EXPECT_EQ(rerun.completeness.ToString(), run.completeness.ToString());
}

TEST(SupervisorTest, DegradedDeadlineIdenticalAcrossBackends) {
  const Job::Result baseline = RunHookedJob(TestCluster());
  ClusterConfig cluster = TestCluster();
  cluster.control.deadline_seconds = MidReduceDeadline(baseline);
  cluster.control.allow_degraded = true;
  const Job::Result simulated = RunHookedJob(cluster);
  ASSERT_FALSE(simulated.failed) << simulated.error;
  ASSERT_TRUE(simulated.completeness.degraded);

  cluster.backend = ExecutionBackend::kThreaded;
  const Job::Result threaded = RunHookedJob(cluster);
  ASSERT_FALSE(threaded.failed) << threaded.error;
  EXPECT_EQ(threaded.outputs, simulated.outputs);
  EXPECT_EQ(threaded.completeness.ToString(),
            simulated.completeness.ToString());
  for (const char* name :
       {"mr.supervisor.deadline_cancels", "mr.supervisor.quarantined_tasks",
        "mr.supervisor.breaker_trips", "mr.supervisor.retries_denied"}) {
    EXPECT_EQ(threaded.counters.Get(name), simulated.counters.Get(name))
        << name;
  }
}

// ---- Task quarantine ----

TEST(SupervisorTest, DoomedReduceTaskQuarantinesIntoBestEffortSuccess) {
  const Job::Result baseline = RunHookedJob(TestCluster());

  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 2;
  fault.injected.push_back({TaskPhase::kReduce, 1, 0});
  fault.injected.push_back({TaskPhase::kReduce, 1, 1});

  // Negative path first: with degradation disabled the retry-exhaustion
  // error keeps its exact label.
  const Job::Result hard = RunHookedJob(TestCluster(fault));
  EXPECT_TRUE(hard.failed);
  EXPECT_EQ(hard.error, "reduce task 1 failed after 2 attempts");

  ClusterConfig cluster = TestCluster(fault);
  cluster.control.allow_degraded = true;
  TraceRecorder trace;
  cluster.trace = &trace;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_TRUE(run.completeness.degraded);
  EXPECT_LT(run.outputs.size(), baseline.outputs.size());
  ASSERT_EQ(run.completeness.tasks.size(), 1u);
  EXPECT_EQ(run.completeness.tasks[0].phase, TaskPhase::kReduce);
  EXPECT_EQ(run.completeness.tasks[0].task, 1);
  EXPECT_EQ(run.completeness.tasks[0].kind, TaskOutcomeKind::kQuarantined);
  EXPECT_EQ(run.completeness.tasks[0].records_covered, 0);
  EXPECT_GT(run.completeness.tasks[0].records_total, 0);
  EXPECT_EQ(run.completeness.quarantined_tasks, 1);
  EXPECT_EQ(run.counters.Get("mr.supervisor.quarantined_tasks"), 1);

  const SpanTally tally = TallySupervisorSpans(trace);
  EXPECT_EQ(tally.quarantines, 1);
  EXPECT_EQ(tally.deadline_cancels, 0);
  EXPECT_EQ(tally.breaker_trips, 0);
}

TEST(SupervisorTest, DoomedMapTaskQuarantinesItsChunk) {
  const Job::Result baseline = RunHookedJob(TestCluster());

  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 2;
  fault.injected.push_back({TaskPhase::kMap, 2, 0});
  fault.injected.push_back({TaskPhase::kMap, 2, 1});

  const Job::Result hard = RunHookedJob(TestCluster(fault));
  EXPECT_TRUE(hard.failed);
  EXPECT_EQ(hard.error, "map task 2 failed after 2 attempts");

  ClusterConfig cluster = TestCluster(fault);
  cluster.control.allow_degraded = true;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_TRUE(run.completeness.degraded);
  ASSERT_EQ(run.completeness.tasks.size(), 1u);
  EXPECT_EQ(run.completeness.tasks[0].phase, TaskPhase::kMap);
  EXPECT_EQ(run.completeness.tasks[0].task, 2);
  EXPECT_EQ(run.completeness.tasks[0].kind, TaskOutcomeKind::kQuarantined);
  // The quarantined map task's input chunk (229 records over 4 tasks).
  EXPECT_EQ(run.completeness.tasks[0].records_total, 57);
  EXPECT_EQ(run.completeness.tasks[0].records_covered, 0);
  // The dropped chunk changes downstream sums, but the job finalizes.
  EXPECT_FALSE(run.outputs.empty());
  EXPECT_NE(run.outputs, baseline.outputs);

  const Job::Result rerun = RunHookedJob(cluster);
  EXPECT_EQ(rerun.outputs, run.outputs);
}

// A quarantine span sits at the end of its task's winning attempt as the
// trace shows it, or at the phase barrier when the trace shows none. The
// timing model counts the last attempt of every placed chain as its winner,
// a doomed one's included, so the simulated span marks the doomed map
// task's last attempt; on the wall clock the doomed task has no winner, so
// the span sits after every map attempt and before every reduce attempt.
TEST(SupervisorTest, DoomedMapQuarantineSpanAnchors) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 2;
  fault.injected.push_back({TaskPhase::kMap, 2, 0});
  fault.injected.push_back({TaskPhase::kMap, 2, 1});
  for (const ExecutionBackend backend :
       {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
    SCOPED_TRACE(ToString(backend));
    ClusterConfig cluster = TestCluster(fault);
    cluster.backend = backend;
    cluster.control.allow_degraded = true;
    TraceRecorder trace;
    cluster.trace = &trace;
    const Job::Result run = RunHookedJob(cluster);
    ASSERT_FALSE(run.failed) << run.error;

    std::vector<TraceSpan> quarantines;
    const TraceSpan* winner = nullptr;
    double last_map_end = 0.0;
    double first_reduce_start = run.timing.end + 1e9;
    const std::vector<TraceSpan> spans = trace.spans();
    for (const TraceSpan& span : spans) {
      if (span.kind == SpanKind::kTaskQuarantine) quarantines.push_back(span);
      if (span.kind != SpanKind::kAttempt) continue;
      if (span.phase == TaskPhase::kMap) {
        last_map_end = std::max(last_map_end, span.end);
        if (span.task == 2 && span.outcome == SpanOutcome::kCompleted) {
          winner = &span;
        }
      } else {
        first_reduce_start = std::min(first_reduce_start, span.start);
      }
    }
    ASSERT_EQ(quarantines.size(), 1u);
    const TraceSpan& quarantine = quarantines[0];
    EXPECT_EQ(quarantine.phase, TaskPhase::kMap);
    EXPECT_EQ(quarantine.task, 2);
    EXPECT_EQ(quarantine.start, quarantine.end);
    if (backend == ExecutionBackend::kSimulated) {
      ASSERT_NE(winner, nullptr);
      EXPECT_EQ(winner->attempt, 1);
      EXPECT_EQ(quarantine.start, winner->end);
    } else {
      EXPECT_EQ(winner, nullptr);
      EXPECT_GE(quarantine.start, last_map_end);
      EXPECT_LE(quarantine.start, first_reduce_start);
    }
  }
}

// ---- External task state after degradation ----

// The hooked job plus an external per-task sink of every group's sum,
// rewound through set_task_state like the ER drivers' state. With `store`
// the reduce tasks also checkpoint every 30 cost units; a group costs
// about 20, so a task's last groups can fall past its last checkpoint.
Job::Result RunSinkJob(const ClusterConfig& cluster, CheckpointStore* store,
                       std::vector<std::vector<int>>* sinks) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);
  sinks->assign(kReduceTasks, {});

  Job job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  job.set_task_state(
      [sinks](int task_id) -> std::shared_ptr<const void> {
        return std::make_shared<const std::vector<int>>(
            (*sinks)[static_cast<size_t>(task_id)]);
      },
      [sinks](int task_id, const void* snapshot) {
        (*sinks)[static_cast<size_t>(task_id)] =
            snapshot == nullptr
                ? std::vector<int>()
                : *static_cast<const std::vector<int>*>(snapshot);
      });
  if (store != nullptr) job.set_checkpointing(30.0, store);
  return job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 11, record);
      },
      [sinks](const int& key, std::vector<int>* values,
              Job::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
        (*sinks)[static_cast<size_t>(ctx->task_id())].push_back(sum);
      },
      cluster);
}

// Every task's sink must hold exactly the sums the task delivered: the
// whole task for a complete one, the restored prefix of the clean run for a
// degraded one (nothing without a checkpoint).
void ExpectSinksMatchDelivery(const Job::Result& run,
                              const std::vector<std::vector<int>>& sinks,
                              const std::vector<std::vector<int>>& clean) {
  for (int t = 0; t < kReduceTasks; ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    std::vector<int> delivered;
    for (const auto& [key, sum] : run.outputs) {
      if (key % kReduceTasks == t) delivered.push_back(sum);
    }
    const std::vector<int>& sink = sinks[static_cast<size_t>(t)];
    const std::vector<int>& full = clean[static_cast<size_t>(t)];
    EXPECT_EQ(sink, delivered);
    ASSERT_LE(sink.size(), full.size());
    EXPECT_TRUE(std::equal(sink.begin(), sink.end(), full.begin()));
  }
}

TEST(SupervisorTest, QuarantineRewindsExternalTaskState) {
  std::vector<std::vector<int>> clean;
  ASSERT_FALSE(RunSinkJob(TestCluster(), nullptr, &clean).failed);

  // Reduce task 1 is doomed; its last failed attempt leaves partial sums in
  // the sink until the quarantine rewinds it.
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 2;
  fault.injected.push_back({TaskPhase::kReduce, 1, 0});
  fault.injected.push_back({TaskPhase::kReduce, 1, 1});
  for (const ExecutionBackend backend :
       {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
    SCOPED_TRACE(ToString(backend));
    ClusterConfig cluster = TestCluster(fault);
    cluster.backend = backend;
    cluster.control.allow_degraded = true;

    std::vector<std::vector<int>> sinks;
    const Job::Result scratch = RunSinkJob(cluster, nullptr, &sinks);
    ASSERT_FALSE(scratch.failed) << scratch.error;
    ASSERT_EQ(scratch.completeness.quarantined_tasks, 1);
    EXPECT_TRUE(sinks[1].empty());
    ExpectSinksMatchDelivery(scratch, sinks, clean);

    CheckpointStore store;
    const Job::Result resumed = RunSinkJob(cluster, &store, &sinks);
    ASSERT_FALSE(resumed.failed) << resumed.error;
    ASSERT_EQ(resumed.completeness.tasks.size(), 1u);
    const TaskReport& report = resumed.completeness.tasks[0];
    EXPECT_EQ(report.kind, TaskOutcomeKind::kQuarantined);
    EXPECT_GT(report.records_covered, 0);
    EXPECT_LT(report.records_covered, report.records_total);
    EXPECT_FALSE(sinks[1].empty());
    EXPECT_LT(sinks[1].size(), clean[1].size());
    ExpectSinksMatchDelivery(resumed, sinks, clean);
  }
}

TEST(SupervisorTest, DeadlineCutRewindsExternalTaskState) {
  std::vector<std::vector<int>> clean;
  const Job::Result baseline = RunSinkJob(TestCluster(), nullptr, &clean);
  ASSERT_FALSE(baseline.failed) << baseline.error;
  for (const ExecutionBackend backend :
       {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
    SCOPED_TRACE(ToString(backend));
    ClusterConfig cluster = TestCluster();
    cluster.backend = backend;
    cluster.control.deadline_seconds = MidReduceDeadline(baseline);
    cluster.control.allow_degraded = true;

    // Without checkpoints every late task is cancelled outright: its sink,
    // which held the task's whole run, must end empty.
    std::vector<std::vector<int>> sinks;
    const Job::Result scratch = RunSinkJob(cluster, nullptr, &sinks);
    ASSERT_FALSE(scratch.failed) << scratch.error;
    ASSERT_FALSE(scratch.completeness.tasks.empty());
    for (const TaskReport& report : scratch.completeness.tasks) {
      EXPECT_EQ(report.kind, TaskOutcomeKind::kCancelled);
      EXPECT_TRUE(sinks[static_cast<size_t>(report.task)].empty());
    }
    ExpectSinksMatchDelivery(scratch, sinks, clean);

    // With them each late task is cut back to a checkpointed prefix.
    CheckpointStore store;
    const Job::Result cut = RunSinkJob(cluster, &store, &sinks);
    ASSERT_FALSE(cut.failed) << cut.error;
    int64_t cut_tasks = 0;
    for (const TaskReport& report : cut.completeness.tasks) {
      if (report.kind != TaskOutcomeKind::kCut) continue;
      ++cut_tasks;
      const size_t t = static_cast<size_t>(report.task);
      EXPECT_FALSE(sinks[t].empty());
      EXPECT_LT(sinks[t].size(), clean[t].size());
    }
    EXPECT_GT(cut_tasks, 0);
    ExpectSinksMatchDelivery(cut, sinks, clean);
  }
}

// ---- Retry-budget ledger ----

TEST(SupervisorTest, LedgerDeniesRetriesDeterministically) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.injected.push_back({TaskPhase::kMap, 1, 0});
  fault.injected.push_back({TaskPhase::kMap, 1, 1});
  fault.injected.push_back({TaskPhase::kReduce, 0, 0});
  fault.injected.push_back({TaskPhase::kReduce, 0, 1});

  // Budget 2 funds map task 1's two planned retries (walked first) and
  // leaves nothing for reduce task 0, whose cap drops to one attempt.
  ClusterConfig cluster = TestCluster(fault);
  cluster.control.allow_degraded = true;
  cluster.control.fault_budget = 2;
  TraceRecorder trace;
  cluster.trace = &trace;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_TRUE(run.completeness.degraded);
  ASSERT_EQ(run.completeness.tasks.size(), 1u);
  EXPECT_EQ(run.completeness.tasks[0].phase, TaskPhase::kReduce);
  EXPECT_EQ(run.completeness.tasks[0].task, 0);
  EXPECT_EQ(run.completeness.tasks[0].kind, TaskOutcomeKind::kQuarantined);
  EXPECT_EQ(run.completeness.retries_denied, 2);
  EXPECT_EQ(run.completeness.breaker_trips, 1);
  EXPECT_EQ(run.counters.Get("mr.supervisor.retries_denied"), 2);
  EXPECT_EQ(run.counters.Get("mr.supervisor.breaker_trips"), 1);
  // The funded map retries actually ran; the denied reduce retries did not.
  EXPECT_EQ(run.counters.Get("mr.supervisor.retry_spend.task"), 3);

  const SpanTally tally = TallySupervisorSpans(trace);
  EXPECT_EQ(tally.breaker_trips, 1);
  EXPECT_EQ(tally.quarantines, 1);
}

TEST(SupervisorTest, SufficientBudgetIsByteIdentical) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.injected.push_back({TaskPhase::kMap, 1, 0});
  fault.injected.push_back({TaskPhase::kMap, 1, 1});
  fault.injected.push_back({TaskPhase::kReduce, 0, 0});
  fault.injected.push_back({TaskPhase::kReduce, 0, 1});

  const Job::Result unsupervised = RunHookedJob(TestCluster(fault));
  ASSERT_FALSE(unsupervised.failed) << unsupervised.error;

  ClusterConfig cluster = TestCluster(fault);
  cluster.control.allow_degraded = true;
  cluster.control.fault_budget = 100;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_FALSE(run.completeness.degraded);
  EXPECT_EQ(run.completeness.retries_denied, 0);
  EXPECT_EQ(run.outputs, unsupervised.outputs);
  EXPECT_EQ(CountersMinusMr(run.counters),
            CountersMinusMr(unsupervised.counters));
  EXPECT_DOUBLE_EQ(run.timing.end, unsupervised.timing.end);
}

// ---- Disk circuit breaker ----

TEST(SupervisorTest, DiskBreakerCollapsesEnospcDiscovery) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "progres_supervisor_spill";
  const std::filesystem::path primary = base / "primary";
  const std::filesystem::path fallback = base / "fallback";
  std::filesystem::create_directories(primary);
  std::filesystem::create_directories(fallback);

  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.spill_enospc_prob = 1.0;  // every map task's primary dir is full

  ClusterConfig cluster = TestCluster(fault);
  cluster.shuffle_budget.max_bytes = 1;    // spill everything
  cluster.shuffle_budget.block_bytes = 16;  // ...in many tiny runs
  cluster.shuffle_budget.spill_dir = primary.string();
  cluster.shuffle_budget.fallback_spill_dir = fallback.string();

  const Job::Result unsupervised = RunHookedJob(cluster);
  ASSERT_FALSE(unsupervised.failed) << unsupervised.error;
  EXPECT_EQ(unsupervised.counters.Get("mr.disk.enospc"), kMapTasks);

  cluster.control.allow_degraded = true;
  TraceRecorder trace;
  cluster.trace = &trace;
  const Job::Result run = RunHookedJob(cluster);
  ASSERT_FALSE(run.failed) << run.error;
  // One global discovery instead of a per-task storm; identical output.
  EXPECT_EQ(run.counters.Get("mr.disk.enospc"), 1);
  EXPECT_EQ(run.outputs, unsupervised.outputs);
  EXPECT_FALSE(run.completeness.degraded);
  EXPECT_EQ(run.completeness.breaker_trips, 1);
  EXPECT_EQ(run.counters.Get("mr.supervisor.breaker_trips"), 1);
  EXPECT_EQ(TallySupervisorSpans(trace).breaker_trips, 1);
}

// ---- Negative paths: hard errors stay labelled without degradation ----

TEST(SupervisorTest, MachineLossInMapPhaseStaysFatalEvenDegraded) {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.machine_failures = {{0, 0.1}, {1, 0.1}};  // the whole cluster dies

  const Job::Result hard = RunHookedJob(TestCluster(fault));
  EXPECT_TRUE(hard.failed);
  EXPECT_NE(hard.error.find("lost: no healthy machines remain"),
            std::string::npos)
      << hard.error;

  // Losing every machine leaves nothing to degrade to: map output is gone.
  ClusterConfig cluster = TestCluster(fault);
  cluster.control.allow_degraded = true;
  const Job::Result degraded = RunHookedJob(cluster);
  EXPECT_TRUE(degraded.failed);
  EXPECT_NE(degraded.error.find("lost: no healthy machines remain"),
            std::string::npos)
      << degraded.error;
}

TEST(SupervisorTest, StickySpillErrorPinnedWithoutDegradation) {
  const std::filesystem::path primary =
      std::filesystem::temp_directory_path() / "progres_supervisor_nofall";
  std::filesystem::create_directories(primary);

  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 4;
  fault.spill_enospc_prob = 1.0;

  ClusterConfig cluster = TestCluster(fault);
  cluster.shuffle_budget.max_bytes = 1;
  cluster.shuffle_budget.block_bytes = 16;
  cluster.shuffle_budget.spill_dir = primary.string();
  // No fallback dir: ENOSPC is a sticky, labelled failure.
  const Job::Result hard = RunHookedJob(cluster);
  EXPECT_TRUE(hard.failed);
  EXPECT_NE(hard.error.find("map task 0:"), std::string::npos) << hard.error;
  EXPECT_NE(hard.error.find("no fallback spill dir configured"),
            std::string::npos)
      << hard.error;

  // With degradation the unsalvageable map tasks quarantine instead and the
  // job finalizes (here: every chunk is lost, so coverage drops to zero).
  cluster.control.allow_degraded = true;
  const Job::Result degraded = RunHookedJob(cluster);
  ASSERT_FALSE(degraded.failed) << degraded.error;
  EXPECT_TRUE(degraded.completeness.degraded);
  EXPECT_EQ(degraded.completeness.tasks.size(),
            static_cast<size_t>(kMapTasks));
  EXPECT_DOUBLE_EQ(degraded.completeness.covered_fraction, 0.0);
  EXPECT_TRUE(degraded.outputs.empty());
}

// ---- End-to-end: deterministic degraded ER run on both backends ----

TEST(SupervisorTest, ProgressiveDeadlineCutIsDeterministicAcrossBackends) {
  PublicationConfig gen;
  gen.num_entities = 600;
  gen.seed = 31;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = 200;
  train_gen.seed = 32;
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
  options.cluster.machines = 3;
  options.cluster.execution_threads = 4;
  options.cluster.seconds_per_cost_unit = 1e-3;
  options.alpha = 300.0;
  const ErRunResult clean =
      ProgressiveEr(blocking, match, sn, prob, options).Run(data.dataset);
  ASSERT_FALSE(clean.failed) << clean.error;
  ASSERT_FALSE(clean.duplicates.empty());

  options.cluster.control.deadline_seconds = clean.total_time * 0.6;
  options.cluster.control.allow_degraded = true;
  const ErRunResult degraded =
      ProgressiveEr(blocking, match, sn, prob, options).Run(data.dataset);
  ASSERT_FALSE(degraded.failed) << degraded.error;
  EXPECT_TRUE(degraded.completeness.degraded);
  EXPECT_GT(degraded.completeness.deadline_cancels, 0);
  EXPECT_LT(degraded.completeness.covered_fraction, 1.0);
  EXPECT_GT(degraded.completeness.covered_fraction, 0.0);

  // The degraded output is a subset of the clean run's pairs — alpha-cut
  // prefixes never invent pairs.
  EXPECT_FALSE(degraded.duplicates.empty());
  EXPECT_LT(degraded.duplicates.size(), clean.duplicates.size());
  for (const PairKey pair : degraded.duplicates) {
    EXPECT_TRUE(std::binary_search(clean.duplicates.begin(),
                                   clean.duplicates.end(), pair));
  }

  // Identical (seed, fault plan, deadline) => identical degraded pairs and
  // completeness report, on both backends.
  const ErRunResult rerun =
      ProgressiveEr(blocking, match, sn, prob, options).Run(data.dataset);
  ASSERT_FALSE(rerun.failed) << rerun.error;
  EXPECT_EQ(rerun.duplicates, degraded.duplicates);
  EXPECT_EQ(rerun.completeness.ToString(), degraded.completeness.ToString());

  options.cluster.backend = ExecutionBackend::kThreaded;
  const ErRunResult threaded =
      ProgressiveEr(blocking, match, sn, prob, options).Run(data.dataset);
  ASSERT_FALSE(threaded.failed) << threaded.error;
  EXPECT_EQ(threaded.duplicates, degraded.duplicates);
  EXPECT_EQ(threaded.completeness.ToString(),
            degraded.completeness.ToString());
  for (const char* name :
       {"mr.supervisor.deadline_cancels", "mr.supervisor.quarantined_tasks",
        "mr.supervisor.breaker_trips", "mr.supervisor.retries_denied"}) {
    EXPECT_EQ(threaded.counters.Get(name), degraded.counters.Get(name))
        << name;
  }
}

}  // namespace
}  // namespace progres
