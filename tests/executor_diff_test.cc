// Differential tests for the two execution backends. The MR contract —
// deterministic fault plans, counters merged in task order behind the
// phase barrier, fixed shuffle gather-sort order — promises that the
// threaded backend produces byte-identical results to the serial simulated
// reference, for any thread count and any real interleaving. These tests
// hold the runtime to that promise:
//
//   * every frozen golden driver, re-run threaded with 1 and 4 workers,
//     must reproduce its fixture byte for byte;
//   * a matrix of cluster-size x thread-count x fault-plan configurations
//     (crashes, hangs, poison records, shuffle corruption, backoff +
//     blacklisting, checkpointed recovery) must agree between backends on
//     the full dump, every counter and the quarantined entity ids;
//   * a traced threaded run's wall-clock spans must reconcile exactly with
//     the schedule-derived "mr.*" counters;
//   * a many-task, 8-worker stress run (trace + checkpoints + heavy retry
//     churn) exercises the concurrent paths TSan watches.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "er_golden_util.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/executor.h"
#include "mapreduce/job.h"
#include "mapreduce/trace.h"

namespace progres {
namespace {

using testing_util::DumpErRunResult;
using testing_util::GoldenDriverNames;
using testing_util::RunGoldenDriver;

std::string ReadGoldenFixture(const std::string& name) {
  std::ifstream in(std::string(PROGRES_GOLDEN_DIR) + "/" + name + ".golden",
                   std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- Backend selection plumbing ----

TEST(ExecutionBackendTest, ParseAndToStringRoundTrip) {
  ExecutionBackend backend = ExecutionBackend::kSimulated;
  EXPECT_TRUE(ParseExecutionBackend("threaded", &backend));
  EXPECT_EQ(backend, ExecutionBackend::kThreaded);
  EXPECT_TRUE(ParseExecutionBackend("simulated", &backend));
  EXPECT_EQ(backend, ExecutionBackend::kSimulated);
  EXPECT_FALSE(ParseExecutionBackend("Threaded", &backend));
  EXPECT_FALSE(ParseExecutionBackend("", &backend));
  EXPECT_FALSE(ParseExecutionBackend("parallel", &backend));
  EXPECT_STREQ(ToString(ExecutionBackend::kSimulated), "simulated");
  EXPECT_STREQ(ToString(ExecutionBackend::kThreaded), "threaded");
}

// ---- Golden equivalence: threaded runs reproduce the frozen fixtures ----

struct GoldenCase {
  std::string driver;
  int threads = 1;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  for (const std::string& name : GoldenDriverNames()) {
    // GoldenCluster() has 3 machines x 2 slots = 6-slot capacity, so the
    // fixture configurations admit up to 6 workers; 8-thread coverage runs
    // on the wider matrix clusters below.
    for (int threads : {1, 4}) cases.push_back({name, threads});
  }
  return cases;
}

class BackendGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(BackendGoldenTest, ThreadedRunMatchesFrozenFixture) {
  if (testing_util::DiskFaultOverlayActive()) {
    GTEST_SKIP() << "fixtures frozen without the disk-fault overlay";
  }
  const GoldenCase c = GetParam();
  const std::string threaded =
      RunGoldenDriver(c.driver, nullptr, ExecutionBackend::kThreaded,
                      c.threads);
  // The fixture is the simulated backend's output, frozen at the seed state
  // (driver_matrix_test keeps that end pinned) — matching it byte for byte
  // is the strongest form of cross-backend equality.
  EXPECT_EQ(threaded, ReadGoldenFixture(c.driver));
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, BackendGoldenTest, ::testing::ValuesIn(GoldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.driver + "_t" + std::to_string(info.param.threads);
    });

// ---- Config matrix: cluster size x threads x fault plan ----

struct MatrixCase {
  std::string label;
  int machines = 2;
  int threads = 1;
  FaultConfig fault;
  bool checkpoint_recovery = false;
  MapEmission map_emission = MapEmission::kPerBlock;
  bool expect_quarantine = false;
};

// Ten configurations spanning machines {2,3,4} x threads {1,4,8} and every
// fault family the threaded backend supports (machine failures and
// speculation are simulated-only and rejected at validation — covered in
// heterogeneous_cluster_test). Threads never exceed the cluster's slot
// capacity (2 slots per machine per phase).
std::vector<MatrixCase> MatrixCases() {
  std::vector<MatrixCase> cases;
  {
    MatrixCase c;
    c.label = "faultfree_m2_t1";
    c.machines = 2;
    c.threads = 1;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "faultfree_m4_t8";
    c.machines = 4;
    c.threads = 8;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "crashes_m2_t4";
    c.machines = 2;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 11;
    c.fault.map_failure_prob = 0.15;
    c.fault.reduce_failure_prob = 0.15;
    c.fault.max_attempts = 8;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "hangs_m3_t4";
    c.machines = 3;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 12;
    c.fault.map_hang_prob = 0.2;
    c.fault.reduce_hang_prob = 0.2;
    c.fault.task_timeout_seconds = 40.0;
    c.fault.max_attempts = 8;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "poison_skip_m3_t1";
    c.machines = 3;
    c.threads = 1;
    c.fault.enabled = true;
    c.fault.poison_records = {5, 83, 211};
    c.fault.skip_bad_records = true;
    c.fault.max_attempts = 8;
    c.expect_quarantine = true;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "corruption_m2_t4";
    c.machines = 2;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 13;
    c.fault.shuffle_corrupt_prob = 0.2;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "backoff_blacklist_m4_t8";
    c.machines = 4;
    c.threads = 8;
    c.fault.enabled = true;
    c.fault.seed = 14;
    c.fault.map_failure_prob = 0.2;
    c.fault.reduce_failure_prob = 0.2;
    c.fault.max_attempts = 8;
    c.fault.retry_backoff_seconds = 3.0;
    c.fault.blacklist_failures = 2;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "checkpoint_m3_t4";
    c.machines = 3;
    c.threads = 4;
    c.fault.enabled = true;
    c.fault.seed = 15;
    c.fault.reduce_failure_prob = 0.3;
    c.fault.max_attempts = 8;
    c.checkpoint_recovery = true;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "kitchen_sink_m4_t8";
    c.machines = 4;
    c.threads = 8;
    c.fault.enabled = true;
    c.fault.seed = 16;
    c.fault.map_failure_prob = 0.1;
    c.fault.reduce_failure_prob = 0.1;
    c.fault.map_hang_prob = 0.1;
    c.fault.task_timeout_seconds = 60.0;
    c.fault.shuffle_corrupt_prob = 0.1;
    c.fault.poison_records = {17, 301};
    c.fault.skip_bad_records = true;
    c.fault.max_attempts = 10;
    c.map_emission = MapEmission::kPerTree;
    c.expect_quarantine = true;
    cases.push_back(c);
  }
  {
    MatrixCase c;
    c.label = "checkpoint_hangs_m4_t8";
    c.machines = 4;
    c.threads = 8;
    c.fault.enabled = true;
    c.fault.seed = 17;
    c.fault.reduce_hang_prob = 0.25;
    c.fault.task_timeout_seconds = 40.0;
    c.fault.max_attempts = 8;
    c.checkpoint_recovery = true;
    cases.push_back(c);
  }
  return cases;
}

// Smaller cousin of the golden workload, sized so twenty driver runs stay
// cheap under TSan.
struct MatrixWorkload {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
};

const MatrixWorkload& GetMatrixWorkload() {
  static const MatrixWorkload* workload = [] {
    auto* w = new MatrixWorkload();
    PublicationConfig train_gen;
    train_gen.num_entities = 200;
    train_gen.seed = 961;
    w->train = GeneratePublications(train_gen);
    PublicationConfig gen;
    gen.num_entities = 400;
    gen.seed = 962;
    w->data = GeneratePublications(gen);
    w->blocking = BlockingConfig(
        {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3, 5}, -1}});
    w->match = MatchFunction(
        {{kPubTitle, AttributeSimilarity::kEditDistance, 0.6, 0},
         {kPubVenue, AttributeSimilarity::kEditDistance, 0.4, 0}},
        0.75);
    return w;
  }();
  return *workload;
}

const ProbabilityModel& GetMatrixModel() {
  static const ProbabilityModel* model = [] {
    const MatrixWorkload& w = GetMatrixWorkload();
    return new ProbabilityModel(
        ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking));
  }();
  return *model;
}

ErRunResult RunMatrixDriver(const MatrixCase& c, ExecutionBackend backend) {
  const MatrixWorkload& w = GetMatrixWorkload();
  const SortedNeighborMechanism sn;
  ProgressiveErOptions options;
  options.cluster.machines = c.machines;
  options.cluster.execution_threads = c.threads;
  options.cluster.backend = backend;
  options.cluster.fault = c.fault;
  options.checkpoint_recovery = c.checkpoint_recovery;
  options.map_emission = c.map_emission;
  testing_util::ApplyTestOverlays(&options.cluster);
  const ProgressiveEr er(w.blocking, w.match, sn, GetMatrixModel(), options);
  return er.Run(w.data.dataset);
}

class BackendMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BackendMatrixTest, ThreadedMatchesSimulated) {
  const MatrixCase c = GetParam();
  const ErRunResult sim = RunMatrixDriver(c, ExecutionBackend::kSimulated);
  const ErRunResult threaded = RunMatrixDriver(c, ExecutionBackend::kThreaded);
  const GroundTruth& truth = GetMatrixWorkload().data.truth;
  // The canonical dump covers events, pairs, chunks, timings, the recall
  // curve and the non-shuffle counters...
  EXPECT_EQ(DumpErRunResult(threaded, truth), DumpErRunResult(sim, truth));
  // ...and the remaining observables it skips are held to the same bar:
  // the complete counter map (including "mr.shuffle.*") and the
  // quarantined entity ids.
  EXPECT_EQ(threaded.counters.values(), sim.counters.values());
  EXPECT_EQ(threaded.quarantined_ids, sim.quarantined_ids);
  EXPECT_EQ(threaded.failed, sim.failed);
  EXPECT_EQ(threaded.error, sim.error);
  if (c.expect_quarantine) {
    // The poison plan actually fired — this config is not vacuously equal.
    EXPECT_FALSE(sim.quarantined_ids.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BackendMatrixTest, ::testing::ValuesIn(MatrixCases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return info.param.label;
    });

// ---- Wall-clock trace reconciliation ----

using DiffJob = MapReduceJob<int, int, int>;

constexpr int kMapTasks = 6;
constexpr int kReduceTasks = 4;

// Raw job with a few groups per reduce task; checkpointing at a small alpha
// yields several snapshots per task.
DiffJob::Result RunRawJob(const ClusterConfig& cluster, int records,
                          CheckpointStore* store, double alpha) {
  std::vector<int> input;
  for (int i = 0; i < records; ++i) input.push_back(i * 37 % 101);
  DiffJob job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  if (store != nullptr) job.set_checkpointing(alpha, store);
  return job.Run(
      input,
      [](const int& record, DiffJob::MapContext* ctx) {
        ctx->counters().Increment("map.records");
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 13, record);
      },
      [](const int& key, std::vector<int>* values, DiffJob::ReduceContext* ctx) {
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->counters().Increment("reduce.groups");
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

ClusterConfig RawCluster(int machines, int threads, ExecutionBackend backend,
                         const FaultConfig& fault = {}) {
  ClusterConfig cluster;
  cluster.machines = machines;
  cluster.execution_threads = threads;
  cluster.backend = backend;
  cluster.seconds_per_cost_unit = 1.0;
  cluster.fault = fault;
  testing_util::ApplyTestOverlays(&cluster);
  return cluster;
}

// The *_forced_spill and *_disk_faults variants of this suite test the
// out-of-core path and the storage fault domain only if RawCluster()
// really engages them.
TEST(TestOverlayTest, RawClusterEngagesActiveOverlays) {
  if (!testing_util::ForcedSpillOverlayActive() &&
      !testing_util::DiskFaultOverlayActive()) {
    GTEST_SKIP() << "no overlay set";
  }
  // Large enough for many spill runs per map task.
  const DiffJob::Result r = RunRawJob(
      RawCluster(2, 4, ExecutionBackend::kThreaded), 200000, nullptr, 0.0);
  ASSERT_FALSE(r.failed) << r.error;
  EXPECT_GT(r.counters.Get("mr.spill.runs"), 0);
  if (testing_util::DiskFaultOverlayActive()) {
    EXPECT_GT(testing_util::DiskFaultTally(r.counters), 0)
        << r.counters.Get("mr.spill.runs") << " spill runs";
  }
}

// Crashes, a hang and checkpointed retries in one plan, so the traced run
// exercises every span kind the threaded backend stamps.
FaultConfig ReconcileFaults() {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 6;
  fault.injected.push_back({TaskPhase::kReduce, 0, 0});
  fault.injected.push_back({TaskPhase::kReduce, 1, 0});
  fault.injected.push_back({TaskPhase::kMap, 2, 0});
  fault.injected_hangs.push_back({TaskPhase::kMap, 1, 0, 0.5});
  fault.task_timeout_seconds = 30.0;
  return fault;
}

TEST(ThreadedTraceTest, SpansReconcileWithMrCounters) {
  // Over one 4 KiB block per map task, so the forced-spill and disk-fault
  // variants reconcile real spill writes and merges.
  constexpr int kRecords = 20000;
  ClusterConfig cluster =
      RawCluster(2, 4, ExecutionBackend::kThreaded, ReconcileFaults());
  TraceRecorder recorder;
  cluster.trace = &recorder;
  CheckpointStore store;
  const DiffJob::Result r = RunRawJob(cluster, kRecords, &store, 5.0);
  ASSERT_FALSE(r.failed) << r.error;
  if (testing_util::ForcedSpillOverlayActive()) {
    EXPECT_GT(r.counters.Get("mr.spill.runs"), 0);
  }

  int64_t attempts = 0;
  int64_t failed = 0;
  int64_t timed_out = 0;
  int64_t shuffles = 0;
  int64_t saves = 0;
  int64_t restores = 0;
  int64_t spill_writes = 0;
  int64_t spill_merges = 0;
  for (const TraceSpan& span : recorder.spans()) {
    // Wall-clock stamps: monotone, and placed on worker lanes (the
    // threaded backend has no machine placement).
    EXPECT_GE(span.start, 0.0);
    EXPECT_GE(span.end, span.start);
    switch (span.kind) {
      case SpanKind::kAttempt:
        ++attempts;
        EXPECT_EQ(span.machine, -1);
        EXPECT_GE(span.slot, 0);
        EXPECT_LT(span.slot, cluster.execution_threads);
        if (span.outcome == SpanOutcome::kTimedOut) {
          ++timed_out;
          ++failed;
        } else if (span.outcome == SpanOutcome::kFailed) {
          ++failed;
        } else {
          EXPECT_EQ(span.outcome, SpanOutcome::kCompleted);
        }
        break;
      case SpanKind::kShuffle:
        ++shuffles;
        EXPECT_GE(span.records_in, 0);
        break;
      case SpanKind::kCheckpointSave:
        ++saves;
        break;
      case SpanKind::kCheckpointRestore:
        ++restores;
        break;
      case SpanKind::kRetryBackoff:
        ADD_FAILURE() << "no backoff configured, yet a backoff span exists";
        break;
      case SpanKind::kSpillWrite:
        ++spill_writes;
        EXPECT_GE(span.records_in, 0);
        EXPECT_GE(span.bytes, 0);
        break;
      case SpanKind::kSpillMerge:
        ++spill_merges;
        break;
      case SpanKind::kSpillRetry:
      case SpanKind::kRunCorrupt:
        // Storage faults are injected only by the disk-fault overlay.
        if (!testing_util::DiskFaultOverlayActive()) {
          ADD_FAILURE() << "storage-fault span without injected faults";
        }
        break;
      case SpanKind::kRestartRestore:
      case SpanKind::kDeadlineCancel:
      case SpanKind::kTaskQuarantine:
      case SpanKind::kBreakerTrip:
        // The job neither persists checkpoints nor runs under supervision,
        // so none of these may appear.
        ADD_FAILURE() << "unexpected span kind " << static_cast<int>(span.kind);
        break;
    }
  }

  // Every wall-clock span kind reconciles exactly with the schedule-derived
  // "mr.*" counters — the two clocks describe the same execution.
  EXPECT_EQ(attempts, r.counters.Get("mr.attempts"));
  EXPECT_EQ(failed, r.counters.Get("mr.failed_attempts"));
  EXPECT_EQ(timed_out, r.counters.Get("mr.faults.task_timeouts"));
  EXPECT_EQ(shuffles, kReduceTasks);
  EXPECT_EQ(saves, r.counters.Get("mr.checkpoint.saved"));
  EXPECT_EQ(restores, r.counters.Get("mr.checkpoint.restored"));
  EXPECT_EQ(spill_writes, r.counters.Get("mr.spill.runs"));
  EXPECT_EQ(spill_merges, r.counters.Get("mr.spill.merge_passes"));
  // The plan actually produced retries, a timeout kill and checkpoint
  // traffic — the reconciliation above is not vacuous.
  EXPECT_GT(failed, 0);
  EXPECT_GT(timed_out, 0);
  EXPECT_GT(saves, 0);
  EXPECT_GT(restores, 0);

  // Tracing stays observational on the threaded backend too.
  ClusterConfig untraced = cluster;
  untraced.trace = nullptr;
  CheckpointStore untraced_store;
  const DiffJob::Result plain =
      RunRawJob(untraced, kRecords, &untraced_store, 5.0);
  EXPECT_EQ(r.outputs, plain.outputs);
  EXPECT_EQ(r.counters.values(), plain.counters.values());
  EXPECT_DOUBLE_EQ(r.timing.end, plain.timing.end);
}

// ---- Failed jobs trace the same instants on both backends ----

struct FailedJobCase {
  std::string label;
  int max_attempts = 2;
  double shuffle_corrupt_prob = 0.0;
  double wall_deadline_seconds = 0.0;
  std::string error;
  // Whether the quarantining map task ends with a winning attempt.
  bool task_wins = false;
};

// Both jobs fail before the timing model runs. Poison record 5 crashes map
// task 0 until skip-bad-records quarantines it after two crashes: with two
// attempts the task is doomed; with three it wins, and the checksummed
// shuffle flags corrupt fetches before the wall-clock guard at the map
// barrier fails the job. A quarantine instant sits at the start of its
// task's winning map attempt as the trace shows it or, when the trace shows
// none, at the map barrier, past every map attempt. (The timing model
// counts a doomed chain's last attempt as its winner, so only the wall
// clock shows the doomed task without one.)
TEST(FailedJobTraceTest, BackendsRecordTheSameInstants) {
  const std::vector<FailedJobCase> cases = {
      {"doomed_map", 2, 0.0, 0.0, "map task 0 failed after 2 attempts",
       false},
      {"wall_deadline", 3, 0.5, 1e-9,
       "job wall-clock deadline exceeded at the map/reduce barrier", true}};
  std::vector<int> input;
  for (int i = 0; i < 100; ++i) input.push_back(i);
  for (const FailedJobCase& c : cases) {
    SCOPED_TRACE(c.label);
    std::map<InstantKind, int64_t> instants[2];
    for (const ExecutionBackend backend :
         {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
      FaultConfig fault;
      fault.enabled = true;
      fault.seed = 5;
      fault.poison_records = {5};
      fault.skip_bad_records = true;
      fault.max_attempts_before_skip = 2;
      fault.max_attempts = c.max_attempts;
      fault.shuffle_corrupt_prob = c.shuffle_corrupt_prob;
      ClusterConfig cluster = RawCluster(2, 2, backend, fault);
      cluster.control.wall_deadline_seconds = c.wall_deadline_seconds;
      TraceRecorder recorder;
      cluster.trace = &recorder;
      DiffJob job(2, 2);
      job.set_poison_faults(true);
      const DiffJob::Result r = job.Run(
          input,
          [](const int& record, DiffJob::MapContext* ctx) {
            ctx->Emit(record % 7, record);
          },
          [](const int& key, std::vector<int>* values,
             DiffJob::ReduceContext* ctx) {
            ctx->Emit(key, static_cast<int>(values->size()));
          },
          cluster);
      ASSERT_TRUE(r.failed);
      EXPECT_EQ(r.error, c.error);
      std::map<InstantKind, int64_t>& counts =
          instants[backend == ExecutionBackend::kThreaded ? 1 : 0];
      for (const TraceInstant& instant : recorder.instants()) {
        ++counts[instant.kind];
      }
      EXPECT_EQ(counts[InstantKind::kRecordQuarantined],
                r.counters.Get("mr.skipped.records"));
      EXPECT_EQ(counts[InstantKind::kShuffleCorruption],
                r.counters.Get("mr.shuffle.checksum_errors"));
      EXPECT_EQ(r.counters.Get("mr.skipped.records"), 1);
      if (c.shuffle_corrupt_prob > 0.0) {
        EXPECT_GT(r.counters.Get("mr.shuffle.checksum_errors"), 0);
      }

      SCOPED_TRACE(ToString(backend));
      const std::vector<TraceSpan> spans = recorder.spans();
      double last_map_end = 0.0;
      for (const TraceSpan& span : spans) {
        if (span.kind == SpanKind::kAttempt && span.phase == TaskPhase::kMap) {
          last_map_end = std::max(last_map_end, span.end);
        }
      }
      for (const TraceInstant& instant : recorder.instants()) {
        if (instant.kind != InstantKind::kRecordQuarantined) continue;
        const TraceSpan* winner = nullptr;
        for (const TraceSpan& span : spans) {
          if (span.kind == SpanKind::kAttempt &&
              span.phase == TaskPhase::kMap && span.task == instant.task &&
              span.outcome == SpanOutcome::kCompleted) {
            winner = &span;
          }
        }
        if (backend == ExecutionBackend::kThreaded) {
          EXPECT_EQ(winner != nullptr, c.task_wins);
        }
        if (winner != nullptr) {
          EXPECT_EQ(instant.time, winner->start);
        } else {
          EXPECT_GE(instant.time, last_map_end);
        }
      }
    }
    EXPECT_EQ(instants[0], instants[1]);
  }
}

// A job that fails after the map barrier — here on its simulated deadline,
// once the whole timeline is known — traces no data-plane marks on either
// backend, though its map tasks spilled: spill writes, shuffle deliveries
// and merges are recorded for jobs that succeeded.
TEST(FailedJobTraceTest, DeadlineFailureRecordsNoDataPlaneMarks) {
  constexpr int kRecords = 20000;
  for (const ExecutionBackend backend :
       {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
    SCOPED_TRACE(ToString(backend));
    ClusterConfig cluster = RawCluster(2, 2, backend);
    cluster.shuffle_budget = testing_util::TinySpillBudget();
    const DiffJob::Result baseline =
        RunRawJob(cluster, kRecords, nullptr, 0.0);
    ASSERT_FALSE(baseline.failed) << baseline.error;
    cluster.control.deadline_seconds =
        0.5 * (baseline.timing.map_end + baseline.timing.end);
    TraceRecorder recorder;
    cluster.trace = &recorder;
    const DiffJob::Result r = RunRawJob(cluster, kRecords, nullptr, 0.0);
    ASSERT_TRUE(r.failed);
    EXPECT_NE(r.error.find("job deadline exceeded"), std::string::npos)
        << r.error;
    EXPECT_GT(r.counters.Get("mr.spill.runs"), 0);
    int64_t attempts = 0;
    int64_t data_plane_marks = 0;
    for (const TraceSpan& span : recorder.spans()) {
      if (span.kind == SpanKind::kAttempt) ++attempts;
      if (span.kind == SpanKind::kSpillWrite ||
          span.kind == SpanKind::kSpillRetry ||
          span.kind == SpanKind::kRunCorrupt ||
          span.kind == SpanKind::kShuffle ||
          span.kind == SpanKind::kSpillMerge ||
          span.kind == SpanKind::kRestartRestore) {
        ++data_plane_marks;
      }
    }
    EXPECT_GT(attempts, 0);
    EXPECT_EQ(data_plane_marks, 0);
  }
}

// ---- Thread-safety stress (the run TSan cares about) ----

// Many more tasks than the 8 workers, heavy seed-hashed retry churn, live
// checkpoint saves and trace recording from the worker threads: the
// concurrent paths are counter accumulation, shuffle partition writes,
// CheckpointStore slots and the recorder's mutex. The serial simulated run
// is the reference the result must still match byte for byte.
TEST(ThreadedStressTest, ConcurrentRunMatchesSerialReference) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 2718;
  fault.map_failure_prob = 0.3;
  fault.reduce_failure_prob = 0.3;
  fault.max_attempts = 10;

  ClusterConfig serial = RawCluster(4, 1, ExecutionBackend::kSimulated, fault);
  CheckpointStore serial_store;

  ClusterConfig threaded = RawCluster(4, 8, ExecutionBackend::kThreaded, fault);
  TraceRecorder recorder;
  threaded.trace = &recorder;
  CheckpointStore threaded_store;

  const int kRecords = 5000;
  const DiffJob::Result reference =
      RunRawJob(serial, kRecords, &serial_store, 20.0);
  ASSERT_FALSE(reference.failed) << reference.error;
  const DiffJob::Result stressed =
      RunRawJob(threaded, kRecords, &threaded_store, 20.0);
  ASSERT_FALSE(stressed.failed) << stressed.error;

  EXPECT_EQ(stressed.outputs, reference.outputs);
  EXPECT_EQ(stressed.counters.values(), reference.counters.values());
  EXPECT_DOUBLE_EQ(stressed.timing.end, reference.timing.end);
  EXPECT_DOUBLE_EQ(stressed.timing.map_end, reference.timing.map_end);
  EXPECT_EQ(threaded_store.saved(), serial_store.saved());
  // The churn was real: retries happened and the wall clock ran.
  EXPECT_GT(reference.counters.Get("mr.failed_attempts"), 0);
  EXPECT_EQ(stressed.timing.wall.threads, 8);
  EXPECT_GT(stressed.timing.wall.total_seconds, 0.0);
  EXPECT_FALSE(recorder.spans().empty());
}

}  // namespace
}  // namespace progres
