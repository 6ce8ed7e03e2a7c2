// Storage fault domain suite: deterministic disk-fault injection on the
// spill path (ENOSPC, transient EIO with retry/backoff, torn writes, CRC
// corruption caught at the map barrier), graceful degradation to a fallback
// spill dir, and cross-process restart from persisted checkpoints. The
// acceptance bar mirrors the data-plane contract everywhere else: outputs
// stay byte-identical to the fault-free run on both backends, the
// "mr.disk." / "mr.restart." counters reconcile exactly with the recorded
// trace spans, and a resumed run replays strictly less work than a
// from-scratch one.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/cluster.h"
#include "mapreduce/executor.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"
#include "mapreduce/trace.h"
#include "mechanism/sorted_neighbor.h"
#include "model/entity.h"
#include "er_golden_util.h"
#include "mr_test_util.h"
#include "test_overlays.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;

// ------------------------------------------------- FaultPlan unit tests

TEST(FaultPlanDiskTest, DisabledConfigPlansNoDiskFaults) {
  const FaultPlan plan{FaultConfig()};
  EXPECT_FALSE(plan.HasDiskFaults());
  for (int t = 0; t < 8; ++t) {
    EXPECT_FALSE(plan.SpillPrimaryFull(t));
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(plan.SpillWriteErrors(t, r, 0, 5), 0);
      EXPECT_FALSE(plan.SpillTornWrite(t, r, 0));
      EXPECT_FALSE(plan.SpillCorrupted(t, r, 0));
    }
  }
}

TEST(FaultPlanDiskTest, CertainProbabilitiesAlwaysFire) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 3;
  config.spill_enospc_prob = 1.0;
  config.spill_write_error_prob = 1.0;
  config.spill_torn_write_prob = 1.0;
  config.spill_corrupt_prob = 1.0;
  const FaultPlan plan{config};
  ASSERT_TRUE(plan.HasDiskFaults());
  for (int t = 0; t < 8; ++t) {
    EXPECT_TRUE(plan.SpillPrimaryFull(t));
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(plan.SpillWriteErrors(t, 0, g, 5), 5);
      EXPECT_TRUE(plan.SpillTornWrite(t, 0, g));
      EXPECT_TRUE(plan.SpillCorrupted(t, 0, g));
    }
  }
}

TEST(FaultPlanDiskTest, DecisionsAreDeterministicAndSeedHashed) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 17;
  config.spill_write_error_prob = 0.5;
  config.spill_torn_write_prob = 0.5;
  config.spill_corrupt_prob = 0.5;
  const FaultPlan a{config};
  const FaultPlan b{config};
  int fired = 0, total = 0;
  for (int t = 0; t < 6; ++t) {
    for (int r = 0; r < 6; ++r) {
      for (int g = 0; g < 3; ++g) {
        EXPECT_EQ(a.SpillWriteError(t, r, g, 0), b.SpillWriteError(t, r, g, 0));
        EXPECT_EQ(a.SpillTornWrite(t, r, g), b.SpillTornWrite(t, r, g));
        EXPECT_EQ(a.SpillCorrupted(t, r, g), b.SpillCorrupted(t, r, g));
        fired += a.SpillCorrupted(t, r, g) ? 1 : 0;
        ++total;
      }
    }
  }
  // A half probability over 108 coordinates is neither all-off nor all-on.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, total);
}

TEST(FaultPlanDiskTest, CorruptOffsetStaysInsideTheFile) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 9;
  config.spill_corrupt_prob = 1.0;
  const FaultPlan plan{config};
  for (const uint64_t bytes : {uint64_t{1}, uint64_t{17}, uint64_t{4096}}) {
    for (int t = 0; t < 4; ++t) {
      EXPECT_LT(plan.SpillCorruptOffset(t, 0, 0, bytes), bytes);
    }
  }
}

// ------------------------------------------------- word-count scaffolding

ClusterConfig TestCluster(ExecutionBackend backend) {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.backend = backend;
  return cluster;
}

using testing_util::TinySpillBudget;

std::vector<std::string> WordLines(int lines) {
  std::vector<std::string> input;
  input.reserve(static_cast<size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    std::string line;
    for (int w = 0; w < 8; ++w) {
      if (w > 0) line.push_back(' ');
      line += "word" + std::to_string((i * 8 + w * 13) % 50);
    }
    input.push_back(std::move(line));
  }
  return input;
}

using WordJob = MapReduceJob<std::string, std::string, int64_t>;

// `on_reduce`, when set, runs before every reduce call: after the map
// barrier, while every spill file is still in place.
WordJob::Result RunWordCount(const ClusterConfig& cluster, int lines = 400,
                             const std::function<void()>& on_reduce = {}) {
  WordJob job(4, 3);
  return job.Run(
      WordLines(lines),
      [](const std::string& line, WordJob::MapContext* ctx) {
        size_t start = 0;
        while (start < line.size()) {
          size_t end = line.find(' ', start);
          if (end == std::string::npos) end = line.size();
          ctx->Emit(line.substr(start, end - start), 1);
          start = end + 1;
        }
      },
      [&](const std::string& key, std::vector<int64_t>* values,
          WordJob::ReduceContext* ctx) {
        if (on_reduce) on_reduce();
        int64_t sum = 0;
        for (int64_t v : *values) sum += v;
        ctx->Emit(key, sum);
      },
      cluster);
}

// The data plane a disk-faulted run must reproduce byte for byte: outputs
// and user counters. Timing legitimately shifts (retry backoff, barrier
// re-runs), so it is compared only run-vs-run across backends, never
// against the fault-free baseline.
std::string DumpData(const WordJob::Result& result) {
  std::string out;
  out += "failed=" + std::to_string(result.failed ? 1 : 0) + "\n";
  for (const auto& [k, v] : result.outputs) {
    out += k + "=" + std::to_string(v) + "\n";
  }
  for (const auto& [name, value] : CountersMinusMr(result.counters)) {
    out += "counter " + name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

std::string DumpRunWithTiming(const WordJob::Result& result) {
  return "end=" + std::to_string(result.timing.end) + "\n" + DumpData(result);
}

int64_t CountSpans(const std::vector<TraceSpan>& spans, SpanKind kind) {
  int64_t count = 0;
  for (const TraceSpan& span : spans) {
    if (span.kind == kind) ++count;
  }
  return count;
}

FaultConfig TransientWriteFaults() {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 6;
  fault.spill_write_error_prob = 0.3;
  fault.spill_retry_backoff_seconds = 1.0;
  return fault;
}

FaultConfig CorruptionFaults() {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 5;
  fault.spill_torn_write_prob = 0.2;
  fault.spill_corrupt_prob = 0.2;
  return fault;
}

// ------------------------------------------------- transient EIO + retry

void CheckTransientWriteErrorsRecover(ExecutionBackend backend) {
  const WordJob::Result baseline = RunWordCount(TestCluster(backend));
  ASSERT_FALSE(baseline.failed) << baseline.error;

  TraceRecorder trace;
  ClusterConfig cluster = TestCluster(backend);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.fault = TransientWriteFaults();
  cluster.trace = &trace;
  const WordJob::Result faulty = RunWordCount(cluster);
  ASSERT_FALSE(faulty.failed) << faulty.error;

  EXPECT_EQ(DumpData(baseline), DumpData(faulty));
  EXPECT_GT(faulty.counters.Get("mr.disk.write_errors"), 0);
  EXPECT_GT(faulty.counters.Get("mr.disk.retries"), 0);
  // Every retried write survived within budget: no failovers, no failures.
  EXPECT_EQ(faulty.counters.Get("mr.disk.dir_failovers"), 0);
  // Flat 1s backoff per retry makes the rounded tally equal the count.
  EXPECT_EQ(faulty.counters.Get("mr.disk.retry_backoff_seconds"),
            faulty.counters.Get("mr.disk.retries"));
  // Ledger: one kSpillRetry span per counted retry.
  EXPECT_EQ(CountSpans(trace.spans(), SpanKind::kSpillRetry),
            faulty.counters.Get("mr.disk.retries"));
  EXPECT_EQ(CountSpans(trace.spans(), SpanKind::kRunCorrupt), 0);
}

TEST(SpillDiskFaultTest, TransientWriteErrorsRecoverSimulated) {
  CheckTransientWriteErrorsRecover(ExecutionBackend::kSimulated);
}

TEST(SpillDiskFaultTest, TransientWriteErrorsRecoverThreaded) {
  CheckTransientWriteErrorsRecover(ExecutionBackend::kThreaded);
}

// ------------------------------------------------- torn/corrupt runs

void CheckCorruptRunsRerunMaps(ExecutionBackend backend) {
  const WordJob::Result baseline = RunWordCount(TestCluster(backend));
  ASSERT_FALSE(baseline.failed) << baseline.error;

  TraceRecorder trace;
  ClusterConfig cluster = TestCluster(backend);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.fault = CorruptionFaults();
  cluster.trace = &trace;
  const WordJob::Result faulty = RunWordCount(cluster);
  ASSERT_FALSE(faulty.failed) << faulty.error;

  EXPECT_EQ(DumpData(baseline), DumpData(faulty));
  // Both torn tails and flipped bytes surface as CRC failures at the map
  // barrier, each answered by a map re-run with a fresh generation.
  EXPECT_GT(faulty.counters.Get("mr.disk.corrupt_runs"), 0);
  EXPECT_GT(faulty.counters.Get("mr.disk.torn_writes"), 0);
  EXPECT_GT(faulty.counters.Get("mr.disk.map_reruns"), 0);
  EXPECT_EQ(CountSpans(trace.spans(), SpanKind::kRunCorrupt),
            faulty.counters.Get("mr.disk.corrupt_runs"));
}

TEST(SpillDiskFaultTest, CorruptRunsRerunMapTasksSimulated) {
  CheckCorruptRunsRerunMaps(ExecutionBackend::kSimulated);
}

TEST(SpillDiskFaultTest, CorruptRunsRerunMapTasksThreaded) {
  CheckCorruptRunsRerunMaps(ExecutionBackend::kThreaded);
}

// A torn write or a flipped byte in a run that is not its task's last —
// the flipped run shares its file with later runs, the torn one ends its
// file and the next run opens another — must be detected exactly once:
// one corrupt run, one map re-run, and every other run still validates.

constexpr int kMidFileLines = 2000;

// Spill runs per map task of the fault-free forced-spill job.
std::vector<int> SpillRunsPerTask() {
  TraceRecorder trace;
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.trace = &trace;
  const WordJob::Result result = RunWordCount(cluster, kMidFileLines);
  EXPECT_FALSE(result.failed) << result.error;
  std::vector<int> runs(4, 0);
  for (const TraceSpan& span : trace.spans()) {
    if (span.kind == SpanKind::kSpillWrite) {
      ++runs[static_cast<size_t>(span.task)];
    }
  }
  return runs;
}

// The fault config whose plan tears (or, with `torn` false, corrupts)
// exactly one run of the tasks' first executions, at a run that is not its
// task's last, and spares the re-run of that task; the seed is searched
// from the plan itself.
FaultConfig FaultOnceMidTask(const std::vector<int>& runs, bool torn) {
  FaultConfig config;
  config.enabled = true;
  (torn ? config.spill_torn_write_prob : config.spill_corrupt_prob) = 0.02;
  for (config.seed = 1; config.seed < 100000; ++config.seed) {
    const FaultPlan plan(config);
    const auto fires = [&](int task, int run, int generation) {
      return torn ? plan.SpillTornWrite(task, run, generation)
                  : plan.SpillCorrupted(task, run, generation);
    };
    int hits = 0;
    int task = -1;
    int run = -1;
    for (int t = 0; t < static_cast<int>(runs.size()); ++t) {
      for (int r = 0; r < runs[static_cast<size_t>(t)]; ++r) {
        if (!fires(t, r, 0)) continue;
        ++hits;
        task = t;
        run = r;
      }
    }
    if (hits != 1 || run + 1 >= runs[static_cast<size_t>(task)]) continue;
    bool rerun_clean = true;
    for (int r = 0; r < runs[static_cast<size_t>(task)]; ++r) {
      if (fires(task, r, 1)) rerun_clean = false;
    }
    if (rerun_clean) return config;
  }
  ADD_FAILURE() << "no seed faults exactly one mid-task run";
  return config;
}

void CheckMidFileFaultDetectedOnce(ExecutionBackend backend, bool torn) {
  const std::vector<int> runs = SpillRunsPerTask();
  for (const int r : runs) ASSERT_GE(r, 2) << "every task must spill twice";
  const WordJob::Result baseline =
      RunWordCount(TestCluster(backend), kMidFileLines);
  ASSERT_FALSE(baseline.failed) << baseline.error;

  ClusterConfig cluster = TestCluster(backend);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.fault = FaultOnceMidTask(runs, torn);
  const WordJob::Result result = RunWordCount(cluster, kMidFileLines);
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_EQ(DumpData(baseline), DumpData(result));
  EXPECT_EQ(result.counters.Get("mr.disk.corrupt_runs"), 1);
  EXPECT_EQ(result.counters.Get("mr.disk.map_reruns"), 1);
  EXPECT_EQ(result.counters.Get("mr.disk.torn_writes"), torn ? 1 : 0);
}

TEST(SpillDiskFaultTest, TornRunMidTaskDetectedOnceSimulated) {
  CheckMidFileFaultDetectedOnce(ExecutionBackend::kSimulated, true);
}

TEST(SpillDiskFaultTest, TornRunMidTaskDetectedOnceThreaded) {
  CheckMidFileFaultDetectedOnce(ExecutionBackend::kThreaded, true);
}

TEST(SpillDiskFaultTest, FlippedByteMidFileDetectedOnceSimulated) {
  CheckMidFileFaultDetectedOnce(ExecutionBackend::kSimulated, false);
}

TEST(SpillDiskFaultTest, FlippedByteMidFileDetectedOnceThreaded) {
  CheckMidFileFaultDetectedOnce(ExecutionBackend::kThreaded, false);
}

TEST(SpillDiskFaultTest, BackendsAgreeUnderDiskFaults) {
  // Fault decisions are pure functions of the config, so the threaded run
  // must match the simulated one including the simulated timeline.
  ClusterConfig sim = TestCluster(ExecutionBackend::kSimulated);
  sim.shuffle_budget = TinySpillBudget();
  sim.fault = CorruptionFaults();
  sim.fault.spill_write_error_prob = 0.2;
  ClusterConfig thr = TestCluster(ExecutionBackend::kThreaded);
  thr.shuffle_budget = sim.shuffle_budget;
  thr.fault = sim.fault;

  const WordJob::Result simulated = RunWordCount(sim);
  const WordJob::Result threaded = RunWordCount(thr);
  ASSERT_FALSE(simulated.failed) << simulated.error;
  ASSERT_FALSE(threaded.failed) << threaded.error;
  EXPECT_EQ(DumpRunWithTiming(simulated), DumpRunWithTiming(threaded));
  EXPECT_EQ(simulated.counters.Get("mr.disk.retries"),
            threaded.counters.Get("mr.disk.retries"));
  EXPECT_EQ(simulated.counters.Get("mr.disk.corrupt_runs"),
            threaded.counters.Get("mr.disk.corrupt_runs"));
}

// ------------------------------------------------- ENOSPC + failover

struct SpillDirs {
  std::filesystem::path primary;
  std::filesystem::path fallback;
};

SpillDirs MakeSpillDirs(const std::string& name) {
  SpillDirs dirs;
  dirs.primary = std::filesystem::temp_directory_path() / (name + "_primary");
  dirs.fallback = std::filesystem::temp_directory_path() / (name + "_fallback");
  std::filesystem::remove_all(dirs.primary);
  std::filesystem::remove_all(dirs.fallback);
  std::filesystem::create_directories(dirs.primary);
  std::filesystem::create_directories(dirs.fallback);
  return dirs;
}

int CountEntries(const std::filesystem::path& dir) {
  int entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  return entries;
}

TEST(SpillDiskFaultTest, EnospcFailsOverToFallbackDir) {
  const WordJob::Result baseline =
      RunWordCount(TestCluster(ExecutionBackend::kSimulated));
  const SpillDirs dirs = MakeSpillDirs("progres_diskfault_enospc");

  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.shuffle_budget.spill_dir = dirs.primary.string();
  cluster.shuffle_budget.fallback_spill_dir = dirs.fallback.string();
  cluster.fault.enabled = true;
  cluster.fault.spill_enospc_prob = 1.0;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;

  EXPECT_EQ(DumpData(baseline), DumpData(result));
  EXPECT_GT(result.counters.Get("mr.disk.enospc"), 0);
  EXPECT_GT(result.counters.Get("mr.disk.dir_failovers"), 0);
  // Run files land in the fallback dir and are still cleaned up after.
  EXPECT_EQ(CountEntries(dirs.primary), 0);
  EXPECT_EQ(CountEntries(dirs.fallback), 0);
  std::filesystem::remove_all(dirs.primary);
  std::filesystem::remove_all(dirs.fallback);
}

// A fail-over starts a new file in the fallback dir. With no write
// retries, a task whose first primary write fails never creates a primary
// file; every other task has one, and each fail-over adds one fallback
// file. Counted during the reduce phase; both dirs are empty after.
void CheckFailOverStartsOneNewFile(ExecutionBackend backend) {
  const WordJob::Result baseline =
      RunWordCount(TestCluster(backend), kMidFileLines);
  const SpillDirs dirs = MakeSpillDirs("progres_diskfault_layout");

  ClusterConfig cluster = TestCluster(backend);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.shuffle_budget.spill_dir = dirs.primary.string();
  cluster.shuffle_budget.fallback_spill_dir = dirs.fallback.string();
  cluster.fault.enabled = true;
  cluster.fault.seed = 3;
  cluster.fault.spill_write_error_prob = 0.1;
  cluster.fault.max_spill_retries = 0;
  std::mutex mu;
  std::vector<std::pair<int, int>> seen;  // (primary, fallback) files
  const WordJob::Result result = RunWordCount(cluster, kMidFileLines, [&] {
    const std::pair<int, int> files(CountEntries(dirs.primary),
                                    CountEntries(dirs.fallback));
    const std::lock_guard<std::mutex> lock(mu);
    seen.push_back(files);
  });
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_EQ(DumpData(baseline), DumpData(result));

  const FaultPlan plan(cluster.fault);
  int primary = 0;
  for (int t = 0; t < 4; ++t) {
    if (!plan.SpillWriteError(t, 0, 0, 0)) ++primary;
  }
  const int failovers =
      static_cast<int>(result.counters.Get("mr.disk.dir_failovers"));
  // The seed must exercise a task that wrote a primary file before failing
  // over, so that some task holds two files.
  EXPECT_GT(primary + failovers, 4);
  ASSERT_FALSE(seen.empty());
  for (const auto& [primary_files, fallback_files] : seen) {
    EXPECT_EQ(primary_files, primary);
    EXPECT_EQ(fallback_files, failovers);
  }
  EXPECT_EQ(CountEntries(dirs.primary), 0);
  EXPECT_EQ(CountEntries(dirs.fallback), 0);
  std::filesystem::remove_all(dirs.primary);
  std::filesystem::remove_all(dirs.fallback);
}

TEST(SpillDiskFaultTest, FailOverStartsOneNewFileSimulated) {
  CheckFailOverStartsOneNewFile(ExecutionBackend::kSimulated);
}

TEST(SpillDiskFaultTest, FailOverStartsOneNewFileThreaded) {
  CheckFailOverStartsOneNewFile(ExecutionBackend::kThreaded);
}

TEST(SpillDiskFaultTest, EnospcWithoutFallbackFailsWithALabel) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.fault.enabled = true;
  cluster.fault.spill_enospc_prob = 1.0;
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("unusable and no fallback spill dir"),
            std::string::npos)
      << result.error;
}

TEST(SpillDiskFaultTest, ExhaustedRetriesFailOverAndRecover) {
  const WordJob::Result baseline =
      RunWordCount(TestCluster(ExecutionBackend::kSimulated));
  const SpillDirs dirs = MakeSpillDirs("progres_diskfault_retries");

  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.shuffle_budget.spill_dir = dirs.primary.string();
  cluster.shuffle_budget.fallback_spill_dir = dirs.fallback.string();
  cluster.fault.enabled = true;
  cluster.fault.spill_write_error_prob = 1.0;
  cluster.fault.max_spill_retries = 2;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;

  EXPECT_EQ(DumpData(baseline), DumpData(result));
  EXPECT_GT(result.counters.Get("mr.disk.write_errors"), 0);
  EXPECT_GT(result.counters.Get("mr.disk.retries"), 0);
  EXPECT_GT(result.counters.Get("mr.disk.dir_failovers"), 0);
  std::filesystem::remove_all(dirs.primary);
  std::filesystem::remove_all(dirs.fallback);
}

TEST(SpillDiskFaultTest, ExhaustedRetriesWithoutFallbackFailTheJob) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.fault.enabled = true;
  cluster.fault.spill_write_error_prob = 1.0;
  cluster.fault.max_spill_retries = 2;
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("unusable and no fallback spill dir"),
            std::string::npos)
      << result.error;
}

// ------------------------------------------------- checkpoint persistence

std::filesystem::path FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TaskCheckpoint SampleCheckpoint() {
  TaskCheckpoint checkpoint;
  checkpoint.cost = 42.5;
  checkpoint.groups = 7;
  checkpoint.records_in = 31;
  checkpoint.pairs_out = 12;
  checkpoint.outputs = 3;
  checkpoint.counters.Increment("reduce.groups", 7);
  checkpoint.encoded_outputs = std::string("opaque\0blob", 11);
  return checkpoint;
}

TEST(CheckpointPersistenceTest, SnapshotsRoundTripAcrossStores) {
  const std::filesystem::path dir = FreshDir("progres_diskfault_ckpt");

  CheckpointStore writer;
  writer.ConfigurePersistence(dir.string(), "t", /*resume=*/false);
  ASSERT_TRUE(writer.persistent());
  writer.Reset(2);
  writer.Save(0, SampleCheckpoint());
  EXPECT_EQ(CountEntries(dir), 1);

  CheckpointStore reader;
  reader.ConfigurePersistence(dir.string(), "t", /*resume=*/true);
  reader.Reset(2);
  ASSERT_TRUE(reader.Preloaded(0));
  EXPECT_FALSE(reader.Preloaded(1));
  const TaskCheckpoint* loaded = reader.Latest(0);
  ASSERT_NE(loaded, nullptr);
  const TaskCheckpoint expected = SampleCheckpoint();
  EXPECT_DOUBLE_EQ(loaded->cost, expected.cost);
  EXPECT_EQ(loaded->groups, expected.groups);
  EXPECT_EQ(loaded->records_in, expected.records_in);
  EXPECT_EQ(loaded->pairs_out, expected.pairs_out);
  EXPECT_EQ(loaded->outputs, expected.outputs);
  EXPECT_EQ(loaded->counters.Get("reduce.groups"), 7);
  EXPECT_EQ(loaded->encoded_outputs, expected.encoded_outputs);
  EXPECT_EQ(reader.corrupt_checkpoints(), 0);

  reader.CleanupPersisted();
  EXPECT_EQ(CountEntries(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointPersistenceTest, CorruptSnapshotIsIgnoredAndTallied) {
  const std::filesystem::path dir = FreshDir("progres_diskfault_ckpt_corrupt");
  CheckpointStore writer;
  writer.ConfigurePersistence(dir.string(), "t", /*resume=*/false);
  writer.Reset(1);
  writer.Save(0, SampleCheckpoint());

  // Flip one payload byte; the CRC frame must reject the file.
  const std::filesystem::path file =
      *std::filesystem::directory_iterator(dir);
  {
    std::fstream io(file,
                    std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(12);
    char byte = 0;
    io.seekg(12);
    io.get(byte);
    io.seekp(12);
    io.put(static_cast<char>(byte ^ 0x40));
  }

  CheckpointStore reader;
  reader.ConfigurePersistence(dir.string(), "t", /*resume=*/true);
  reader.Reset(1);
  EXPECT_EQ(reader.Latest(0), nullptr);
  EXPECT_FALSE(reader.Preloaded(0));
  EXPECT_EQ(reader.corrupt_checkpoints(), 1);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointPersistenceTest, TruncatedSnapshotIsIgnored) {
  const std::filesystem::path dir = FreshDir("progres_diskfault_ckpt_trunc");
  CheckpointStore writer;
  writer.ConfigurePersistence(dir.string(), "t", /*resume=*/false);
  writer.Reset(1);
  writer.Save(0, SampleCheckpoint());
  const std::filesystem::path file =
      *std::filesystem::directory_iterator(dir);
  std::filesystem::resize_file(file, std::filesystem::file_size(file) / 2);

  CheckpointStore reader;
  reader.ConfigurePersistence(dir.string(), "t", /*resume=*/true);
  reader.Reset(1);
  EXPECT_EQ(reader.Latest(0), nullptr);
  EXPECT_EQ(reader.corrupt_checkpoints(), 1);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- job-level restart

using IntJob = MapReduceJob<int, int, int>;

constexpr int kMapTasks = 4;
constexpr int kReduceTasks = 3;

ClusterConfig IntCluster(FaultConfig fault = FaultConfig(),
                         ExecutionBackend backend =
                             ExecutionBackend::kSimulated) {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.seconds_per_cost_unit = 1.0;
  cluster.backend = backend;
  cluster.fault = std::move(fault);
  return cluster;
}

// The checkpoint suite's reference job, plus an external tally of reduce
// groups actually executed — the replay a resume must shrink.
IntJob::Result RunIntJob(const ClusterConfig& cluster, CheckpointStore* store,
                         std::atomic<int64_t>* groups_executed = nullptr) {
  std::vector<int> input;
  for (int i = 0; i < 229; ++i) input.push_back(i * 37 % 101);
  IntJob job(kMapTasks, kReduceTasks);
  job.set_map_cost_per_record(0.5);
  job.set_partitioner([](const int& key, int r) { return key % r; });
  if (store != nullptr) {
    job.set_checkpointing(10.0, store);
  }
  return job.Run(
      input,
      [](const int& record, IntJob::MapContext* ctx) {
        ctx->clock().Charge(0.25);
        ctx->Emit(record % 11, record);
      },
      [groups_executed](const int& key, std::vector<int>* values,
                        IntJob::ReduceContext* ctx) {
        if (groups_executed != nullptr) {
          groups_executed->fetch_add(1, std::memory_order_relaxed);
        }
        int sum = 0;
        for (int v : *values) sum += v;
        ctx->counters().Increment("reduce.groups");
        ctx->clock().Charge(static_cast<double>(values->size()));
        ctx->Emit(key, sum);
      },
      cluster);
}

// Dooms reduce task 0: every allowed attempt carries an injected failure,
// so the job fails — after persisting the boundaries it did cross. The
// surviving snapshot files are exactly what a killed process leaves behind.
FaultConfig DoomReduceTaskZero() {
  FaultConfig fault;
  fault.enabled = true;
  fault.max_attempts = 3;
  fault.injected = {{TaskPhase::kReduce, 0, 0},
                    {TaskPhase::kReduce, 0, 1},
                    {TaskPhase::kReduce, 0, 2}};
  return fault;
}

TEST(JobRestartTest, FailedRunLeavesSnapshotsAndResumeReplaysFewerGroups) {
  std::atomic<int64_t> clean_groups{0};
  const IntJob::Result baseline =
      RunIntJob(IntCluster(), nullptr, &clean_groups);
  ASSERT_FALSE(baseline.failed) << baseline.error;
  ASSERT_GT(clean_groups.load(), 0);

  const std::filesystem::path dir = FreshDir("progres_diskfault_restart");
  {
    CheckpointStore store;
    store.ConfigurePersistence(dir.string(), "job", /*resume=*/false);
    const IntJob::Result doomed =
        RunIntJob(IntCluster(DoomReduceTaskZero()), &store);
    ASSERT_TRUE(doomed.failed);
    EXPECT_GT(doomed.counters.Get("mr.checkpoint.saved"), 0);
  }
  // A failed job must NOT clean its persisted snapshots — they are the
  // restart's starting point.
  ASSERT_GT(CountEntries(dir), 0);

  TraceRecorder trace;
  CheckpointStore resumed_store;
  resumed_store.ConfigurePersistence(dir.string(), "job", /*resume=*/true);
  ClusterConfig resume_cluster = IntCluster();
  resume_cluster.trace = &trace;
  std::atomic<int64_t> resumed_groups{0};
  const IntJob::Result resumed =
      RunIntJob(resume_cluster, &resumed_store, &resumed_groups);
  ASSERT_FALSE(resumed.failed) << resumed.error;

  // Byte-identical data plane, strictly less replayed work.
  EXPECT_EQ(resumed.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(resumed.counters),
            CountersMinusMr(baseline.counters));
  EXPECT_LT(resumed_groups.load(), clean_groups.load());

  // Restart ledger: restored-task tally, 1:1 with kRestartRestore spans.
  const int64_t restored_tasks =
      resumed.counters.Get("mr.restart.restored_tasks");
  EXPECT_GT(restored_tasks, 0);
  EXPECT_EQ(CountSpans(trace.spans(), SpanKind::kRestartRestore),
            restored_tasks);
  EXPECT_EQ(resumed.counters.Get("mr.restart.corrupt_checkpoints"), 0);

  // A completed job deletes its snapshots: it must not be resumed again.
  EXPECT_EQ(CountEntries(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(JobRestartTest, ResumeIsByteIdenticalOnTheThreadedBackend) {
  const IntJob::Result baseline = RunIntJob(IntCluster(), nullptr);
  ASSERT_FALSE(baseline.failed) << baseline.error;

  const std::filesystem::path dir = FreshDir("progres_diskfault_restart_thr");
  {
    CheckpointStore store;
    store.ConfigurePersistence(dir.string(), "job", /*resume=*/false);
    const IntJob::Result doomed =
        RunIntJob(IntCluster(DoomReduceTaskZero()), &store);
    ASSERT_TRUE(doomed.failed);
  }
  ASSERT_GT(CountEntries(dir), 0);

  CheckpointStore resumed_store;
  resumed_store.ConfigurePersistence(dir.string(), "job", /*resume=*/true);
  const IntJob::Result resumed = RunIntJob(
      IntCluster(FaultConfig(), ExecutionBackend::kThreaded), &resumed_store);
  ASSERT_FALSE(resumed.failed) << resumed.error;
  EXPECT_EQ(resumed.outputs, baseline.outputs);
  EXPECT_EQ(CountersMinusMr(resumed.counters),
            CountersMinusMr(baseline.counters));
  EXPECT_GT(resumed.counters.Get("mr.restart.restored_tasks"), 0);
  EXPECT_EQ(CountEntries(dir), 0);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- cross-process restart

struct RestartWorld {
  LabeledDataset data;
  LabeledDataset train;
  BlockingConfig blocking;
  MatchFunction match;
  ProbabilityModel prob;
  SortedNeighborMechanism sn;
  ProgressiveErOptions base;
};

const RestartWorld& DriverWorld() {
  static const RestartWorld* world = [] {
    auto* w = new RestartWorld{
        [] {
          PublicationConfig gen;
          gen.num_entities = 400;
          gen.seed = 31;
          return GeneratePublications(gen);
        }(),
        [] {
          PublicationConfig gen;
          gen.num_entities = 200;
          gen.seed = 32;
          return GeneratePublications(gen);
        }(),
        BlockingConfig(
            {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3}, -1}}),
        MatchFunction({{kPubTitle, AttributeSimilarity::kEditDistance, 0.7, 0},
                       {kPubVenue, AttributeSimilarity::kEditDistance, 0.3, 0}},
                      0.75),
        ProbabilityModel(),
        SortedNeighborMechanism(),
        ProgressiveErOptions()};
    w->prob = ProbabilityModel::Train(w->train.dataset, w->train.truth,
                                      w->blocking);
    w->base.cluster.machines = 2;
    w->base.cluster.seconds_per_cost_unit = 1e-3;
    w->base.alpha = 100.0;
    return w;
  }();
  return *world;
}

// A mid-run process kill (the crash hook's std::_Exit(17) after two
// persisted saves) followed by a --resume-style rerun: the restarted driver
// restores the dead process's snapshots from disk, finishes the job, and
// resolves the exact same duplicates as an uninterrupted run.
TEST(DriverRestartTest, CrashedDriverProcessResumesByteIdentical) {
  // The death-test child re-execs this binary, so the crashed "process" is
  // a real separate process whose files must survive it.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const RestartWorld& w = DriverWorld();
  const std::filesystem::path dir = FreshDir("progres_diskfault_driver");

  EXPECT_EXIT(
      {
        ProgressiveErOptions options = w.base;
        options.checkpoint_dir = dir.string();
        options.crash_after_checkpoints = 2;
        ProgressiveEr(w.blocking, w.match, w.sn, w.prob, options)
            .Run(w.data.dataset);
        // Only reached if the crash hook never fired — fail the exit-code
        // match instead of falling back into the test harness.
        std::_Exit(0);
      },
      testing::ExitedWithCode(17), "");
  ASSERT_GT(CountEntries(dir), 0)
      << "the killed process left no persisted checkpoints";

  const ErRunResult clean =
      ProgressiveEr(w.blocking, w.match, w.sn, w.prob, w.base)
          .Run(w.data.dataset);
  ASSERT_FALSE(clean.failed) << clean.error;

  ProgressiveErOptions resume = w.base;
  resume.checkpoint_dir = dir.string();
  resume.resume = true;
  const ErRunResult resumed =
      ProgressiveEr(w.blocking, w.match, w.sn, w.prob, resume)
          .Run(w.data.dataset);
  ASSERT_FALSE(resumed.failed) << resumed.error;

  EXPECT_EQ(resumed.duplicates, clean.duplicates);
  EXPECT_GT(resumed.counters.Get("mr.restart.restored_tasks"), 0);
  // The finished run deletes its snapshots.
  EXPECT_EQ(CountEntries(dir), 0);
  std::filesystem::remove_all(dir);
}

// The storage fault domain end to end, as progres_cli runs it with
// --spill-fault-prob=0.05 --spill-enospc-prob=0.1 and a fallback dir: under
// a spilling budget, transient write errors, torn writes, run corruption
// and ENOSPC failover must leave the resolved pairs byte-identical to the
// unfaulted run, and the spill dirs empty.
TEST(DriverDiskFaultTest, InjectedStorageFaultsLeavePairsByteIdentical) {
  const testing_util::GoldenWorkload w = testing_util::MakeGoldenWorkload();
  const ProbabilityModel prob =
      ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking);
  const SortedNeighborMechanism sn;
  ProgressiveErOptions base;
  base.cluster = testing_util::GoldenCluster();
  const ErRunResult clean =
      ProgressiveEr(w.blocking, w.match, sn, prob, base).Run(w.data.dataset);
  ASSERT_FALSE(clean.failed) << clean.error;

  const std::filesystem::path primary = FreshDir("progres_diskfault_primary");
  const std::filesystem::path fallback =
      FreshDir("progres_diskfault_fallback");
  ProgressiveErOptions options = base;
  options.cluster.shuffle_budget = TinySpillBudget();
  options.cluster.shuffle_budget.spill_dir = primary.string();
  options.cluster.shuffle_budget.fallback_spill_dir = fallback.string();
  FaultConfig& fault = options.cluster.fault;
  fault.enabled = true;
  fault.seed = 1;
  fault.spill_write_error_prob = 0.05;
  fault.spill_torn_write_prob = 0.05;
  fault.spill_corrupt_prob = 0.05;
  fault.spill_enospc_prob = 0.1;
  const ErRunResult faulted =
      ProgressiveEr(w.blocking, w.match, sn, prob, options).Run(w.data.dataset);
  ASSERT_FALSE(faulted.failed) << faulted.error;

  EXPECT_EQ(faulted.duplicates, clean.duplicates);
  EXPECT_GT(faulted.counters.Get("mr.spill.runs"), 0);
  EXPECT_GT(testing_util::DiskFaultTally(faulted.counters), 0);
  EXPECT_EQ(CountEntries(primary), 0);
  EXPECT_EQ(CountEntries(fallback), 0);
  std::filesystem::remove_all(primary);
  std::filesystem::remove_all(fallback);
}

}  // namespace
}  // namespace progres
