// Out-of-core shuffle suite: the memory-budgeted spill path must be a pure
// implementation detail. Forcing every map task to spill must leave a job's
// outputs, user counters, and simulated timeline byte-identical to the
// all-in-memory run on both backends; the "mr.spill.*" counters must
// reconcile exactly with the spill-write and spill-merge trace spans; spill
// run files must be cleaned up; and an unusable budget must fail the job
// with a labelled error instead of wedging it.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/cluster.h"
#include "mapreduce/executor.h"
#include "mapreduce/job.h"
#include "mapreduce/serde.h"
#include "mapreduce/trace.h"
#include "mr_test_util.h"
#include "test_overlays.h"

namespace progres {
namespace {

using testing_util::CountersMinusMr;

ClusterConfig TestCluster(ExecutionBackend backend) {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.backend = backend;
  return cluster;
}

using testing_util::TinySpillBudget;

// The suite's reference job: word count over synthetic lines, sized so a
// tiny budget forces several spill runs per map task.
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

void WordMap(const std::string& line, WordJob::MapContext* ctx) {
  size_t start = 0;
  while (start < line.size()) {
    size_t end = line.find(' ', start);
    if (end == std::string::npos) end = line.size();
    ctx->Emit(line.substr(start, end - start), 1);
    start = end + 1;
  }
}

void WordReduce(const std::string& key, std::vector<int64_t>* values,
                WordJob::ReduceContext* ctx) {
  int64_t sum = 0;
  for (int64_t v : *values) sum += v;
  ctx->Emit(key, sum);
}

WordJob::Result RunWordCount(const ClusterConfig& cluster, int lines = 400) {
  WordJob job(4, 3);
  return job.Run(WordLines(lines), WordMap, WordReduce, cluster);
}

// Canonical text form of everything a run reports except the runtime's own
// spill bookkeeping (which legitimately differs between the two runs).
std::string DumpRun(const WordJob::Result& result) {
  std::string out;
  out += "failed=" + std::to_string(result.failed ? 1 : 0) + "\n";
  out += "end=" + std::to_string(result.timing.end) + "\n";
  for (const auto& [k, v] : result.outputs) {
    out += k + "=" + std::to_string(v) + "\n";
  }
  for (const auto& [name, value] : CountersMinusMr(result.counters)) {
    out += "counter " + name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

// ------------------------------------------------- output equivalence

TEST(SpillTest, ForcedSpillOutputsByteIdenticalSimulated) {
  ClusterConfig memory_cluster = TestCluster(ExecutionBackend::kSimulated);
  const WordJob::Result in_memory = RunWordCount(memory_cluster);
  ASSERT_FALSE(in_memory.failed) << in_memory.error;
  EXPECT_EQ(in_memory.counters.Get("mr.spill.runs"), 0);

  ClusterConfig spill_cluster = TestCluster(ExecutionBackend::kSimulated);
  spill_cluster.shuffle_budget = TinySpillBudget();
  const WordJob::Result spilled = RunWordCount(spill_cluster);
  ASSERT_FALSE(spilled.failed) << spilled.error;
  EXPECT_GT(spilled.counters.Get("mr.spill.runs"), 0);
  EXPECT_GT(spilled.counters.Get("mr.spill.records"), 0);
  EXPECT_GT(spilled.counters.Get("mr.spill.bytes"), 0);
  EXPECT_GT(spilled.counters.Get("mr.spill.merge_passes"), 0);

  EXPECT_EQ(DumpRun(in_memory), DumpRun(spilled));
}

TEST(SpillTest, ForcedSpillOutputsByteIdenticalThreaded) {
  ClusterConfig memory_cluster = TestCluster(ExecutionBackend::kThreaded);
  const WordJob::Result in_memory = RunWordCount(memory_cluster);
  ASSERT_FALSE(in_memory.failed) << in_memory.error;

  ClusterConfig spill_cluster = TestCluster(ExecutionBackend::kThreaded);
  spill_cluster.shuffle_budget = TinySpillBudget();
  const WordJob::Result spilled = RunWordCount(spill_cluster);
  ASSERT_FALSE(spilled.failed) << spilled.error;
  EXPECT_GT(spilled.counters.Get("mr.spill.runs"), 0);

  EXPECT_EQ(DumpRun(in_memory), DumpRun(spilled));
}

// ------------------------------------------------- counter/span ledger

struct SpillSpanTally {
  int64_t writes = 0;
  int64_t write_records = 0;
  int64_t write_bytes = 0;
  int64_t merges = 0;
};

SpillSpanTally TallySpillSpans(const std::vector<TraceSpan>& spans) {
  SpillSpanTally tally;
  for (const TraceSpan& span : spans) {
    if (span.kind == SpanKind::kSpillWrite) {
      ++tally.writes;
      EXPECT_GE(span.records_in, 0);
      EXPECT_GE(span.bytes, 0);
      tally.write_records += span.records_in;
      tally.write_bytes += span.bytes;
    } else if (span.kind == SpanKind::kSpillMerge) {
      ++tally.merges;
      EXPECT_GT(span.records_in, 0);
    }
  }
  return tally;
}

void CheckSpillLedger(ExecutionBackend backend) {
  TraceRecorder recorder;
  ClusterConfig cluster = TestCluster(backend);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.trace = &recorder;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;

  const SpillSpanTally tally = TallySpillSpans(recorder.spans());
  EXPECT_EQ(tally.writes, result.counters.Get("mr.spill.runs"));
  EXPECT_EQ(tally.write_records, result.counters.Get("mr.spill.records"));
  EXPECT_EQ(tally.write_bytes, result.counters.Get("mr.spill.bytes"));
  EXPECT_EQ(tally.merges, result.counters.Get("mr.spill.merge_passes"));
  EXPECT_GT(tally.writes, 0);
}

TEST(SpillTest, CountersReconcileWithSpansSimulated) {
  CheckSpillLedger(ExecutionBackend::kSimulated);
}

TEST(SpillTest, CountersReconcileWithSpansThreaded) {
  CheckSpillLedger(ExecutionBackend::kThreaded);
}

TEST(SpillTest, NoSpillSpansWithoutBudget) {
  TraceRecorder recorder;
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.trace = &recorder;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;
  const SpillSpanTally tally = TallySpillSpans(recorder.spans());
  EXPECT_EQ(tally.writes, 0);
  EXPECT_EQ(tally.merges, 0);
  EXPECT_EQ(result.counters.Get("mr.spill.merge_passes"), 0);
}

// ------------------------------------------------- spill run hygiene

TEST(SpillTest, SpillRunFilesAreDeletedAfterTheJob) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "progres_spill_test_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.shuffle_budget.spill_dir = dir.string();
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_GT(result.counters.Get("mr.spill.runs"), 0);

  int leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++leftovers;
    ADD_FAILURE() << "leftover spill file: " << entry.path();
  }
  EXPECT_EQ(leftovers, 0);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- budget failure modes

TEST(SpillTest, UnusableSpillDirFailsTheJobWithALabel) {
  // Point the spill dir at a regular file: ResolveSpillDir cannot create or
  // write into it, so submission must fail cleanly before any map work.
  const std::filesystem::path blocker =
      std::filesystem::temp_directory_path() / "progres_spill_test_blocker";
  std::filesystem::remove_all(blocker);
  { std::ofstream out(blocker); out << "x"; }

  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget = TinySpillBudget();
  cluster.shuffle_budget.spill_dir = blocker.string();
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("shuffle budget unusable"), std::string::npos)
      << result.error;
  std::filesystem::remove(blocker);
}

TEST(SpillTest, NegativeBudgetIsAConfigError) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget.max_bytes = -1;
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("shuffle_budget"), std::string::npos)
      << result.error;
}

TEST(SpillTest, ZeroBlockBytesIsAConfigError) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget.max_bytes = 1 << 20;
  cluster.shuffle_budget.block_bytes = 0;
  const WordJob::Result result = RunWordCount(cluster);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("block_bytes"), std::string::npos)
      << result.error;
}

// ------------------------------------------------- large-budget no-op

TEST(SpillTest, GenerousBudgetNeverSpills) {
  ClusterConfig cluster = TestCluster(ExecutionBackend::kSimulated);
  cluster.shuffle_budget.max_bytes = int64_t{1} << 30;
  const WordJob::Result result = RunWordCount(cluster);
  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_EQ(result.counters.Get("mr.spill.runs"), 0);
  EXPECT_EQ(result.counters.Get("mr.spill.merge_passes"), 0);
}

}  // namespace
}  // namespace progres
