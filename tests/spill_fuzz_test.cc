// Seeded mutation of spill read-back. Without an armed disk-fault plan the
// map barrier does not re-validate spill runs, so the reduce-side merge
// parses whatever bytes the spill files hold. Each case runs a forced-spill
// job on the simulated backend, where reduce task 0's reduce function runs
// after every map task finished and before any other reduce task's merge;
// its first call flips, truncates or splices the bytes of one map task's
// spill file. Every case must end in a completed job or in the merge's
// labelled "corrupt spill record" / "spill read failed" error, never in a
// crash; the sanitizer builds run this suite too. A degraded, checkpointed
// variant checks that a merge failing partway reduces only whole groups.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/cluster.h"
#include "mapreduce/job.h"
#include "test_overlays.h"

namespace progres {
namespace {

namespace fs = std::filesystem;

constexpr int kMapTasks = 4;
constexpr int kReduceTasks = 3;
constexpr int kRecords = 8000;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Rewrites `path` in place. The runtime reads through a descriptor it
// holds open, so the file must keep its inode: truncate and write, never
// replace.
void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The spill file map task `task` wrote into `dir` (one per execution).
fs::path SpillFileOf(const fs::path& dir, int task) {
  const std::string tag = "-map" + std::to_string(task) + "-";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(tag) != std::string::npos) {
      return entry.path();
    }
  }
  return {};
}

// Applies seed `seed`'s mutation to one map task's spill file: flip a few
// bytes, truncate, or splice — a prefix of the file, a slice of another
// task's file, and a suffix of the first. `truncate_only` always truncates.
void Mutate(const fs::path& dir, uint64_t seed, bool truncate_only = false) {
  Rng rng(seed);
  const fs::path target =
      SpillFileOf(dir, static_cast<int>(rng.UniformU64(kMapTasks)));
  if (target.empty()) return;
  std::string bytes = ReadFile(target);
  if (bytes.empty()) return;
  switch (truncate_only ? 1 : rng.UniformU64(3)) {
    case 0: {
      const uint64_t flips = 1 + rng.UniformU64(4);
      for (uint64_t i = 0; i < flips; ++i) {
        bytes[rng.UniformU64(bytes.size())] ^=
            static_cast<char>(1 + rng.UniformU64(255));
      }
      WriteFile(target, bytes);
      break;
    }
    case 1:
      fs::resize_file(target, rng.UniformU64(bytes.size()));
      break;
    default: {
      const std::string donor = ReadFile(
          SpillFileOf(dir, static_cast<int>(rng.UniformU64(kMapTasks))));
      const size_t cut = rng.UniformU64(bytes.size());
      const size_t resume = cut + rng.UniformU64(bytes.size() - cut + 1);
      const size_t from = rng.UniformU64(donor.size() + 1);
      const size_t length = rng.UniformU64(donor.size() - from + 1);
      WriteFile(target, bytes.substr(0, cut) + donor.substr(from, length) +
                            bytes.substr(resume));
      break;
    }
  }
}

struct Outcomes {
  int completed = 0;
  int corrupt_record = 0;
  int read_failed = 0;
};

// Runs one forced-spill job with string or integer keys whose first
// reduce-task-0 call mutates the spill files, and tallies its outcome.
template <typename K, typename V>
void RunMutatedJob(uint64_t seed, const fs::path& dir, Outcomes* outcomes) {
  using Job = MapReduceJob<int, K, V>;
  std::vector<int> input(kRecords);
  for (int i = 0; i < kRecords; ++i) input[static_cast<size_t>(i)] = i;
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.shuffle_budget = testing_util::TinySpillBudget();
  cluster.shuffle_budget.spill_dir = dir.string();
  bool mutated = false;
  Job job(kMapTasks, kReduceTasks);
  const typename Job::Result result = job.Run(
      input,
      [](const int& record, typename Job::MapContext* ctx) {
        if constexpr (std::is_same_v<K, std::string>) {
          ctx->Emit("key" + std::to_string(record % 97),
                    static_cast<V>(record));
        } else {
          ctx->Emit(static_cast<K>(record % 97) - 40,
                    std::string(static_cast<size_t>(record % 13), 'v'));
        }
      },
      [&](const K& key, std::vector<V>* values,
          typename Job::ReduceContext* ctx) {
        if (ctx->task_id() == 0 && !mutated) {
          mutated = true;
          Mutate(dir, seed);
        }
        ctx->Emit(key, values->empty() ? V{} : values->front());
      },
      cluster);
  ASSERT_TRUE(mutated) << "seed " << seed << ": reduce task 0 never ran";
  if (!result.failed) {
    ++outcomes->completed;
  } else if (result.error.find("corrupt spill record") != std::string::npos) {
    ++outcomes->corrupt_record;
  } else if (result.error.find("spill read failed") != std::string::npos) {
    ++outcomes->read_failed;
  } else {
    ADD_FAILURE() << "seed " << seed << ": unlabelled failure "
                  << result.error;
  }
  EXPECT_TRUE(fs::is_empty(dir)) << "seed " << seed << " left spill files";
}

template <typename K, typename V>
void CheckSeededMutations(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  Outcomes outcomes;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunMutatedJob<K, V>(seed, dir, &outcomes);
  }
  fs::remove_all(dir);
  // The seed list must reach both labelled errors and a survivable
  // mutation, or it would not exercise the merge's parsers.
  EXPECT_GT(outcomes.completed, 0);
  EXPECT_GT(outcomes.corrupt_record, 0);
  EXPECT_GT(outcomes.read_failed, 0);
}

TEST(SpillFuzzTest, StringKeyedSpillsSurviveSeededMutations) {
  CheckSeededMutations<std::string, int64_t>("progres_spill_fuzz_string");
}

TEST(SpillFuzzTest, IntegerKeyedSpillsSurviveSeededMutations) {
  CheckSeededMutations<int64_t, std::string>("progres_spill_fuzz_int");
}

// One reduce call: its reduce task, key and number of values.
using ReduceCall = std::tuple<int, std::string, size_t>;

// Runs a degraded string-keyed job with checkpoint recovery (a snapshot
// after every group) on a budget whose merge reads each spilled segment in
// many 128-byte chunks, and records its reduce calls. With `seed` > 0,
// reduce task 0's first call truncates one map task's spill file, so
// merges run into the cut partway through their segments.
MapReduceJob<int, std::string, int64_t>::Result RunCheckpointedJob(
    uint64_t seed, const fs::path& dir, std::vector<ReduceCall>* calls) {
  using Job = MapReduceJob<int, std::string, int64_t>;
  std::vector<int> input(kRecords);
  for (int i = 0; i < kRecords; ++i) input[static_cast<size_t>(i)] = i;
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.shuffle_budget.max_bytes = 16 * 1024;
  cluster.shuffle_budget.block_bytes = 128;
  cluster.shuffle_budget.spill_dir = dir.string();
  cluster.control.allow_degraded = true;
  CheckpointStore checkpoints;
  bool mutated = seed == 0;
  Job job(kMapTasks, kReduceTasks);
  job.set_checkpointing(1.0, &checkpoints);
  return job.Run(
      input,
      [](const int& record, Job::MapContext* ctx) {
        ctx->Emit("key" + std::to_string(record % 97), record);
      },
      [&](const std::string& key, std::vector<int64_t>* values,
          Job::ReduceContext* ctx) {
        if (ctx->task_id() == 0 && !mutated) {
          mutated = true;
          Mutate(dir, seed, /*truncate_only=*/true);
        }
        calls->emplace_back(ctx->task_id(), key, values->size());
        ctx->clock().Charge(1.0);
        ctx->Emit(key, values->front());
      },
      cluster);
}

// Degraded mode rewinds a task whose merge failed to its latest snapshot
// and reports what that snapshot covers against the task's whole input,
// so a merge that fails partway must hand only whole groups to the reduce
// function: a group cut short would be snapshotted and reported as
// covered. Records before a truncation stay intact, so every reduce call
// of a truncated run must receive exactly as many values as its group has
// in the intact run.
TEST(SpillFuzzTest, MergeFailingPartwayReducesOnlyWholeGroups) {
  const fs::path dir =
      fs::temp_directory_path() / "progres_spill_fuzz_groups";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<ReduceCall> intact_calls;
  const auto intact = RunCheckpointedJob(0, dir, &intact_calls);
  ASSERT_FALSE(intact.failed) << intact.error;
  ASSERT_FALSE(intact.completeness.degraded);
  std::map<std::pair<int, std::string>, size_t> group_sizes;
  std::map<int, int64_t> task_records;
  for (const auto& [task, key, size] : intact_calls) {
    ASSERT_TRUE(group_sizes.emplace(std::pair(task, key), size).second)
        << "key " << key << " reduced twice";
    task_records[task] += static_cast<int64_t>(size);
  }
  ASSERT_GT(intact.counters.Get("mr.spill.runs"), 0);

  int failed_partway = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::vector<ReduceCall> calls;
    const auto result = RunCheckpointedJob(seed, dir, &calls);
    ASSERT_FALSE(result.failed) << "seed " << seed << ": " << result.error;
    for (const auto& [task, key, size] : calls) {
      const auto it = group_sizes.find(std::pair(task, key));
      ASSERT_NE(it, group_sizes.end())
          << "seed " << seed << ": reduce task " << task << " key " << key;
      EXPECT_EQ(size, it->second)
          << "seed " << seed << ": reduce task " << task << " key " << key
          << " got part of its group";
    }
    for (const TaskReport& report : result.completeness.tasks) {
      // A failed merge still reports its task's whole input as the
      // denominator of its coverage.
      EXPECT_EQ(report.records_total, task_records[report.task])
          << "seed " << seed << ": reduce task " << report.task;
      if (report.kind == TaskOutcomeKind::kQuarantined &&
          report.records_covered > 0) {
        ++failed_partway;
      }
    }
    EXPECT_TRUE(fs::is_empty(dir)) << "seed " << seed << " left spill files";
  }
  fs::remove_all(dir);
  // Some merges must fail after reducing groups, or the seeds would not
  // reach the partial group this test is about.
  EXPECT_GT(failed_partway, 0);
}

}  // namespace
}  // namespace progres
