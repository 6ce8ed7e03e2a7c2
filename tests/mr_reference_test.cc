// Differential property test: a trivial single-threaded map/sort/reduce
// reference implementation is run against MapReduceJob on randomized,
// seeded inputs covering custom partitioners, reduce cleanup and fault
// injection — outputs must match exactly. The reference mirrors the Hadoop
// contract the runtime promises (contiguous input splits, keyed shuffle,
// stable merge in map-task order, key-sorted grouping), nothing about the
// runtime's internals.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mapreduce/job.h"

namespace progres {
namespace {

using Job = MapReduceJob<int, int, int>;
using KV = std::pair<int, int>;
using EmitFn = std::function<void(int, int)>;

// One randomized job specification, drawn from a seeded Rng.
struct CaseSpec {
  std::vector<int> input;
  int num_map_tasks = 1;
  int num_reduce_tasks = 1;
  int key_space = 10;
  int emissions_mod = 3;  // record emits 1 + (record % emissions_mod) pairs
  bool custom_partitioner = false;
  bool use_cleanup = false;
  FaultConfig fault;
};

CaseSpec DrawCase(Rng* rng) {
  CaseSpec spec;
  const int n = static_cast<int>(rng->UniformInt(0, 300));
  spec.input.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    spec.input.push_back(static_cast<int>(rng->UniformInt(0, 1000)));
  }
  spec.num_map_tasks = static_cast<int>(rng->UniformInt(1, 6));
  spec.num_reduce_tasks = static_cast<int>(rng->UniformInt(1, 5));
  spec.key_space = static_cast<int>(rng->UniformInt(1, 40));
  spec.emissions_mod = static_cast<int>(rng->UniformInt(1, 4));
  spec.custom_partitioner = rng->Bernoulli(0.5);
  spec.use_cleanup = rng->Bernoulli(0.5);
  if (rng->Bernoulli(0.4)) {
    spec.fault.enabled = true;
    spec.fault.seed = rng->NextU64();
    spec.fault.map_failure_prob = rng->UniformDouble() * 0.4;
    spec.fault.reduce_failure_prob = rng->UniformDouble() * 0.4;
    // High enough that no drawn failure probability can realistically
    // exhaust the chain (0.4^12 per task); the suite stays deterministic.
    spec.fault.max_attempts = 12;
  }
  return spec;
}

// The job's logic, shared verbatim by both implementations.
void MapLogic(const CaseSpec& spec, int record, const EmitFn& emit) {
  const int emissions = 1 + record % spec.emissions_mod;
  for (int j = 0; j < emissions; ++j) {
    emit((record * 7 + j * 13) % spec.key_space, record + j);
  }
}

int PartitionLogic(const CaseSpec& spec, int key, int r) {
  if (spec.custom_partitioner) return ((key % r) + r) % r;
  return static_cast<int>(std::hash<int>{}(key) % static_cast<size_t>(r));
}

void ReduceLogic(int key, std::vector<int>* values, const EmitFn& emit) {
  int sum = 0;
  int alt = 0;
  int sign = 1;
  for (int v : *values) {
    sum += v;
    alt += sign * v;  // order-sensitive: catches merge-order bugs
    sign = -sign;
  }
  emit(key, sum);
  emit(key * 2 + 1, alt);
}

void CleanupLogic(int task_id, const EmitFn& emit) {
  emit(-100 - task_id, task_id);
}

// ---- Reference implementation: sequential map/sort/reduce ----

std::vector<KV> ReferenceRun(const CaseSpec& spec) {
  const int m = spec.num_map_tasks;
  const int r = spec.num_reduce_tasks;
  const size_t n = spec.input.size();

  // Map phase: contiguous splits, per-task partition buckets.
  std::vector<std::vector<std::vector<KV>>> buckets(
      static_cast<size_t>(m),
      std::vector<std::vector<KV>>(static_cast<size_t>(r)));
  for (int t = 0; t < m; ++t) {
    const size_t lo = n * static_cast<size_t>(t) / static_cast<size_t>(m);
    const size_t hi = n * static_cast<size_t>(t + 1) / static_cast<size_t>(m);
    auto& task_buckets = buckets[static_cast<size_t>(t)];
    for (size_t i = lo; i < hi; ++i) {
      MapLogic(spec, spec.input[i], [&](int key, int value) {
        const int p = PartitionLogic(spec, key, r);
        task_buckets[static_cast<size_t>(p)].emplace_back(key, value);
      });
    }
  }

  // Reduce phase: merge in map-task order, stable sort by key, group.
  std::vector<KV> outputs;
  for (int task = 0; task < r; ++task) {
    std::vector<KV> pairs;
    for (int t = 0; t < m; ++t) {
      const auto& bucket =
          buckets[static_cast<size_t>(t)][static_cast<size_t>(task)];
      pairs.insert(pairs.end(), bucket.begin(), bucket.end());
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const KV& a, const KV& b) {
                       return a.first < b.first;
                     });
    const EmitFn emit = [&](int key, int value) {
      outputs.emplace_back(key, value);
    };
    size_t i = 0;
    while (i < pairs.size()) {
      size_t j = i;
      while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
      std::vector<int> values;
      for (size_t k = i; k < j; ++k) values.push_back(pairs[k].second);
      ReduceLogic(pairs[i].first, &values, emit);
      i = j;
    }
    if (spec.use_cleanup) CleanupLogic(task, emit);
  }
  return outputs;
}

// ---- Runtime under test ----

std::vector<KV> RuntimeRun(const CaseSpec& spec) {
  Job job(spec.num_map_tasks, spec.num_reduce_tasks);
  job.set_map_cost_per_record(0.1);
  job.set_partitioner([&spec](const int& key, int r) {
    return PartitionLogic(spec, key, r);
  });
  if (spec.use_cleanup) {
    job.set_reduce_cleanup([](Job::ReduceContext* ctx) {
      CleanupLogic(ctx->task_id(), [ctx](int key, int value) {
        ctx->Emit(key, value);
      });
    });
  }
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.fault = spec.fault;
  const Job::Result result = job.Run(
      spec.input,
      [&spec](const int& record, Job::MapContext* ctx) {
        MapLogic(spec, record, [ctx](int key, int value) {
          ctx->Emit(key, value);
        });
      },
      [](const int& key, std::vector<int>* values, Job::ReduceContext* ctx) {
        ReduceLogic(key, values, [ctx](int k, int v) { ctx->Emit(k, v); });
      },
      cluster);
  EXPECT_FALSE(result.failed) << result.error;
  return result.outputs;
}

TEST(MrReferenceTest, RandomizedDifferential) {
  Rng rng(20260806);
  int faulted_cases = 0;
  for (int c = 0; c < 50; ++c) {
    const CaseSpec spec = DrawCase(&rng);
    if (spec.fault.enabled) ++faulted_cases;
    const std::vector<KV> expected = ReferenceRun(spec);
    const std::vector<KV> actual = RuntimeRun(spec);
    ASSERT_EQ(actual, expected)
        << "case " << c << ": n=" << spec.input.size()
        << " m=" << spec.num_map_tasks << " r=" << spec.num_reduce_tasks
        << " keys=" << spec.key_space
        << " cleanup=" << spec.use_cleanup
        << " custom_part=" << spec.custom_partitioner
        << " fault=" << spec.fault.enabled;
  }
  // The draw should exercise the fault path in a healthy share of cases.
  EXPECT_GE(faulted_cases, 5);
}

TEST(MrReferenceTest, EmptyInputMatchesReference) {
  CaseSpec spec;
  spec.input = {};
  spec.num_map_tasks = 3;
  spec.num_reduce_tasks = 2;
  spec.use_cleanup = true;
  EXPECT_EQ(RuntimeRun(spec), ReferenceRun(spec));
}

TEST(MrReferenceTest, SingleRecordAllHooks) {
  CaseSpec spec;
  spec.input = {42};
  spec.num_map_tasks = 4;  // three empty splits
  spec.num_reduce_tasks = 3;
  spec.key_space = 5;
  spec.use_cleanup = true;
  spec.custom_partitioner = true;
  EXPECT_EQ(RuntimeRun(spec), ReferenceRun(spec));
}

}  // namespace
}  // namespace progres
