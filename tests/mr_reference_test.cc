// Differential property test: a trivial single-threaded map/sort/reduce
// reference implementation is run against MapReduceJob on randomized,
// seeded inputs covering custom partitioners, reduce cleanup, fault
// injection, shuffle budgets that spill (so the reduce side k-way merges
// tens to hundreds of runs) and integer or string keys, the latter sharing
// their first 8 bytes or running past them — outputs must match exactly.
// The reference mirrors the Hadoop contract the runtime promises
// (contiguous input splits, keyed shuffle, stable merge in map-task order,
// key-sorted grouping), nothing about the runtime's internals. A second
// check feeds Shuffle::Merge a given number of sorted sources directly.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mapreduce/job.h"
#include "mapreduce/serde.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"
#include "test_overlays.h"

namespace progres {
namespace {

// Which keys a case's pairs carry: small integers (the merge's prefixes
// are exact), strings sharing their first 8 bytes (every tie of the
// merge's prefixes needs the full compare), or strings longer than 8
// bytes with varied heads.
enum class KeyKind { kInt, kSharedPrefix, kLong };

// One randomized job specification, drawn from a seeded Rng.
struct CaseSpec {
  std::vector<int> input;
  int num_map_tasks = 1;
  int num_reduce_tasks = 1;
  int key_space = 10;
  int emissions_mod = 3;  // record emits 1 + (record % emissions_mod) pairs
  bool custom_partitioner = false;
  bool use_cleanup = false;
  KeyKind keys = KeyKind::kInt;
  ShuffleBudget budget;  // max_bytes 0: everything stays in memory
  FaultConfig fault;
};

CaseSpec DrawCase(Rng* rng) {
  CaseSpec spec;
  // No budget, the tiny one (a spill run per 4 KiB of a map task's
  // output: tens to hundreds of merge sources per partition) or a middle
  // one (a few larger runs per task). Spilling cases get inputs large
  // enough to spill.
  switch (rng->UniformInt(0, 2)) {
    case 1:
      spec.budget = testing_util::TinySpillBudget();
      break;
    case 2:
      spec.budget.max_bytes = 48 * 1024;
      spec.budget.block_bytes = 4096;
      break;
    default:
      break;
  }
  const int max_records = spec.budget.max_bytes > 0 ? 4000 : 300;
  const int n = static_cast<int>(rng->UniformInt(0, max_records));
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
  spec.keys = static_cast<KeyKind>(rng->UniformInt(0, 2));
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

// The job's logic, shared verbatim by both implementations. `K` is int
// (KeyKind::kInt) or std::string (the other kinds); key k of the case's
// key space maps to KeyOf(k).
template <typename K>
K KeyOf(const CaseSpec& spec, int k);

template <>
int KeyOf<int>(const CaseSpec& /*spec*/, int k) {
  return k;
}

template <>
std::string KeyOf<std::string>(const CaseSpec& spec, int k) {
  if (spec.keys == KeyKind::kSharedPrefix) {
    return "shared8:" + std::to_string(k);
  }
  return std::string(1, static_cast<char>('a' + k % 7)) + "-long-key-" +
         std::to_string(k * 37 % 101) + "/" + std::to_string(k);
}

// A second output key per group, derived from the group's key.
int DerivedKey(int key) { return key * 2 + 1; }
std::string DerivedKey(const std::string& key) { return key + "~alt"; }

template <typename K>
using EmitFn = std::function<void(const K&, int)>;

template <typename K>
void MapLogic(const CaseSpec& spec, int record, const EmitFn<K>& emit) {
  const int emissions = 1 + record % spec.emissions_mod;
  for (int j = 0; j < emissions; ++j) {
    emit(KeyOf<K>(spec, (record * 7 + j * 13) % spec.key_space), record + j);
  }
}

int PartitionLogic(const CaseSpec& spec, int key, int r) {
  if (spec.custom_partitioner) return ((key % r) + r) % r;
  return static_cast<int>(std::hash<int>{}(key) % static_cast<size_t>(r));
}

int PartitionLogic(const CaseSpec& spec, const std::string& key, int r) {
  if (spec.custom_partitioner) {
    return static_cast<int>(Fnv1a64(key) % static_cast<uint64_t>(r));
  }
  return static_cast<int>(std::hash<std::string>{}(key) %
                          static_cast<size_t>(r));
}

template <typename K>
void ReduceLogic(const K& key, std::vector<int>* values,
                 const EmitFn<K>& emit) {
  int sum = 0;
  int alt = 0;
  int sign = 1;
  for (int v : *values) {
    sum += v;
    alt += sign * v;  // order-sensitive: catches merge-order bugs
    sign = -sign;
  }
  emit(key, sum);
  emit(DerivedKey(key), alt);
}

template <typename K>
void CleanupLogic(const CaseSpec& spec, int task_id, const EmitFn<K>& emit) {
  emit(KeyOf<K>(spec, 1000 + task_id), task_id);
}

template <typename K>
using KV = std::pair<K, int>;

// ---- Reference implementation: sequential map/sort/reduce ----

template <typename K>
std::vector<KV<K>> ReferenceRun(const CaseSpec& spec) {
  const int m = spec.num_map_tasks;
  const int r = spec.num_reduce_tasks;
  const size_t n = spec.input.size();

  // Map phase: contiguous splits, per-task partition buckets.
  std::vector<std::vector<std::vector<KV<K>>>> buckets(
      static_cast<size_t>(m),
      std::vector<std::vector<KV<K>>>(static_cast<size_t>(r)));
  for (int t = 0; t < m; ++t) {
    const size_t lo = n * static_cast<size_t>(t) / static_cast<size_t>(m);
    const size_t hi = n * static_cast<size_t>(t + 1) / static_cast<size_t>(m);
    auto& task_buckets = buckets[static_cast<size_t>(t)];
    for (size_t i = lo; i < hi; ++i) {
      MapLogic<K>(spec, spec.input[i], [&](const K& key, int value) {
        const int p = PartitionLogic(spec, key, r);
        task_buckets[static_cast<size_t>(p)].emplace_back(key, value);
      });
    }
  }

  // Reduce phase: merge in map-task order, stable sort by key, group.
  std::vector<KV<K>> outputs;
  for (int task = 0; task < r; ++task) {
    std::vector<KV<K>> pairs;
    for (int t = 0; t < m; ++t) {
      const auto& bucket =
          buckets[static_cast<size_t>(t)][static_cast<size_t>(task)];
      pairs.insert(pairs.end(), bucket.begin(), bucket.end());
    }
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const KV<K>& a, const KV<K>& b) {
                       return a.first < b.first;
                     });
    const EmitFn<K> emit = [&](const K& key, int value) {
      outputs.emplace_back(key, value);
    };
    size_t i = 0;
    while (i < pairs.size()) {
      size_t j = i;
      while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
      std::vector<int> values;
      for (size_t k = i; k < j; ++k) values.push_back(pairs[k].second);
      ReduceLogic<K>(pairs[i].first, &values, emit);
      i = j;
    }
    if (spec.use_cleanup) CleanupLogic<K>(spec, task, emit);
  }
  return outputs;
}

// ---- Runtime under test ----

template <typename K>
typename MapReduceJob<int, K, int>::Result RuntimeRun(const CaseSpec& spec) {
  using Job = MapReduceJob<int, K, int>;
  Job job(spec.num_map_tasks, spec.num_reduce_tasks);
  job.set_map_cost_per_record(0.1);
  job.set_partitioner([&spec](const K& key, int r) {
    return PartitionLogic(spec, key, r);
  });
  if (spec.use_cleanup) {
    job.set_reduce_cleanup([&spec](typename Job::ReduceContext* ctx) {
      CleanupLogic<K>(spec, ctx->task_id(), [ctx](const K& key, int value) {
        ctx->Emit(key, value);
      });
    });
  }
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  cluster.shuffle_budget = spec.budget;
  cluster.fault = spec.fault;
  typename Job::Result result = job.Run(
      spec.input,
      [&spec](const int& record, typename Job::MapContext* ctx) {
        MapLogic<K>(spec, record, [ctx](const K& key, int value) {
          ctx->Emit(key, value);
        });
      },
      [](const K& key, std::vector<int>* values,
         typename Job::ReduceContext* ctx) {
        ReduceLogic<K>(key, values, [ctx](const K& k, int v) {
          ctx->Emit(k, v);
        });
      },
      cluster);
  EXPECT_FALSE(result.failed) << result.error;
  return result;
}

// Runs `spec` through both implementations; true when the runtime spilled.
template <typename K>
bool ExpectMatchesReference(const CaseSpec& spec, int c) {
  const std::vector<KV<K>> expected = ReferenceRun<K>(spec);
  const auto result = RuntimeRun<K>(spec);
  EXPECT_EQ(result.outputs, expected)
      << "case " << c << ": n=" << spec.input.size()
      << " m=" << spec.num_map_tasks << " r=" << spec.num_reduce_tasks
      << " keys=" << spec.key_space
      << " key_kind=" << static_cast<int>(spec.keys)
      << " budget=" << spec.budget.max_bytes
      << " cleanup=" << spec.use_cleanup
      << " custom_part=" << spec.custom_partitioner
      << " fault=" << spec.fault.enabled;
  return result.counters.Get("mr.spill.runs") > 0;
}

TEST(MrReferenceTest, RandomizedDifferential) {
  Rng rng(20260806);
  int faulted_cases = 0;
  int spilled_cases = 0;
  int string_spilled_cases = 0;
  for (int c = 0; c < 60; ++c) {
    const CaseSpec spec = DrawCase(&rng);
    if (spec.fault.enabled) ++faulted_cases;
    const bool spilled = spec.keys == KeyKind::kInt
                             ? ExpectMatchesReference<int>(spec, c)
                             : ExpectMatchesReference<std::string>(spec, c);
    if (spilled) ++spilled_cases;
    if (spilled && spec.keys != KeyKind::kInt) ++string_spilled_cases;
    if (HasFailure()) return;
  }
  // The draw should exercise the fault path and the spilled k-way merge,
  // with string keys too, in a healthy share of cases.
  EXPECT_GE(faulted_cases, 5);
  EXPECT_GE(spilled_cases, 15);
  EXPECT_GE(string_spilled_cases, 8);
}

// ---- Shuffle::Merge on its own ----

// Records of fixed encoded size: the value pads (key, value) to kRecordBytes
// and carries the record's emission number, so a budget of c records'
// bytes closes every spill run after exactly c records.
constexpr size_t kRecordBytes = 48;

template <typename K>
std::string PaddedValue(const K& key, int number) {
  std::string encoded;
  KvCodec<K>::Encode(key, &encoded);
  const size_t width = kRecordBytes - encoded.size() - 1;  // 1: length byte
  std::string digits = std::to_string(number);
  return std::string(width - digits.size(), '0') + digits;
}

// Collects a merge's groups as a typed reduce side would, decoding every
// record's key (the merge passes the key's length) to check that each
// record sits in its key's group.
template <typename K>
class CollectingSink final : public Shuffle::MergeSink {
 public:
  bool Take(std::string_view in, size_t key_size, bool opens,
            size_t* size) override {
    size_t offset = 0;
    K key{};
    std::string value;
    if (!KvCodec<K>::Decode(in, &offset, &key) ||
        !KvCodec<std::string>::Decode(in, &offset, &value)) {
      return false;
    }
    size_t key_end = 0;
    K again{};
    EXPECT_TRUE(KvCodec<K>::Decode(in, &key_end, &again));
    EXPECT_EQ(key_end, key_size);
    if (opens) {
      groups.emplace_back(key, std::vector<std::string>());
    } else {
      EXPECT_FALSE(groups.empty());
      if (groups.empty()) return false;
      EXPECT_EQ(key, groups.back().first) << "record outside its key's group";
    }
    groups.back().second.push_back(std::move(value));
    *size = offset;
    return true;
  }
  void Finish() override { finished = true; }

  std::vector<std::pair<K, std::vector<std::string>>> groups;
  bool finished = false;
};

// Merges exactly `sources` sorted sources of one partition through
// Shuffle::Merge and checks its groups against a stable sort of the pairs
// in (map task, emission) order: the same keys in the same order, each
// group's values in the same order. Map output i contributes runs of
// kRun records, and every odd output also a memory tail of 1 or 2
// records; keys come from `pool`, so equal keys spread over sources.
template <typename K>
void ExpectMergeMatchesStableSort(const std::vector<K>& pool, int sources) {
  SCOPED_TRACE("sources " + std::to_string(sources));
  constexpr int kRun = 3;
  std::string error;
  Shuffle::SpillConfig spill;
  spill.enabled = true;
  spill.task_buffer_bytes = static_cast<int64_t>(kRun * kRecordBytes);
  spill.block_bytes = 4096;
  spill.dir = ResolveSpillDir("", &error);
  ASSERT_TRUE(error.empty()) << error;
  Shuffle shuffle(1, KeyFormatOf<K>());
  shuffle.set_spill(spill);

  const int outputs = std::min(sources, 16);
  std::vector<std::unique_ptr<Shuffle::MapOutput>> maps;
  std::vector<Shuffle::MapOutput*> views;
  std::vector<std::pair<K, std::string>> pairs;  // (map task, emission)
  Rng rng(static_cast<uint64_t>(sources) * 7919);
  int expected_tails = 0;
  for (int i = 0; i < outputs; ++i) {
    const int owned = sources / outputs + (i < sources % outputs ? 1 : 0);
    const bool tail = i % 2 == 1;
    const int records =
        tail ? (owned - 1) * kRun + 1 + static_cast<int>(rng.UniformInt(0, 1))
             : owned * kRun;
    if (tail) ++expected_tails;
    auto& map = maps.emplace_back(std::make_unique<Shuffle::MapOutput>());
    map->Reset(shuffle, i);
    for (int j = 0; j < records; ++j) {
      const K& key = pool[rng.UniformU64(pool.size())];
      std::string value = PaddedValue(key, static_cast<int>(pairs.size()));
      std::string record;
      KvCodec<K>::Encode(key, &record);
      KvCodec<std::string>::Encode(value, &record);
      map->Add(0, record);
      pairs.emplace_back(key, std::move(value));
    }
    ASSERT_TRUE(map->spill_error().empty()) << map->spill_error();
    views.push_back(map.get());
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  Shuffle::Merge merge(shuffle, views, 0);
  ASSERT_TRUE(merge.spilled());
  ASSERT_EQ(merge.records(), pairs.size());
  CollectingSink<K> sink;
  merge.ForEachGroup(merge.records() + 1, sink);
  EXPECT_TRUE(merge.stats().error.empty()) << merge.stats().error;
  EXPECT_TRUE(sink.finished);
  size_t at = 0;
  for (const auto& [key, values] : sink.groups) {
    ASSERT_LT(at, pairs.size());
    EXPECT_EQ(key, pairs[at].first) << "group at " << at;
    for (const std::string& value : values) {
      ASSERT_LT(at, pairs.size());
      EXPECT_EQ(value, pairs[at].second) << "record " << at;
      ++at;
    }
    if (at < pairs.size()) {
      EXPECT_NE(pairs[at].first, key) << "group split";
    }
  }
  EXPECT_EQ(at, pairs.size());
  EXPECT_EQ(merge.stats().runs_merged + expected_tails, sources);
}

constexpr int kMergeSourceCounts[] = {1, 2, 3, 63, 64, 65, 520, 521};

TEST(MrReferenceTest, SpilledMergeMatchesStableSortStringKeys) {
  // Keys wholly inside the merge's 64-bit prefix ("a" vs "a\0"), keys
  // sharing their first 7 or 8 bytes, and long ones.
  const std::vector<std::string> pool = {
      "",         "a",        std::string("a\0", 2), "ab",
      "abcdefg",  "abcdefgh", "abcdefgh0",           "abcdefgh1",
      "abcdefgi", "shared8:1", "shared8:10",         "shared8:2",
      std::string(40, 'z'), "\xff\xff\xff\xff\xff\xff\xff\xff"};
  for (const int sources : kMergeSourceCounts) {
    ExpectMergeMatchesStableSort(pool, sources);
  }
}

TEST(MrReferenceTest, SpilledMergeMatchesStableSortInt64Keys) {
  using Limits = std::numeric_limits<int64_t>;
  const std::vector<int64_t> pool = {Limits::min(), Limits::min() + 1, -300,
                                     -1,            0,                 1,
                                     127,           128,               1 << 20,
                                     Limits::max() - 1, Limits::max()};
  for (const int sources : kMergeSourceCounts) {
    ExpectMergeMatchesStableSort(pool, sources);
  }
}

TEST(MrReferenceTest, EmptyInputMatchesReference) {
  CaseSpec spec;
  spec.input = {};
  spec.num_map_tasks = 3;
  spec.num_reduce_tasks = 2;
  spec.use_cleanup = true;
  EXPECT_EQ(RuntimeRun<int>(spec).outputs, ReferenceRun<int>(spec));
}

TEST(MrReferenceTest, SingleRecordAllHooks) {
  CaseSpec spec;
  spec.input = {42};
  spec.num_map_tasks = 4;  // three empty splits
  spec.num_reduce_tasks = 3;
  spec.key_space = 5;
  spec.use_cleanup = true;
  spec.custom_partitioner = true;
  EXPECT_EQ(RuntimeRun<int>(spec).outputs, ReferenceRun<int>(spec));
}

}  // namespace
}  // namespace progres
