// Microbenchmarks of the resolved-pair memory: the flat PairSet against the
// node-based std::unordered_set<PairKey> it replaced, at 10^4, 10^5 and 10^6
// pair keys. Insert builds a fresh set (destruction untimed), Lookup probes
// a built set with half present and half absent keys, and Destroy times
// freeing a built set — the step the node set pays once per key. Destroy
// runs a fixed number of iterations: each one builds its set untimed, and a
// flat set frees in microseconds, so a minimum time would mean thousands of
// untimed builds.

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "model/pair_set.h"

namespace progres {
namespace {

using NodeSet = std::unordered_set<PairKey>;

bool Insert(PairSet* set, PairKey key) { return set->insert(key); }
bool Insert(NodeSet* set, PairKey key) { return set->insert(key).second; }
bool Contains(const PairSet& set, PairKey key) { return set.contains(key); }
bool Contains(const NodeSet& set, PairKey key) { return set.count(key) > 0; }

// `n` distinct pair-shaped keys over 2^20 entity ids, from a seeded Rng.
std::vector<PairKey> PairKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  PairSet seen;
  std::vector<PairKey> keys;
  keys.reserve(n);
  while (keys.size() < n) {
    const auto a = static_cast<EntityId>(rng.UniformU64(1u << 20));
    const auto b = static_cast<EntityId>(rng.UniformU64(1u << 20));
    if (a == b) continue;
    const PairKey key = MakePairKey(a, b);
    if (seen.insert(key)) keys.push_back(key);
  }
  return keys;
}

template <typename Set>
std::unique_ptr<Set> Build(const std::vector<PairKey>& keys) {
  auto set = std::make_unique<Set>();
  for (const PairKey key : keys) Insert(set.get(), key);
  return set;
}

template <typename Set>
void BM_Insert(benchmark::State& state) {
  const std::vector<PairKey> keys =
      PairKeys(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto set = std::make_unique<Set>();
    for (const PairKey key : keys) {
      benchmark::DoNotOptimize(Insert(set.get(), key));
    }
    benchmark::ClobberMemory();
    state.PauseTiming();
    set.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}

template <typename Set>
void BM_Lookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // The first n keys go in; probes alternate between them and n others.
  const std::vector<PairKey> keys = PairKeys(2 * n, 2);
  const std::unique_ptr<Set> set =
      Build<Set>(std::vector<PairKey>(keys.begin(), keys.begin() + n));
  std::vector<PairKey> probes;
  probes.reserve(n);
  for (size_t i = 0; i < n; ++i) probes.push_back(keys[i % 2 == 0 ? i : n + i]);
  for (auto _ : state) {
    int64_t hits = 0;
    for (const PairKey key : probes) hits += Contains(*set, key) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

template <typename Set>
void BM_Destroy(benchmark::State& state) {
  const std::vector<PairKey> keys =
      PairKeys(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Set> set = Build<Set>(keys);
    state.ResumeTiming();
    set.reset();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}

void Sizes(benchmark::internal::Benchmark* b) {
  b->Arg(10000)->Arg(100000)->Arg(1000000);
}
BENCHMARK_TEMPLATE(BM_Insert, PairSet)->Apply(Sizes);
BENCHMARK_TEMPLATE(BM_Insert, NodeSet)->Apply(Sizes);
BENCHMARK_TEMPLATE(BM_Lookup, PairSet)->Apply(Sizes);
BENCHMARK_TEMPLATE(BM_Lookup, NodeSet)->Apply(Sizes);
BENCHMARK_TEMPLATE(BM_Destroy, PairSet)->Apply(Sizes)->Iterations(10);
BENCHMARK_TEMPLATE(BM_Destroy, NodeSet)->Apply(Sizes)->Iterations(10);

}  // namespace
}  // namespace progres

BENCHMARK_MAIN();
