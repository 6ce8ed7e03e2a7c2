// Microbenchmarks of the similarity primitives: the resolve/match function
// dominates resolution cost, so its building blocks matter.

#include <string>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "similarity/levenshtein.h"
#include "similarity/match_function.h"

namespace progres {
namespace {

std::string RandomString(Rng* rng, size_t length) {
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>('a' + rng->UniformU64(26)));
  }
  return s;
}

void BM_Levenshtein(benchmark::State& state) {
  Rng rng(1);
  const size_t length = static_cast<size_t>(state.range(0));
  const std::string a = RandomString(&rng, length);
  const std::string b = RandomString(&rng, length);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
// The lengths the publication workload compares: a short string (8), the
// mean title (38), one and two 64-bit words (64, 65), the mean abstract
// prefix (163) and the 350-character abstract cap.
BENCHMARK(BM_Levenshtein)
    ->Arg(8)
    ->Arg(38)
    ->Arg(64)
    ->Arg(65)
    ->Arg(163)
    ->Arg(350);

void BM_MatchFunctionResolve(benchmark::State& state) {
  Rng rng(3);
  Entity a;
  a.id = 0;
  a.attributes = {RandomString(&rng, 40), RandomString(&rng, 350),
                  RandomString(&rng, 20)};
  Entity b;
  b.id = 1;
  b.attributes = a.attributes;
  b.attributes[0][5] = '#';
  const MatchFunction match(
      {{0, AttributeSimilarity::kEditDistance, 0.5, 0},
       {1, AttributeSimilarity::kEditDistance, 0.3, 350},
       {2, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  for (auto _ : state) {
    benchmark::DoNotOptimize(match.Resolve(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchFunctionResolve);

}  // namespace
}  // namespace progres

BENCHMARK_MAIN();
