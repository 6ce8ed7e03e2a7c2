// Books deduplication: the paper's OL-Books scenario — eight attributes,
// PSNM progressive mechanism, larger cluster. Shows incremental consumption
// of results: every alpha cost units each reduce task publishes a chunk, and
// this example polls the merged chunks at wall-clock checkpoints, exactly
// how a downstream analysis would consume a progressive ER run.
//
//   build/examples/books_dedup [num_entities]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mechanism/psnm.h"

int main(int argc, char** argv) {
  using namespace progres;
  const int64_t n = argc > 1 ? std::atoll(argv[1]) : 10000;

  BookConfig gen;
  gen.num_entities = n;
  const LabeledDataset data = GenerateBooks(gen);
  BookConfig train_gen;
  train_gen.num_entities = std::max<int64_t>(500, n / 5);
  train_gen.seed = gen.seed + 1;
  const LabeledDataset train = GenerateBooks(train_gen);

  const BlockingConfig blocking({{"X", kBookTitle, {3, 5, 8}, -1},
                                 {"Y", kBookAuthors, {3, 5}, -1},
                                 {"Z", kBookPublisher, {3, 5}, -1}});
  const MatchFunction match(
      {{kBookTitle, AttributeSimilarity::kEditDistance, 0.35, 0},
       {kBookAuthors, AttributeSimilarity::kEditDistance, 0.2, 0},
       {kBookPublisher, AttributeSimilarity::kEditDistance, 0.1, 0},
       {kBookYear, AttributeSimilarity::kExact, 0.1, 0},
       {kBookIsbn, AttributeSimilarity::kEditDistance, 0.1, 0},
       {kBookPages, AttributeSimilarity::kExact, 0.05, 0},
       {kBookLanguage, AttributeSimilarity::kExact, 0.05, 0},
       {kBookEdition, AttributeSimilarity::kExact, 0.05, 0}},
      0.75);
  const PsnmMechanism psnm;
  const ProbabilityModel prob =
      ProbabilityModel::Train(train.dataset, train.truth, blocking);

  ProgressiveErOptions options;
  options.cluster.machines = 15;
  options.cluster.seconds_per_cost_unit = 0.02;
  options.alpha = 2000.0;  // publish a chunk every 2000 cost units
  const ProgressiveEr er(blocking, match, psnm, prob, options);
  const ErRunResult result = er.Run(data.dataset);
  if (result.failed) {
    std::fprintf(stderr, "resolution failed: %s\n", result.error.c_str());
    return 1;
  }

  std::printf("Books: %lld entities, %lld true duplicate pairs\n",
              static_cast<long long>(n),
              static_cast<long long>(data.truth.num_duplicate_pairs()));
  std::printf("Run: preprocessing %.0f s, total %.0f s, %zu result chunks\n\n",
              result.preprocessing_end, result.total_time,
              result.chunks.size());

  // Poll the published (chunk-merged) results at 10 checkpoints.
  std::printf("%-14s %-18s %-10s\n", "checkpoint_s", "published_pairs",
              "recall");
  const double n_pairs = static_cast<double>(data.truth.num_duplicate_pairs());
  for (int i = 1; i <= 10; ++i) {
    const double t = result.total_time * i / 10.0;
    std::unordered_set<PairKey> published;
    int64_t true_pairs = 0;
    for (const ResultChunk& chunk : result.chunks) {
      if (chunk.flush_time > t) continue;
      for (PairKey pair : chunk.pairs) {
        if (!published.insert(pair).second) continue;
        const auto [a, b] = PairKeyIds(pair);
        if (data.truth.IsDuplicate(a, b)) ++true_pairs;
      }
    }
    std::printf("%-14.0f %-18zu %-10.3f\n", t, published.size(),
                static_cast<double>(true_pairs) / n_pairs);
  }
  return 0;
}
