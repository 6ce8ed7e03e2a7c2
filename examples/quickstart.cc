// Quickstart: resolve the paper's toy people dataset (Table I) end to end
// with the progressive approach, then print the duplicate pairs and the
// resulting entity clusters.
//
//   build/examples/quickstart

#include <cstdio>
#include <map>
#include <vector>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mechanism/sorted_neighbor.h"
#include "model/union_find.h"

int main() {
  using namespace progres;

  // 1. The dataset: 9 people records, 6 real-world persons (Table I).
  const LabeledDataset toy = GeneratePeopleToy();
  std::printf("Input entities:\n");
  for (const Entity& e : toy.dataset.entities()) {
    std::printf("  e%d  %-16s %s\n", e.id + 1,
                std::string(e.attribute(0)).c_str(),
                std::string(e.attribute(1)).c_str());
  }

  // 2. Blocking functions: X = first two characters of the name (with a
  //    4-character sub-blocking function), Y = the state. X dominates Y.
  const BlockingConfig blocking({{"X", 0, {2, 4}, -1}, {"Y", 1, {2}, -1}});

  // 3. The resolve/match function: edit similarity of the name, exact state.
  const MatchFunction match(
      {{0, AttributeSimilarity::kEditDistance, 0.8, 0},
       {1, AttributeSimilarity::kExact, 0.2, 0}},
      0.75);

  // 4. The progressive mechanism M: Sorted Neighbor with the distance hint.
  const SortedNeighborMechanism sn;

  // 5. A probability model. Real deployments train on a labeled sample; the
  //    toy dataset trains on itself.
  const ProbabilityModel prob =
      ProbabilityModel::Train(toy.dataset, toy.truth, blocking);

  // 6. Run on a small simulated cluster.
  ProgressiveErOptions options;
  options.cluster.machines = 2;
  const ProgressiveEr er(blocking, match, sn, prob, options);
  const ErRunResult result = er.Run(toy.dataset);
  if (result.failed) {
    std::fprintf(stderr, "resolution failed: %s\n", result.error.c_str());
    return 1;
  }

  std::printf("\nDuplicate pairs found (%zu):\n", result.duplicates.size());
  for (PairKey pair : result.duplicates) {
    const auto [a, b] = PairKeyIds(pair);
    std::printf("  e%d <-> e%d\n", a + 1, b + 1);
  }

  // 7. Transitive closure into clusters.
  UnionFind clusters(toy.dataset.size());
  for (PairKey pair : result.duplicates) {
    const auto [a, b] = PairKeyIds(pair);
    clusters.Union(a, b);
  }
  std::map<int64_t, std::vector<EntityId>> members;
  for (EntityId id = 0; id < toy.dataset.size(); ++id) {
    members[clusters.Find(id)].push_back(id);
  }
  std::printf("\nClusters (%zu real-world objects):\n", members.size());
  for (const auto& [root, ids] : members) {
    (void)root;
    std::printf(" ");
    for (EntityId id : ids) std::printf(" e%d", id + 1);
    std::printf("\n");
  }

  const RecallCurve curve = RecallCurve::FromEvents(result.events, toy.truth);
  std::printf("\nRecall: %.2f (%lld of %lld true pairs)\n",
              curve.final_recall(),
              static_cast<long long>(
                  curve.final_recall() *
                  static_cast<double>(toy.truth.num_duplicate_pairs()) + 0.5),
              static_cast<long long>(toy.truth.num_duplicate_pairs()));
  return 0;
}
