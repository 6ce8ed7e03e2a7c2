#ifndef PROGRES_EVAL_CLUSTERING_H_
#define PROGRES_EVAL_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "model/entity.h"
#include "model/ground_truth.h"

namespace progres {

// Clustering techniques of Sec. II-A: after similarity computation, resolved
// duplicate pairs are grouped into disjoint clusters so that each cluster
// uniquely represents one real-world object.

// Transitive closure [1]: connected components over the duplicate pairs.
// Returns a cluster id per entity (ids are dense, starting at 0).
std::vector<int32_t> TransitiveClosure(int64_t num_entities,
                                       const std::vector<PairKey>& duplicates);

// Pivot-based correlation clustering [22] (the Ailon et al. KwikCluster
// scheme on the duplicate graph): entities are visited in a deterministic
// pivot order; each unclustered pivot grabs every unclustered entity it was
// directly matched with. Unlike transitive closure it does not chain through
// weak links, trading recall for precision.
std::vector<int32_t> CorrelationClustering(
    int64_t num_entities, const std::vector<PairKey>& duplicates);

// Pairwise quality of a clustering against the ground truth.
struct PairMetrics {
  int64_t true_positives = 0;   // intra-cluster pairs that are true dups
  int64_t false_positives = 0;  // intra-cluster pairs that are not
  int64_t false_negatives = 0;  // true dups split across clusters
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

// Computes pairwise precision/recall/F1 of `cluster_of` against `truth`.
// O(sum of cluster sizes squared); intended for evaluation-scale data.
PairMetrics EvaluateClustering(const std::vector<int32_t>& cluster_of,
                               const GroundTruth& truth);

// Same metrics for a raw duplicate-pair set (no clustering step). Every id
// in `duplicates` must lie in [0, truth.num_entities()).
PairMetrics EvaluatePairs(const std::vector<PairKey>& duplicates,
                          const GroundTruth& truth);

}  // namespace progres

#endif  // PROGRES_EVAL_CLUSTERING_H_
