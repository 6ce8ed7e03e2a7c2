#ifndef PROGRES_MODEL_GROUND_TRUTH_H_
#define PROGRES_MODEL_GROUND_TRUTH_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "model/entity.h"

namespace progres {

// Ground truth for a dataset: the partition of entities into real-world
// objects. Built from a cluster id per entity; exposes the set of duplicate
// pairs (all intra-cluster pairs), which is what recall is computed against.
class GroundTruth {
 public:
  GroundTruth() = default;

  // `cluster_of[i]` is the real-world object id of entity i.
  explicit GroundTruth(std::vector<int32_t> cluster_of);

  // True if entities a and b refer to the same real-world object.
  bool IsDuplicate(EntityId a, EntityId b) const {
    return cluster_of_[static_cast<size_t>(a)] ==
           cluster_of_[static_cast<size_t>(b)];
  }

  // Total number of duplicate pairs N (the recall denominator; Eq. 1).
  int64_t num_duplicate_pairs() const { return num_duplicate_pairs_; }

  int64_t num_entities() const {
    return static_cast<int64_t>(cluster_of_.size());
  }

  int32_t cluster_of(EntityId id) const {
    return cluster_of_[static_cast<size_t>(id)];
  }

  // Enumerates every duplicate pair key. Intended for tests and evaluation
  // on laptop-scale datasets (pair count is O(sum of cluster_size^2)).
  std::vector<PairKey> AllDuplicatePairs() const;

  // Persists as TSV (entity_id, cluster_id). Returns false on I/O failure.
  bool SaveTsv(const std::string& path) const;

  // Loads a file written by SaveTsv: one (entity_id, cluster_id) row per
  // entity, so each id in [0, rows) appears exactly once and both fields
  // are decimal integers. On failure returns false and sets `*error` to a
  // message naming `path` and the offending line.
  static bool LoadTsv(const std::string& path, GroundTruth* out,
                      std::string* error);

 private:
  std::vector<int32_t> cluster_of_;
  int64_t num_duplicate_pairs_ = 0;
};

}  // namespace progres

#endif  // PROGRES_MODEL_GROUND_TRUTH_H_
