#ifndef PROGRES_ESTIMATE_PROB_MODEL_H_
#define PROGRES_ESTIMATE_PROB_MODEL_H_

#include <cstdint>
#include <vector>

#include "blocking/blocking_function.h"
#include "model/dataset.h"
#include "model/ground_truth.h"

namespace progres {

// The duplicate-probability model of Sec. VI-A4: the probability that a pair
// of entities placed together in a block is a duplicate, learned from a
// training dataset as a function of the block's size fraction |X| / |D|.
// The fraction range [0, 1] is divided into variable-size (logarithmic)
// sub-ranges and one probability is learned per (family, level, sub-range),
// with coarser fallbacks for sub-ranges not seen during training.
class ProbabilityModel {
 public:
  // Builds the model from a labeled training dataset: forests are built over
  // `train`, each block's true duplicate-pair fraction is measured against
  // `truth`, and per-bucket ratios are aggregated. `truth` must hold a
  // cluster for every entity of `train`.
  static ProbabilityModel Train(const Dataset& train, const GroundTruth& truth,
                                const BlockingConfig& config);

  // Returns the learned probability that a pair in a block of `block_size`
  // entities (from family `f`, level `level`, out of `dataset_size` total
  // entities) is a duplicate.
  double Probability(int f, int level, int64_t block_size,
                     int64_t dataset_size) const;

  // Number of fraction sub-ranges.
  static int num_buckets();

  // Index of the sub-range containing fraction `block_size / dataset_size`.
  static int BucketOf(int64_t block_size, int64_t dataset_size);

 private:
  struct Cell {
    double dup_pairs = 0.0;
    double total_pairs = 0.0;
  };

  // cells_[f][level-1][bucket]; fallback aggregates per bucket.
  std::vector<std::vector<std::vector<Cell>>> cells_;
  std::vector<Cell> global_;
};

}  // namespace progres

#endif  // PROGRES_ESTIMATE_PROB_MODEL_H_
