#ifndef PROGRES_SCHEDULE_SCHEDULE_H_
#define PROGRES_SCHEDULE_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "estimate/annotated_forest.h"

namespace progres {

// Reference to a block across the per-family forests.
struct BlockRef {
  int family = 0;
  int node = 0;

  bool operator==(const BlockRef& other) const {
    return family == other.family && node == other.node;
  }
};

// Packs a BlockRef into a map key.
inline uint64_t BlockRefKey(int family, int node) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(family)) << 32) |
         static_cast<uint32_t>(node);
}
inline uint64_t BlockRefKey(const BlockRef& ref) {
  return BlockRefKey(ref.family, ref.node);
}

// Which reduce-side scheduling algorithm to use. The first three are the
// tree schedulers Sec. VI-B2 compares; the last two are Kolb/Thor/Rahm's
// pair-level load balancers ("Load Balancing for MapReduce-based Entity
// Resolution"), which schedule match-task units finer than a block.
enum class TreeScheduler {
  kOurs,        // split overflowed trees + slack-based greedy partitioning
  kNoSplit,     // our partitioning without the tree-split mechanism
  kLpt,         // Longest Processing Time load balancing [23]
  kBlockSplit,  // split oversized blocks into single/cross sub-block tasks
  kPairRange,   // carve the global pair enumeration into contiguous ranges
};

// Inputs to schedule generation (Sec. IV-C).
struct ScheduleParams {
  int num_reduce_tasks = 4;
  // The sampled cost vector C = {c_1 < c_2 < ... < c_k}, in per-task cost
  // units. Use MakeUniformCostVector for a sensible default.
  std::vector<double> cost_vector;
  // W(c_i): non-increasing weights in [0, 1]; same length as cost_vector.
  std::vector<double> weights;
  // Batch size b: trees split per iteration before SL is re-sorted.
  int batch_size = 4;
  TreeScheduler scheduler = TreeScheduler::kOurs;
  // When > 0, each task's unit list is cut to its longest prefix whose
  // estimated cost fits this budget (the extended report's
  // quality-within-a-budget variant). A unit costs its block's estimate
  // times the unit's share of the block's candidate pairs, so a whole-block
  // unit costs exactly the block's estimate. The cut drops a suffix, so the
  // bottom-up (children first) property is preserved.
  double per_task_budget = 0.0;
};

// Builds a uniform cost vector with `k` points spanning `total_cost /
// num_reduce_tasks` units per task.
std::vector<double> MakeUniformCostVector(double total_cost,
                                          int num_reduce_tasks, int k);

// Linearly decaying weights: W(c_i) = 1 - (i - 1) / k, i = 1..k.
std::vector<double> MakeLinearWeights(int k);

// Exponentially decaying weights: W(c_i) = decay^(i-1), decay in (0, 1].
// Strongly favours the earliest intervals.
std::vector<double> MakeExponentialWeights(int k, double decay);

// Step weights: 1 for the first ceil(cutoff_fraction * k) intervals, 0
// after — "only results before the deadline matter".
std::vector<double> MakeStepWeights(int k, double cutoff_fraction);

// Validates scheduling parameters. Returns "" when valid, otherwise a
// labelled error ("schedule: ..."). Rejects num_reduce_tasks <= 0, a
// cost_vector that is not strictly increasing and positive, and a
// weights/cost_vector length mismatch (both non-empty). Empty cost_vector
// or weights are valid: GenerateSchedule fills in documented defaults.
std::string ValidateScheduleParams(const ScheduleParams& params);

// One reduce-side match unit, the schedule's unit of work. The tree
// schedulers emit one whole-block unit (kWhole) per block; the pair-level
// schedulers also produce sub-block tasks: BlockSplit's single/cross tasks
// restrict the sorted positions of a pair's endpoints (kSub), PairRange
// slices the block's canonical d-major pair enumeration by index (kSlice).
// Every unit ships the full block membership; the restriction is applied
// during enumeration.
struct MatchTask {
  enum class Kind { kWhole, kSub, kSlice };
  BlockRef ref;
  Kind kind = Kind::kWhole;
  // kSub: only pairs (i, j), i < j, with a_lo <= i < a_hi and
  // b_lo <= j < b_hi over the block's sorted order.
  int64_t a_lo = 0, a_hi = -1, b_lo = 0, b_hi = -1;
  // kSlice: only pairs whose d-major enumeration index is in [begin, end).
  int64_t begin = 0, end = -1;
  // Candidate pairs this unit enumerates (its scheduling cost).
  int64_t pairs = 0;
};

// The generated progressive schedule (Sec. III-B): one ordered list of
// match units per reduce task, addressed by sequence values.
struct ProgressiveSchedule {
  int num_reduce_tasks = 0;

  // Units of each reduce task in resolution order. A block's in-tree
  // descendants on the same task precede it (bottom-up); otherwise units
  // follow non-increasing block utility, except under PairRange, which
  // keeps its range order.
  std::vector<std::vector<MatchTask>> task_units;

  // Sequence values: SQ(unit) = task * range_per_task + position, so the
  // MR partitioner routes on SQ / range_per_task and the runtime's key sort
  // yields each task's unit order. unit_sequences holds the SQs of each
  // scheduled block's units (BlockRefKey -> ascending SQs); a block the
  // budget cut dropped has none.
  int64_t range_per_task = 0;
  std::unordered_map<uint64_t, std::vector<int64_t>> unit_sequences;

  // Dominance value Dom(T) of each tree, keyed by the root's BlockRefKey.
  // Unique across all trees of all families (Sec. V).
  std::unordered_map<uint64_t, int32_t> dominance;

  // True for kBlockSplit/kPairRange: a block's units, and so a tree's, may
  // sit on different reduce tasks.
  bool pair_level = false;

  // Non-empty when the input parameters failed validation; the rest of the
  // schedule is empty and must not be used.
  std::string error;

  // The unit sequence value `sq` addresses.
  const MatchTask& UnitOf(int64_t sq) const {
    return task_units[static_cast<size_t>(sq / range_per_task)]
                     [static_cast<size_t>(sq % range_per_task)];
  }
};

// Generates a progressive schedule (Fig. 6). May mutate `forests`: the
// kOurs scheduler splits overflowed trees. Deterministic for fixed inputs.
ProgressiveSchedule GenerateSchedule(std::vector<AnnotatedForest>* forests,
                                     const ScheduleParams& params);

// Human-readable description of a schedule: per reduce task, the number of
// trees and units (printed as blocks), the estimated cost of the units'
// blocks, and the blocks of the first few units in resolution order. For
// debugging and the CLI's `explain` command.
std::string DescribeSchedule(const ProgressiveSchedule& schedule,
                             const std::vector<AnnotatedForest>& forests,
                             int blocks_per_task = 5);

// Total estimated cost of all blocks in all trees (used to size cost
// vectors).
double TotalEstimatedCost(const std::vector<AnnotatedForest>& forests);

}  // namespace progres

#endif  // PROGRES_SCHEDULE_SCHEDULE_H_
