#ifndef PROGRES_ESTIMATE_ANNOTATED_FOREST_H_
#define PROGRES_ESTIMATE_ANNOTATED_FOREST_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/forest.h"
#include "estimate/cost_model.h"
#include "estimate/prob_model.h"
#include "mechanism/mechanism.h"

namespace progres {

// Per-level resolution policy and estimation parameters (Sec. VI-A5): root
// blocks are resolved fully with the largest window; leaf blocks most
// aggressively with the smallest window and fraction; everything in between
// uses the middle settings. Th(X) = |X| throughout, ensuring a block's
// termination value is smaller than its parent's.
struct EstimateParams {
  MechanismCosts costs;
  int window_root = 15;
  int window_middle = 10;
  int window_leaf = 5;
  double frac_leaf = 0.8;
  double frac_middle = 0.9;
  // Termination threshold scale: Th(X) = th_factor * |X| (the paper uses
  // factor 1). Lower values resolve non-root blocks more aggressively.
  double th_factor = 1.0;
  // d(X) = Prob * Cov(X) when true (Sec. IV-B defines d over covered pairs);
  // d(X) = Prob * Pairs(|X|) when false (the simpler form of Sec. VI-A4).
  bool dup_on_covered = true;
};

// One block annotated with the estimates of Sec. IV-B. The hierarchy
// (parent/children) never changes after elimination; tree membership does:
// splitting marks a block as tree_root, carving its subtree out of the
// enclosing tree.
struct AnnotatedBlock {
  BlockId id;
  int parent = -1;
  std::vector<int> children;
  int64_t size = 0;
  // Covered pairs. Reduced on ancestors when a subtree is split off (the
  // split tree resolves those pairs; Sec. IV-C2).
  int64_t cov = 0;
  bool tree_root = false;
  bool eliminated = false;

  // Resolution policy derived from the block's position.
  int window = 0;
  int64_t th = 0;
  double frac = 1.0;

  // When this block was eliminated by the equal-size collapse, the index of
  // the surviving block with the same entity set (-1 otherwise). Lets path
  // lookups resolve to the block that actually gets scheduled.
  int redirect = -1;

  // Estimates (Sec. IV-B).
  double d_value = 0.0;  // d(X): expected covered duplicate pairs
  double dup = 0.0;      // Dup(X), Eq. 2
  double remain = 0.0;   // Remain(X), Eq. 4
  double dis = 0.0;      // Dis(X)
  double cost = 0.0;     // Cost(X), Eq. 3 or Eq. 5
  double util = 0.0;     // Util(X) = Dup / Cost

  // Aggregates over the block's in-tree descendants (children and below,
  // stopping at split-off tree roots): the sum of their Dis, which Eq. 4
  // subtracts, and of their CostP, which Eq. 5 subtracts. Stored so that a
  // parent's estimate reads its children's and never revisits deeper blocks.
  double desc_dis = 0.0;
  double desc_costp = 0.0;

  bool is_leaf() const { return children.empty(); }
};

// A family's forest annotated with duplicate/cost estimates, supporting the
// block-elimination cleanup and the tree-split operation of the schedule
// generator. All estimation follows Sec. IV-B with d(.) taken over covered
// pairs, which keeps Eqs. 2-5 consistent under splits (splitting moves a
// subtree's covered pairs out of its ancestors).
class AnnotatedForest {
 public:
  // Copies structure and sizes from `forest` (which must have uncov filled
  // in by ComputeUncoveredPairs) and runs elimination + a full estimation
  // pass.
  AnnotatedForest(const Forest& forest, const EstimateParams& params,
                  const ProbabilityModel& prob, int64_t dataset_size);

  int family() const { return family_; }
  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  AnnotatedBlock& block(int i) { return blocks_[static_cast<size_t>(i)]; }
  const AnnotatedBlock& block(int i) const {
    return blocks_[static_cast<size_t>(i)];
  }

  // Current tree roots (original roots plus split-off subtree roots), in
  // creation order. Eliminated blocks never appear.
  const std::vector<int>& tree_roots() const { return tree_roots_; }

  // Blocks of the tree rooted at `root` in bottom-up order (every child
  // before its parent), not descending into nested split-off trees.
  std::vector<int> TreeBlocks(int root) const;

  // Root of the tree currently containing `node`.
  int FindTreeRoot(int node) const;

  // Splits the subtree rooted at `node` into its own tree (Sec. IV-C2):
  // `node` becomes a fully-resolved root and its covered pairs leave every
  // ancestor up to the old tree's root. Only `node` and those ancestors are
  // re-estimated, bottom-up: no other block's inputs change, so every block
  // ends as ReestimateTree of its tree would leave it.
  void SplitSubtree(int node);

  // Recomputes the estimates and aggregates of every block of the tree
  // rooted at `root`, bottom-up. The constructor runs it once per tree;
  // tests use it as the reference for SplitSubtree's path-only update.
  void ReestimateTree(int root);

  // Node index for a block path, or -1. Eliminated blocks resolve to the
  // surviving block that absorbed them (equal-size collapse) when possible.
  int Find(const std::string& path) const;

  const EstimateParams& params() const { return params_; }

 private:
  void EliminateSmallBlocks();
  void CollapseEqualSizeChains();
  // Estimates block `n` from its own fields and its in-tree children's
  // estimates and aggregates (Eqs. 2-5), and stores its aggregates.
  void EstimateBlock(int n);

  int family_ = 0;
  int64_t dataset_size_ = 0;
  EstimateParams params_;
  const ProbabilityModel* prob_ = nullptr;
  std::vector<AnnotatedBlock> blocks_;
  std::vector<int> tree_roots_;
  // Block path -> the live block it resolves to (itself, or the survivor
  // of its equal-size collapse). Paths without a live block are absent.
  std::unordered_map<std::string, int> by_path_;
};

// Builds one AnnotatedForest per family from the statistics forests.
std::vector<AnnotatedForest> AnnotateForests(const std::vector<Forest>& forests,
                                             const EstimateParams& params,
                                             const ProbabilityModel& prob,
                                             int64_t dataset_size);

}  // namespace progres

#endif  // PROGRES_ESTIMATE_ANNOTATED_FOREST_H_
