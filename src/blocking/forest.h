#ifndef PROGRES_BLOCKING_FOREST_H_
#define PROGRES_BLOCKING_FOREST_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocking/blocking_function.h"
#include "model/dataset.h"

namespace progres {

// Number of unordered pairs among `n` entities (the paper's Pairs(n)).
inline int64_t PairsOf(int64_t n) { return n * (n - 1) / 2; }

// One block in a family's forest (Sec. III-A). Nodes are stored flat inside
// a Forest; tree edges are indexes into Forest::nodes.
struct BlockNode {
  BlockId id;
  int parent = -1;             // index into Forest::nodes; -1 for roots
  std::vector<int> children;   // indexes into Forest::nodes
  int64_t size = 0;            // |X_j^i|
  // Uncovered pairs (Sec. IV-A): pairs of this block also contained in a
  // common root block of a more dominating family. Zero for family 0.
  int64_t uncov = 0;
  // Entity members; populated when BuildForests is called with
  // keep_members=true (used by the library-level resolution path and tests).
  std::vector<EntityId> entities;

  // Covered pairs Cov(X) = Pairs(|X|) - Uncov(X).
  int64_t cov() const { return PairsOf(size) - uncov; }
  bool is_root() const { return parent < 0; }
  bool is_leaf() const { return children.empty(); }
};

// The forest of one main blocking function: one tree per root block, all
// nodes flattened into `nodes`.
struct Forest {
  int family = 0;
  std::vector<BlockNode> nodes;
  std::vector<int> roots;                          // indexes of root nodes
  std::unordered_map<std::string, int> by_path;    // block path -> node index

  const BlockNode& node(int i) const { return nodes[static_cast<size_t>(i)]; }

  // Returns the node index for `path`, or -1 if no such block exists.
  int Find(const std::string& path) const {
    const auto it = by_path.find(path);
    return it == by_path.end() ? -1 : it->second;
  }
};

// Applies every family's main and sub-blocking functions to `dataset` and
// materializes the forests. Logically this is the blocking half of the
// paper's first MR job; the MapReduce-based implementation in src/core
// produces the same structure (asserted by integration tests). When
// `keep_members` is true each node also stores its entity ids.
std::vector<Forest> BuildForests(const Dataset& dataset,
                                 const BlockingConfig& config,
                                 bool keep_members);

// Fills BlockNode::uncov for every node using the inclusion-exclusion
// computation of Sec. IV-A over the root blocks of dominating families.
// This is the statistics half of the first MR job.
void ComputeUncoveredPairs(const Dataset& dataset, const BlockingConfig& config,
                           std::vector<Forest>* forests);

// Evaluates the inclusion-exclusion sum of Sec. IV-A from a block's joint
// overlap counts: `joint` maps each tuple of dominating-family root keys
// (joined with kTupleSeparator, `num_dominating` components) to the number
// of the block's entities carrying that tuple. Returns Uncov for the block.
int64_t UncoveredFromJointCounts(
    const std::unordered_map<std::string, int64_t>& joint, int num_dominating);

}  // namespace progres

#endif  // PROGRES_BLOCKING_FOREST_H_
