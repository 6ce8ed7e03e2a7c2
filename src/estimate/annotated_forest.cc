#include "estimate/annotated_forest.h"

#include <algorithm>

namespace progres {

namespace {
constexpr double kMinCost = 1e-9;
}  // namespace

AnnotatedForest::AnnotatedForest(const Forest& forest,
                                 const EstimateParams& params,
                                 const ProbabilityModel& prob,
                                 int64_t dataset_size)
    : family_(forest.family),
      dataset_size_(dataset_size),
      params_(params),
      prob_(&prob) {
  blocks_.reserve(forest.nodes.size());
  for (const BlockNode& node : forest.nodes) {
    AnnotatedBlock b;
    b.id = node.id;
    b.parent = node.parent;
    b.children = node.children;
    b.size = node.size;
    b.cov = node.cov();
    blocks_.push_back(std::move(b));
  }
  for (int r : forest.roots) {
    blocks_[static_cast<size_t>(r)].tree_root = true;
    tree_roots_.push_back(r);
  }
  EliminateSmallBlocks();
  CollapseEqualSizeChains();
  // Index each path by the live block it resolves to, following equal-size
  // redirects once here; paths of eliminated blocks without a survivor
  // (most of the deepest level) stay out of the table.
  for (const auto& [path, index] : forest.by_path) {
    int n = index;
    while (n >= 0 && blocks_[static_cast<size_t>(n)].eliminated) {
      n = blocks_[static_cast<size_t>(n)].redirect;
    }
    if (n >= 0) by_path_.emplace(path, n);
  }
  for (int r : tree_roots_) ReestimateTree(r);
}

void AnnotatedForest::EliminateSmallBlocks() {
  // Blocks with fewer than two entities contain no pairs; resolving them is
  // pure overhead. Children of a small block are at most as large, so whole
  // chains disappear together.
  for (AnnotatedBlock& b : blocks_) {
    if (b.size < 2) b.eliminated = true;
  }
  for (AnnotatedBlock& b : blocks_) {
    std::erase_if(b.children, [this](int c) {
      return blocks_[static_cast<size_t>(c)].eliminated;
    });
  }
  std::erase_if(tree_roots_, [this](int r) {
    const bool gone = blocks_[static_cast<size_t>(r)].eliminated;
    if (gone) blocks_[static_cast<size_t>(r)].tree_root = false;
    return gone;
  });
}

void AnnotatedForest::CollapseEqualSizeChains() {
  // If a block has the same size as its parent, the two have identical
  // entity sets (children of a prefix block partition it), so resolving both
  // duplicates CostA for no new pairs. The deeper block survives: it keeps
  // the finer sub-blocking below it and inherits the parent's place.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < blocks_.size(); ++i) {
      AnnotatedBlock& child = blocks_[i];
      if (child.eliminated || child.parent < 0) continue;
      AnnotatedBlock& parent = blocks_[static_cast<size_t>(child.parent)];
      if (parent.eliminated || parent.size != child.size) continue;

      const int parent_index = child.parent;
      parent.eliminated = true;
      parent.redirect = static_cast<int>(i);
      child.parent = parent.parent;
      if (parent.parent >= 0) {
        std::vector<int>& siblings =
            blocks_[static_cast<size_t>(parent.parent)].children;
        std::replace(siblings.begin(), siblings.end(), parent_index,
                     static_cast<int>(i));
      }
      if (parent.tree_root) {
        parent.tree_root = false;
        child.tree_root = true;
        std::replace(tree_roots_.begin(), tree_roots_.end(), parent_index,
                     static_cast<int>(i));
      }
      changed = true;
    }
  }
}

std::vector<int> AnnotatedForest::TreeBlocks(int root) const {
  // Iterative post-order: children (that belong to this tree) before parents.
  std::vector<int> order;
  std::vector<std::pair<int, bool>> stack;  // (node, children_expanded)
  stack.emplace_back(root, false);
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    const AnnotatedBlock& b = blocks_[static_cast<size_t>(n)];
    if (expanded) {
      order.push_back(n);
      continue;
    }
    stack.emplace_back(n, true);
    for (int c : b.children) {
      const AnnotatedBlock& cb = blocks_[static_cast<size_t>(c)];
      if (cb.eliminated || cb.tree_root) continue;  // split trees excluded
      stack.emplace_back(c, false);
    }
  }
  return order;
}

int AnnotatedForest::FindTreeRoot(int node) const {
  int n = node;
  while (!blocks_[static_cast<size_t>(n)].tree_root) {
    n = blocks_[static_cast<size_t>(n)].parent;
  }
  return n;
}

void AnnotatedForest::SplitSubtree(int node) {
  AnnotatedBlock& b = blocks_[static_cast<size_t>(node)];
  if (b.tree_root || b.eliminated) return;
  const int old_root = FindTreeRoot(node);
  b.tree_root = true;
  tree_roots_.push_back(node);
  // A block's estimates read only its own fields and its in-tree children's
  // estimates and aggregates. The split changes those inputs for `node` (now
  // a root) and for each ancestor up to the old root (Cov below, one in-tree
  // child fewer) and for no other block, so re-estimating that path
  // bottom-up leaves every block as a whole-tree pass would.
  EstimateBlock(node);
  // The split tree now resolves the subtree's covered pairs; remove them
  // from every ancestor up to the old root (Sec. IV-C2 decreases Cov of the
  // enclosing root), re-estimating each after its child on the path.
  const int64_t moved_cov = b.cov;
  for (int a = b.parent;; a = blocks_[static_cast<size_t>(a)].parent) {
    AnnotatedBlock& ab = blocks_[static_cast<size_t>(a)];
    ab.cov = std::max<int64_t>(0, ab.cov - moved_cov);
    EstimateBlock(a);
    if (a == old_root) break;
  }
}

void AnnotatedForest::ReestimateTree(int root) {
  for (const int n : TreeBlocks(root)) EstimateBlock(n);
}

void AnnotatedForest::EstimateBlock(int n) {
  AnnotatedBlock& b = blocks_[static_cast<size_t>(n)];
  const bool root = b.tree_root;
  bool leaf = true;
  double sum_child_frac_d = 0.0;
  b.desc_dis = 0.0;
  b.desc_costp = 0.0;
  for (int c : b.children) {
    const AnnotatedBlock& cb = blocks_[static_cast<size_t>(c)];
    if (cb.eliminated || cb.tree_root) continue;
    leaf = false;
    sum_child_frac_d += cb.frac * cb.d_value;
    b.desc_dis += cb.dis + cb.desc_dis;
    b.desc_costp += CostP(cb.dup, cb.dis, params_.costs) + cb.desc_costp;
  }

  b.window = root ? params_.window_root
                  : (leaf ? params_.window_leaf : params_.window_middle);
  // Sec. VI-A5: Th(X) = |X|, scaled by the configurable factor.
  b.th = static_cast<int64_t>(params_.th_factor * static_cast<double>(b.size));
  b.frac = root ? 1.0 : (leaf ? params_.frac_leaf : params_.frac_middle);

  const double base_pairs =
      params_.dup_on_covered ? static_cast<double>(b.cov)
                             : static_cast<double>(PairsOf(b.size));
  const double p =
      prob_->Probability(family_, b.id.level, b.size, dataset_size_);
  b.d_value = p * base_pairs;

  // Eq. 2 over in-tree children (split subtrees took their covered pairs
  // with them, so they no longer contribute here).
  b.dup = std::max(0.0, b.frac * b.d_value - sum_child_frac_d);
  // Eq. 4.
  b.remain =
      std::max(0.0, static_cast<double>(b.cov) - b.d_value - b.desc_dis);
  b.dis = root ? b.remain : std::min(static_cast<double>(b.th), b.remain);

  const double cost_a = CostA(b.size, params_.costs);
  if (root) {
    // Eq. 5.
    b.cost = cost_a + CostF(b.size, b.window, b.cov, params_.costs) -
             b.desc_costp;
  } else {
    // Eq. 3.
    b.cost = cost_a + CostP(b.dup, b.dis, params_.costs);
  }
  b.cost = std::max({b.cost, cost_a, kMinCost});
  b.util = b.dup / b.cost;
}

int AnnotatedForest::Find(const std::string& path) const {
  const auto it = by_path_.find(path);
  return it == by_path_.end() ? -1 : it->second;
}

std::vector<AnnotatedForest> AnnotateForests(const std::vector<Forest>& forests,
                                             const EstimateParams& params,
                                             const ProbabilityModel& prob,
                                             int64_t dataset_size) {
  std::vector<AnnotatedForest> out;
  out.reserve(forests.size());
  for (const Forest& f : forests) {
    out.emplace_back(f, params, prob, dataset_size);
  }
  return out;
}

}  // namespace progres
