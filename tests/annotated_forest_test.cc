#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/forest.h"
#include "datagen/generators.h"
#include "estimate/annotated_forest.h"
#include "estimate/prob_model.h"

namespace progres {
namespace {

struct Fixture {
  LabeledDataset data;
  BlockingConfig config{std::vector<FamilySpec>{}};
  std::vector<Forest> forests;
  ProbabilityModel prob;
  EstimateParams params;

  explicit Fixture(int64_t n = 3000, uint64_t seed = 31,
                   double mega_block_fraction = 0.0) {
    PublicationConfig gen;
    gen.num_entities = n;
    gen.seed = seed;
    gen.mega_block_fraction = mega_block_fraction;
    data = GeneratePublications(gen);
    config = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                             {"Y", kPubAbstract, {3, 5}, -1},
                             {"Z", kPubVenue, {3, 5}, -1}});
    forests = BuildForests(data.dataset, config, /*keep_members=*/false);
    ComputeUncoveredPairs(data.dataset, config, &forests);
    prob = ProbabilityModel::Train(data.dataset, data.truth, config);
  }

  std::vector<AnnotatedForest> Annotate() {
    return AnnotateForests(forests, params, prob, data.dataset.size());
  }
};

TEST(AnnotatedForestTest, SmallBlocksEliminated) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.size < 2) {
        EXPECT_TRUE(b.eliminated);
      }
    }
  }
}

TEST(AnnotatedForestTest, EqualSizeChainsCollapse) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated || b.parent < 0) continue;
      const AnnotatedBlock& parent = forest.block(b.parent);
      // Surviving blocks always hang off surviving, strictly larger parents.
      EXPECT_FALSE(parent.eliminated);
      EXPECT_LT(b.size, parent.size);
    }
  }
}

TEST(AnnotatedForestTest, EliminatedParentsRedirectToSurvivor) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (!b.eliminated || b.redirect < 0) continue;
      const AnnotatedBlock& target = forest.block(b.redirect);
      EXPECT_EQ(target.size, b.size);
      const int found = forest.Find(b.id.path);
      ASSERT_GE(found, 0);
      EXPECT_FALSE(forest.block(found).eliminated);
    }
  }
}

TEST(AnnotatedForestTest, FindResolvesEveryPathToItsLiveBlock) {
  // Reference: follow the equal-size redirects from the path's own block;
  // a chain that ends on an eliminated block without a survivor is -1.
  Fixture fx;
  const std::vector<AnnotatedForest> annotated = fx.Annotate();
  for (size_t f = 0; f < fx.forests.size(); ++f) {
    const AnnotatedForest& forest = annotated[f];
    int live = 0;
    int dropped = 0;
    for (size_t i = 0; i < fx.forests[f].nodes.size(); ++i) {
      int expected = static_cast<int>(i);
      while (expected >= 0 && forest.block(expected).eliminated) {
        expected = forest.block(expected).redirect;
      }
      const std::string& path = fx.forests[f].nodes[i].id.path;
      ASSERT_EQ(forest.Find(path), expected) << "family " << f << " " << path;
      if (expected >= 0) {
        ++live;
      } else {
        ++dropped;
      }
    }
    EXPECT_GT(live, 0);
    EXPECT_GT(dropped, 0);
    EXPECT_EQ(forest.Find(std::string("no such") + kPathSeparator + "path"),
              -1);
  }
}

TEST(AnnotatedForestTest, EstimatesAreFinite) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      EXPECT_GE(b.dup, 0.0) << b.id.path;
      EXPECT_GE(b.remain, 0.0);
      EXPECT_GE(b.dis, 0.0);
      EXPECT_GT(b.cost, 0.0);
      EXPECT_GE(b.util, 0.0);
      EXPECT_EQ(b.th, b.size);  // Th(X) = |X|
    }
  }
}

TEST(AnnotatedForestTest, PolicyFollowsPosition) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      if (b.tree_root) {
        EXPECT_EQ(b.window, fx.params.window_root);
        EXPECT_DOUBLE_EQ(b.frac, 1.0);
      } else if (b.is_leaf()) {
        EXPECT_EQ(b.window, fx.params.window_leaf);
        EXPECT_DOUBLE_EQ(b.frac, fx.params.frac_leaf);
      }
    }
  }
}

TEST(AnnotatedForestTest, TreeBlocksIsBottomUp) {
  Fixture fx;
  for (const AnnotatedForest& forest : fx.Annotate()) {
    for (int root : forest.tree_roots()) {
      const std::vector<int> order = forest.TreeBlocks(root);
      ASSERT_FALSE(order.empty());
      EXPECT_EQ(order.back(), root);  // root last
      std::unordered_map<int, size_t> position;
      for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
      for (int n : order) {
        const AnnotatedBlock& b = forest.block(n);
        if (n == root) continue;
        ASSERT_TRUE(position.count(b.parent));
        EXPECT_LT(position[n], position[b.parent]);
      }
    }
  }
}

TEST(AnnotatedForestTest, SplitCreatesNewTree) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  AnnotatedForest& forest = forests[0];

  // Find a root with an in-tree child.
  int root = -1;
  int child = -1;
  for (int r : forest.tree_roots()) {
    for (int c : forest.block(r).children) {
      if (!forest.block(c).eliminated && !forest.block(c).tree_root) {
        root = r;
        child = c;
        break;
      }
    }
    if (child >= 0) break;
  }
  ASSERT_GE(child, 0);

  const size_t roots_before = forest.tree_roots().size();
  const int64_t root_cov_before = forest.block(root).cov;
  const int64_t child_cov = forest.block(child).cov;
  forest.SplitSubtree(child);

  EXPECT_TRUE(forest.block(child).tree_root);
  EXPECT_EQ(forest.tree_roots().size(), roots_before + 1);
  EXPECT_EQ(forest.block(root).cov,
            std::max<int64_t>(0, root_cov_before - child_cov));
  EXPECT_EQ(forest.FindTreeRoot(child), child);
  // The split child is now resolved fully.
  EXPECT_EQ(forest.block(child).window, fx.params.window_root);
  EXPECT_DOUBLE_EQ(forest.block(child).frac, 1.0);
  // The old tree no longer descends into the split subtree.
  for (int n : forest.TreeBlocks(root)) EXPECT_NE(n, child);
}

TEST(AnnotatedForestTest, SplitIncreasesChildCost) {
  // Resolving fully costs more than resolving partially (the "high reduction
  // in the utility value" the paper warns about).
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  AnnotatedForest& forest = forests[0];
  for (int r : forest.tree_roots()) {
    for (int c : forest.block(r).children) {
      const AnnotatedBlock& cb = forest.block(c);
      if (cb.eliminated || cb.tree_root || cb.size < 50) continue;
      const double cost_before = cb.cost;
      const double util_before = cb.util;
      forest.SplitSubtree(c);
      EXPECT_GT(forest.block(c).cost, cost_before);
      EXPECT_LE(forest.block(c).util, util_before + 1e-9);
      return;
    }
  }
  GTEST_SKIP() << "no sufficiently large child found";
}

TEST(AnnotatedForestTest, SplitIsIdempotent) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  AnnotatedForest& forest = forests[0];
  int child = -1;
  for (int r : forest.tree_roots()) {
    for (int c : forest.block(r).children) {
      if (!forest.block(c).eliminated && !forest.block(c).tree_root) {
        child = c;
        break;
      }
    }
    if (child >= 0) break;
  }
  ASSERT_GE(child, 0);
  forest.SplitSubtree(child);
  const size_t roots = forest.tree_roots().size();
  forest.SplitSubtree(child);  // no-op
  EXPECT_EQ(forest.tree_roots().size(), roots);
}

// SplitTree's visiting order: in-tree children by non-increasing utility,
// ties by index.
std::vector<int> SplitOrder(const AnnotatedForest& forest, int node) {
  std::vector<int> children;
  for (const int c : forest.block(node).children) {
    const AnnotatedBlock& cb = forest.block(c);
    if (!cb.eliminated && !cb.tree_root) children.push_back(c);
  }
  std::sort(children.begin(), children.end(), [&](int a, int b) {
    const double ua = forest.block(a).util;
    const double ub = forest.block(b).util;
    if (ua != ub) return ua > ub;
    return a < b;
  });
  return children;
}

// Splits `node` in `forest` (whose re-estimation is path-only) and in
// `reference`, re-estimates every tree of `reference` whole with
// ReestimateTree, and expects every live block to agree bit for bit.
void SplitAndCompare(AnnotatedForest* forest, AnnotatedForest* reference,
                     int node) {
  forest->SplitSubtree(node);
  reference->SplitSubtree(node);
  for (const int root : reference->tree_roots()) {
    reference->ReestimateTree(root);
  }
  for (int n = 0; n < forest->num_blocks(); ++n) {
    const AnnotatedBlock& got = forest->block(n);
    if (got.eliminated) continue;
    const AnnotatedBlock& want = reference->block(n);
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.th, want.th);
    EXPECT_EQ(got.frac, want.frac);
    EXPECT_EQ(got.d_value, want.d_value);
    EXPECT_EQ(got.dup, want.dup);
    EXPECT_EQ(got.remain, want.remain);
    EXPECT_EQ(got.dis, want.dis);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(got.util, want.util);
    EXPECT_EQ(got.desc_dis, want.desc_dis);
    EXPECT_EQ(got.desc_costp, want.desc_costp);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "family " << forest->family() << ", block " << n
                    << " (" << got.id.path << "), after splitting block "
                    << node;
      return;
    }
  }
}

// Splits every non-root block of every tree, each tree's children in
// SplitTree's order. A child's own children are split first, while the
// child is still in the tree, so those splits re-estimate an intermediate
// ancestor as well as the old root.
void ExpectPathOnlySplitsMatchWholeTrees(Fixture& fx) {
  for (AnnotatedForest& forest : fx.Annotate()) {
    AnnotatedForest reference = forest;
    int splits = 0;
    int deep_splits = 0;
    // tree_roots() grows with every split, so walk it by index.
    for (size_t i = 0; i < forest.tree_roots().size(); ++i) {
      const int root = forest.tree_roots()[i];
      for (const int child : SplitOrder(forest, root)) {
        for (const int grandchild : SplitOrder(forest, child)) {
          SplitAndCompare(&forest, &reference, grandchild);
          if (::testing::Test::HasFailure()) return;
          ++deep_splits;
        }
        SplitAndCompare(&forest, &reference, child);
        if (::testing::Test::HasFailure()) return;
        ++splits;
      }
    }
    EXPECT_GT(splits, 0) << "family " << forest.family();
    if (forest.family() == 0) {
      EXPECT_GT(deep_splits, 0);
    }
  }
}

TEST(AnnotatedForestTest, PathOnlySplitMatchesWholeTreeReestimation) {
  Fixture fx(/*n=*/1500, /*seed=*/31);
  ExpectPathOnlySplitsMatchWholeTrees(fx);
}

TEST(AnnotatedForestTest, PathOnlySplitMatchesWholeTreeReestimationOnMega) {
  Fixture fx(/*n=*/1500, /*seed=*/31, /*mega_block_fraction=*/0.3);
  ExpectPathOnlySplitsMatchWholeTrees(fx);
}

TEST(AnnotatedForestTest, DupOnPairsOptionChangesDValue) {
  Fixture fx;
  fx.params.dup_on_covered = true;
  const std::vector<AnnotatedForest> covered = fx.Annotate();
  fx.params.dup_on_covered = false;
  const std::vector<AnnotatedForest> pairs = fx.Annotate();
  // With d on Pairs(|X|), d_value can only be >= the covered variant
  // (cov <= Pairs).
  bool found_difference = false;
  for (int f = 0; f < static_cast<int>(covered.size()); ++f) {
    for (int n = 0; n < covered[static_cast<size_t>(f)].num_blocks(); ++n) {
      const AnnotatedBlock& a = covered[static_cast<size_t>(f)].block(n);
      const AnnotatedBlock& b = pairs[static_cast<size_t>(f)].block(n);
      if (a.eliminated) continue;
      EXPECT_LE(a.d_value, b.d_value + 1e-9);
      if (a.d_value < b.d_value - 1e-9) found_difference = true;
    }
  }
  EXPECT_TRUE(found_difference);
}

}  // namespace
}  // namespace progres
