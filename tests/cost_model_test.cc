#include <gtest/gtest.h>

#include "estimate/cost_model.h"

namespace progres {
namespace {

int64_t BruteWindowPairCount(int64_t n, int w) {
  int64_t count = 0;
  for (int64_t d = 1; d <= std::min<int64_t>(w - 1, n - 1); ++d) {
    count += n - d;
  }
  return count;
}

TEST(WindowPairCountTest, MatchesBruteForce) {
  for (int64_t n : {0L, 1L, 2L, 3L, 5L, 10L, 14L, 15L, 16L, 17L, 100L}) {
    for (int w : {1, 2, 3, 5, 15, 200}) {
      EXPECT_EQ(WindowPairCount(n, w), BruteWindowPairCount(n, w))
          << "n=" << n << " w=" << w;
    }
  }
}

TEST(WindowPairCountTest, LargeWindowEqualsAllPairs) {
  EXPECT_EQ(WindowPairCount(10, 100), 45);  // Pairs(10)
}

TEST(WindowPairCountTest, TinyBlocks) {
  EXPECT_EQ(WindowPairCount(0, 15), 0);
  EXPECT_EQ(WindowPairCount(1, 15), 0);
  EXPECT_EQ(WindowPairCount(2, 15), 1);
}

TEST(CostATest, GrowsSuperlinearly) {
  const MechanismCosts costs;
  EXPECT_DOUBLE_EQ(CostA(0, costs), 0.0);
  EXPECT_GT(CostA(100, costs), 0.0);
  // n log n growth: doubling n more than doubles cost.
  EXPECT_GT(CostA(200, costs), 2.0 * CostA(100, costs));
}

TEST(CostPTest, LinearInPairs) {
  const MechanismCosts costs;
  EXPECT_DOUBLE_EQ(CostP(3.0, 7.0, costs), 10.0 * costs.comparison);
  EXPECT_DOUBLE_EQ(CostP(0.0, 0.0, costs), 0.0);
}

TEST(CostFTest, CoveredPairsAtComparisonPrice) {
  const MechanismCosts costs;
  // cov >= window pairs: every window pair is a genuine comparison.
  const int64_t pairs = WindowPairCount(20, 5);
  EXPECT_DOUBLE_EQ(CostF(20, 5, /*cov=*/1000, costs),
                   costs.comparison * static_cast<double>(pairs));
}

TEST(CostFTest, UncoveredPairsAtSkipPrice) {
  const MechanismCosts costs;
  const int64_t pairs = WindowPairCount(20, 5);
  // cov = 0: every window pair is a skip.
  EXPECT_DOUBLE_EQ(CostF(20, 5, /*cov=*/0, costs),
                   costs.skip * static_cast<double>(pairs));
}

TEST(CostFTest, MixedCovSplitsPrices) {
  const MechanismCosts costs;
  const int64_t pairs = WindowPairCount(20, 5);
  const int64_t cov = pairs / 2;
  EXPECT_DOUBLE_EQ(CostF(20, 5, cov, costs),
                   costs.comparison * static_cast<double>(cov) +
                       costs.skip * static_cast<double>(pairs - cov));
}

TEST(CostFTest, MonotoneInWindow) {
  const MechanismCosts costs;
  EXPECT_LE(CostF(50, 5, 10000, costs), CostF(50, 10, 10000, costs));
  EXPECT_LE(CostF(50, 10, 10000, costs), CostF(50, 50, 10000, costs));
}

}  // namespace
}  // namespace progres
