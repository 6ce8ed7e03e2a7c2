#include "estimate/cost_model.h"

#include <algorithm>

namespace progres {

int64_t WindowPairCount(int64_t n, int window) {
  const int64_t d_max = std::min<int64_t>(window - 1, n - 1);
  if (d_max <= 0) return 0;
  // sum_{d=1..d_max} (n - d) = n*d_max - d_max*(d_max+1)/2
  return n * d_max - d_max * (d_max + 1) / 2;
}

double CostP(double dup, double dis, const MechanismCosts& costs) {
  return costs.comparison * (dup + dis);
}

double CostF(int64_t n, int window, int64_t cov, const MechanismCosts& costs) {
  const int64_t pairs = WindowPairCount(n, window);
  const double compared = static_cast<double>(std::min(pairs, cov));
  const double skipped = static_cast<double>(std::max<int64_t>(0, pairs - cov));
  return costs.comparison * compared + costs.skip * skipped;
}

}  // namespace progres
