#include "common/random.h"

#include <algorithm>
#include <cmath>

namespace progres {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed the four words of xoshiro state with SplitMix64, as recommended by
  // the xoshiro authors, so that nearby seeds produce unrelated streams.
  uint64_t s = seed;
  for (uint64_t& w : state_) w = SplitMix64(&s);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformU64(span));
}

ZipfTable::ZipfTable(int64_t n, double s) {
  if (n <= 1) return;
  cdf_.assign(static_cast<size_t>(n), 0.0);
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[static_cast<size_t>(i)] = sum;
  }
  for (double& v : cdf_) v /= sum;
}

int64_t ZipfTable::Sample(Rng* rng) const {
  if (cdf_.empty()) return 0;
  const double u = rng->UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int64_t>(it - cdf_.begin());
}

}  // namespace progres
