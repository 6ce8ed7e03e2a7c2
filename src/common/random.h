#ifndef PROGRES_COMMON_RANDOM_H_
#define PROGRES_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace progres {

// Deterministic pseudo-random number generator (xoshiro256**) used across the
// library so that datasets, schedules, and benchmarks are reproducible from a
// single seed. Not thread-safe; create one instance per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Returns the next 64 uniformly distributed random bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Returns a uniformly distributed integer in [0, bound). `bound` must be
  // greater than zero.
  uint64_t UniformU64(uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    while (true) {
      const uint64_t r = NextU64();
      if (r >= threshold) return r % bound;
    }
  }

  // Returns a uniformly distributed integer in [lo, hi], inclusive on both
  // ends. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Returns a uniformly distributed double in [0, 1).
  double UniformDouble() {
    // 53 random bits scaled into [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// A Zipf distribution over [0, n) with exponent `s` (s > 0): index i has
// weight 1 / (i + 1)^s, so smaller indexes are more likely. The inverted CDF
// is built once, at construction: a running sum of the weights in index
// order, each entry then divided by the total. Build one table per
// distribution and sample it with the caller's Rng.
class ZipfTable {
 public:
  ZipfTable(int64_t n, double s);

  // Draws exactly one UniformDouble() u from `rng` and returns the first
  // index whose CDF entry is >= u. When n <= 1 returns 0 and draws nothing,
  // so `rng`'s stream is left as it was.
  int64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;  // empty when n <= 1
};

}  // namespace progres

#endif  // PROGRES_COMMON_RANDOM_H_
