#include "similarity/levenshtein.h"

#include <algorithm>
#include <vector>

namespace progres {

namespace {

constexpr size_t kWordBits = 64;

// Per-thread scratch of Levenshtein. `peq` holds, for every byte value c,
// the ceil(n/64)-word mask of the positions of c in the pattern, byte-major;
// every entry is zero between calls. `pv`/`mv` are the +1/-1 vertical delta
// vectors of the current column.
struct Scratch {
  std::vector<uint64_t> peq;
  std::vector<uint64_t> pv;
  std::vector<uint64_t> mv;
};

}  // namespace

int64_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // a, the shorter, is the pattern
  const size_t n = a.size();
  if (n == 0) return static_cast<int64_t>(b.size());
  const size_t words = (n + kWordBits - 1) / kWordBits;

  thread_local Scratch s;
  if (s.peq.size() < 256 * words) s.peq.resize(256 * words);
  for (size_t i = 0; i < n; ++i) {
    s.peq[static_cast<unsigned char>(a[i]) * words + i / kWordBits] |=
        uint64_t{1} << (i % kWordBits);
  }
  // Column 0 of the DP is 0, 1, ..., n: every vertical delta is +1.
  s.pv.assign(words, ~uint64_t{0});
  s.mv.assign(words, 0);

  // Bit (n-1) of the last word is row n, whose value is the distance.
  const int last = static_cast<int>((n - 1) % kWordBits);
  int64_t score = static_cast<int64_t>(n);
  for (const char c : b) {
    const uint64_t* eq = &s.peq[static_cast<unsigned char>(c) * words];
    // Row 0 is 0, 1, ..., m, so its horizontal delta is +1 in every column.
    // The -1 carry doubles as the carry-in of the next word's addition.
    uint64_t ph_carry = 1;
    uint64_t mh_carry = 0;
    uint64_t ph = 0;
    uint64_t mh = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t e = eq[w];
      const uint64_t pv = s.pv[w];
      const uint64_t mv = s.mv[w];
      const uint64_t xv = e | mv;
      const uint64_t xh = (((e & pv) + pv + mh_carry) ^ pv) | e;
      ph = mv | ~(xh | pv);
      mh = pv & xh;
      const uint64_t ph_shifted = (ph << 1) | ph_carry;
      const uint64_t mh_shifted = (mh << 1) | mh_carry;
      ph_carry = ph >> (kWordBits - 1);
      mh_carry = mh >> (kWordBits - 1);
      s.pv[w] = mh_shifted | ~(xv | ph_shifted);
      s.mv[w] = ph_shifted & xv;
    }
    score += static_cast<int64_t>((ph >> last) & 1) -
             static_cast<int64_t>((mh >> last) & 1);
  }

  for (size_t i = 0; i < n; ++i) {
    s.peq[static_cast<unsigned char>(a[i]) * words + i / kWordBits] = 0;
  }
  return score;
}

double EditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  const int64_t d = Levenshtein(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

}  // namespace progres
