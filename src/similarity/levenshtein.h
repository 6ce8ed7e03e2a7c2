#ifndef PROGRES_SIMILARITY_LEVENSHTEIN_H_
#define PROGRES_SIMILARITY_LEVENSHTEIN_H_

#include <cstdint>
#include <string_view>

namespace progres {

// Computes the exact Levenshtein (edit) distance between `a` and `b`, over
// bytes, with the bit-parallel algorithm of Myers (1999) in Hyyrö's (2003)
// formulation for the global distance. The shorter string of length n is
// encoded as ceil(n/64)-word match masks, one per byte value; each byte of
// the longer string of length m then advances one DP column of +1/-1
// vertical deltas with a constant number of word operations per word,
// carrying between words. Cost: O(ceil(n/64) * m) word operations. Uses
// per-thread scratch, so concurrent calls are safe and allocate nothing
// once the scratch has grown to the longest pattern seen.
int64_t Levenshtein(std::string_view a, std::string_view b);

// Normalized edit similarity in [0, 1]: 1 - dist / max(|a|, |b|). Two empty
// strings have similarity 1.
double EditSimilarity(std::string_view a, std::string_view b);

}  // namespace progres

#endif  // PROGRES_SIMILARITY_LEVENSHTEIN_H_
