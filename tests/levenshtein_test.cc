#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "similarity/levenshtein.h"

namespace progres {
namespace {

// Reference: the classic two-row dynamic program. It shares no code with
// the bit-parallel kernel under test.
int64_t ReferenceLevenshtein(std::string_view a, std::string_view b) {
  std::vector<int64_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = static_cast<int64_t>(i);
  for (size_t j = 1; j <= b.size(); ++j) {
    int64_t diag = row[0];
    row[0] = static_cast<int64_t>(j);
    for (size_t i = 1; i <= a.size(); ++i) {
      const int64_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, subst});
    }
  }
  return row[a.size()];
}

// A random string over the first `alphabet` letters from 'a', or over all
// 256 byte values (NUL and bytes >= 0x80 included) when alphabet == 256.
std::string RandomString(Rng* rng, size_t length, int alphabet) {
  std::string s;
  s.reserve(length);
  const uint64_t base = alphabet == 256 ? 0 : 'a';
  const uint64_t range = static_cast<uint64_t>(alphabet);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>(base + rng->UniformU64(range)));
  }
  return s;
}

// `s` after `k` random single-byte substitutions, insertions or deletions.
std::string Edit(Rng* rng, std::string s, int k, int alphabet) {
  for (int e = 0; e < k; ++e) {
    const std::string byte = RandomString(rng, 1, alphabet);
    const size_t pos = static_cast<size_t>(rng->UniformU64(s.size() + 1));
    switch (rng->UniformU64(3)) {
      case 0:
        if (pos < s.size()) s[pos] = byte[0];
        break;
      case 1:
        s.insert(pos, byte);
        break;
      default:
        if (pos < s.size()) s.erase(pos, 1);
        break;
    }
  }
  return s;
}

// Checks the kernel against the reference in both argument orders.
void ExpectMatchesReference(const std::string& a, const std::string& b) {
  const int64_t expected = ReferenceLevenshtein(a, b);
  EXPECT_EQ(Levenshtein(a, b), expected)
      << "|a|=" << a.size() << " |b|=" << b.size();
  EXPECT_EQ(Levenshtein(b, a), expected)
      << "|a|=" << a.size() << " |b|=" << b.size() << " (swapped)";
}

TEST(LevenshteinTest, IdenticalStrings) {
  EXPECT_EQ(Levenshtein("kitten", "kitten"), 0);
  EXPECT_EQ(Levenshtein("", ""), 0);
}

TEST(LevenshteinTest, ClassicExamples) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2);
  EXPECT_EQ(Levenshtein("intention", "execution"), 5);
}

TEST(LevenshteinTest, EmptyVsNonEmpty) {
  EXPECT_EQ(Levenshtein("", "abc"), 3);
  EXPECT_EQ(Levenshtein("abc", ""), 3);
}

TEST(LevenshteinTest, Symmetric) {
  EXPECT_EQ(Levenshtein("abcdef", "azced"), Levenshtein("azced", "abcdef"));
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(Levenshtein("abc", "axc"), 1);  // substitution
  EXPECT_EQ(Levenshtein("abc", "ac"), 1);   // deletion
  EXPECT_EQ(Levenshtein("abc", "abxc"), 1); // insertion
}

TEST(LevenshteinTest, ComparesBytesIncludingNulAndHighBytes) {
  const std::string nul_a("a\0b", 3);
  const std::string nul_b("a\0c", 3);
  EXPECT_EQ(Levenshtein(nul_a, nul_b), 1);
  EXPECT_EQ(Levenshtein(nul_a, "ab"), 1);
  EXPECT_EQ(Levenshtein("\xff\x80", "\x80\xff"), 2);
  EXPECT_EQ(Levenshtein("caf\xc3\xa9", "cafe"), 2);
}

TEST(LevenshteinTest, AllByteValues) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  std::string rotated = all.substr(100) + all.substr(0, 100);
  std::string reversed(all.rbegin(), all.rend());
  ExpectMatchesReference(all, rotated);
  ExpectMatchesReference(all, reversed);
  ExpectMatchesReference(all, all.substr(1, 200));
  EXPECT_EQ(Levenshtein(all, all), 0);
}

TEST(EditSimilarityTest, Bounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
}

TEST(EditSimilarityTest, PartialOverlap) {
  // dist("abcd", "abxd") = 1, max len 4 -> 0.75.
  EXPECT_DOUBLE_EQ(EditSimilarity("abcd", "abxd"), 0.75);
}

// Oracle sweep: the bit-parallel kernel must equal the reference DP for
// every pair of lengths across the 64-bit word boundaries, random lengths
// up to 400 bytes and near-duplicates, over each alphabet (the parameter).
class LevenshteinOracleTest : public testing::TestWithParam<int> {};

TEST_P(LevenshteinOracleTest, WordBoundaryLengths) {
  const int alphabet = GetParam();
  Rng rng(static_cast<uint64_t>(alphabet));
  const std::vector<size_t> lengths = {0,   1,   2,   31,  63,  64,  65,  127,
                                       128, 129, 191, 192, 193, 350, 400};
  for (size_t la : lengths) {
    for (size_t lb : lengths) {
      ExpectMatchesReference(RandomString(&rng, la, alphabet),
                             RandomString(&rng, lb, alphabet));
    }
  }
}

TEST_P(LevenshteinOracleTest, RandomLengths) {
  const int alphabet = GetParam();
  Rng rng(static_cast<uint64_t>(alphabet) + 1000);
  for (int iter = 0; iter < 150; ++iter) {
    const size_t la = static_cast<size_t>(rng.UniformU64(401));
    const size_t lb = static_cast<size_t>(rng.UniformU64(401));
    ExpectMatchesReference(RandomString(&rng, la, alphabet),
                           RandomString(&rng, lb, alphabet));
  }
}

TEST_P(LevenshteinOracleTest, NearDuplicates) {
  const int alphabet = GetParam();
  Rng rng(static_cast<uint64_t>(alphabet) + 2000);
  for (int iter = 0; iter < 60; ++iter) {
    const size_t length = static_cast<size_t>(rng.UniformU64(401));
    const std::string base = RandomString(&rng, length, alphabet);
    for (int k : {1, 2, 3, 8, 30}) {
      const std::string edited = Edit(&rng, base, k, alphabet);
      ExpectMatchesReference(base, edited);
      EXPECT_LE(Levenshtein(base, edited), k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphabets, LevenshteinOracleTest,
                         testing::Values(2, 4, 26, 256));

// Concurrent callers each use their own scratch: four threads resolving
// distinct inputs of mixed lengths must reproduce the serial results.
TEST(LevenshteinThreadTest, ConcurrentCallsMatchSerial) {
  constexpr int kThreads = 4;
  constexpr int kPairsPerThread = 200;
  Rng rng(77);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < kThreads * kPairsPerThread; ++i) {
    const size_t length = static_cast<size_t>(rng.UniformU64(351));
    const int edits = static_cast<int>(rng.UniformU64(40));
    const std::string a = RandomString(&rng, length, 26);
    pairs.emplace_back(a, Edit(&rng, a, edits, 26));
  }
  std::vector<double> serial;
  for (const auto& [a, b] : pairs) serial.push_back(EditSimilarity(a, b));

  std::vector<double> parallel(pairs.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pairs, &parallel, t] {
      for (int rep = 0; rep < 10; ++rep) {
        for (size_t i = static_cast<size_t>(t); i < pairs.size();
             i += kThreads) {
          parallel[i] = EditSimilarity(pairs[i].first, pairs[i].second);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace progres
