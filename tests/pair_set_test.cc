// PairSet against std::unordered_set<PairKey> as the oracle: every insert's
// result, every membership answer, the size and the iterated keys must
// agree over edge keys, structured key families and seeded sequences that
// cross every growth step up to 2^17 keys.

#include "model/pair_set.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace progres {
namespace {

using Oracle = std::unordered_set<PairKey>;

std::vector<PairKey> Keys(const PairSet& set) {
  std::vector<PairKey> keys;
  set.ForEach([&keys](PairKey key) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<PairKey> Keys(const Oracle& oracle) {
  std::vector<PairKey> keys(oracle.begin(), oracle.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Inserts `key` into both sets; the results must agree (false on a repeat).
void InsertBoth(PairKey key, PairSet* set, Oracle* oracle) {
  const bool fresh = oracle->insert(key).second;
  ASSERT_EQ(set->insert(key), fresh) << "key " << key;
  ASSERT_TRUE(set->contains(key)) << "key " << key;
}

// Same size, and the iterated keys are the oracle's, each exactly once (a
// key visited twice would lengthen the sorted list).
void ExpectSame(const PairSet& set, const Oracle& oracle) {
  EXPECT_EQ(set.size(), oracle.size());
  EXPECT_EQ(Keys(set), Keys(oracle));
}

TEST(PairSetTest, EmptySetHoldsNothing) {
  const PairSet set;
  EXPECT_EQ(set.size(), 0u);
  for (const PairKey key :
       {PairKey{0}, PairKey{1}, std::numeric_limits<PairKey>::max()}) {
    EXPECT_FALSE(set.contains(key));
  }
  EXPECT_TRUE(Keys(set).empty());
}

TEST(PairSetTest, EdgeKeys) {
  const std::vector<PairKey> edges = {
      0,  // MakePairKey(0, 0): the empty-slot value, held in a flag
      1,
      std::numeric_limits<PairKey>::max(),
      MakePairKey(0, std::numeric_limits<int32_t>::max()),
      MakePairKey(std::numeric_limits<int32_t>::max() - 1,
                  std::numeric_limits<int32_t>::max()),
  };
  PairSet set;
  Oracle oracle;
  for (const PairKey key : edges) {
    EXPECT_FALSE(set.contains(key)) << key;
    InsertBoth(key, &set, &oracle);
  }
  for (const PairKey key : edges) InsertBoth(key, &set, &oracle);  // repeats
  ExpectSame(set, oracle);
  EXPECT_FALSE(set.contains(2));
}

TEST(PairSetTest, StructuredKeyFamilies) {
  PairSet set;
  Oracle oracle;
  // Pairs sharing an entity: the same high 32 bits (smaller id), or the
  // same low 32 bits (larger id).
  for (uint32_t i = 1; i <= 3000; ++i) {
    InsertBoth(MakePairKey(7, static_cast<EntityId>(7 + i)), &set, &oracle);
    InsertBoth((static_cast<PairKey>(i) << 32) | 0x5000u, &set, &oracle);
  }
  // Keys equal modulo every slot count the set passes through, and keys
  // that differ only in their top bits.
  for (uint64_t i = 1; i <= 3000; ++i) {
    InsertBoth(i << 17, &set, &oracle);
    InsertBoth(i << 44, &set, &oracle);
    InsertBoth((i << 54) | 3, &set, &oracle);
  }
  ExpectSame(set, oracle);
  // Absent keys from the same families.
  for (uint32_t i = 3001; i <= 3100; ++i) {
    EXPECT_FALSE(set.contains(MakePairKey(7, static_cast<EntityId>(7 + i))));
    EXPECT_FALSE(set.contains(static_cast<PairKey>(i) << 17));
    EXPECT_FALSE(set.contains((static_cast<PairKey>(i) << 32) | 0x5001u));
  }
}

TEST(PairSetTest, CrossesEveryGrowthStepUpTo2To17) {
  Rng rng(17);
  PairSet set;
  Oracle oracle;
  size_t next_check = 1;
  while (oracle.size() <= (size_t{1} << 17)) {
    // Half the draws are pair-shaped keys (ids below 2^31), half any 64 bits.
    const PairKey key =
        rng.Bernoulli(0.5)
            ? MakePairKey(static_cast<EntityId>(rng.UniformU64(1u << 31)),
                          static_cast<EntityId>(rng.UniformU64(1u << 31)))
            : rng.NextU64();
    InsertBoth(key, &set, &oracle);
    // Compare whole sets on both sides of every power of two.
    if (oracle.size() == next_check || oracle.size() == next_check + 1) {
      ExpectSame(set, oracle);
      if (oracle.size() == next_check + 1) next_check *= 2;
    }
  }
  ExpectSame(set, oracle);
  for (const PairKey key : oracle) ASSERT_TRUE(set.contains(key));
}

TEST(PairSetTest, SeededInsertContainsSequences) {
  for (const uint64_t seed : {1u, 2u, 3u, 9001u}) {
    Rng rng(seed);
    PairSet set;
    Oracle oracle;
    // A small id universe makes repeats and misses frequent.
    const uint64_t ids = 40 + rng.UniformU64(400);
    for (int op = 0; op < 20000; ++op) {
      const auto a = static_cast<EntityId>(rng.UniformU64(ids));
      const auto b = static_cast<EntityId>(rng.UniformU64(ids));
      // a == b makes no real pair but still a key (0 when both are 0).
      const PairKey key = MakePairKey(a, b);
      if (rng.Bernoulli(0.5)) {
        InsertBoth(key, &set, &oracle);
      } else {
        ASSERT_EQ(set.contains(key), oracle.count(key) > 0)
            << "seed " << seed << " key " << key;
      }
    }
    ExpectSame(set, oracle);
  }
}

TEST(PairSetTest, ReserveKeepsContents) {
  PairSet set;
  Oracle oracle;
  for (PairKey key = 0; key < 100; ++key) InsertBoth(key, &set, &oracle);
  set.reserve(5000);
  ExpectSame(set, oracle);
  for (PairKey key = 100; key < 5000; ++key) InsertBoth(key, &set, &oracle);
  ExpectSame(set, oracle);
}

TEST(PairSetTest, CopiesAreIndependent) {
  PairSet original;
  Oracle oracle;
  for (PairKey key = 0; key < 1000; ++key) {
    InsertBoth(key * 0x100000001ULL, &original, &oracle);
  }
  PairSet copied(original);
  PairSet assigned;
  assigned.insert(42);
  assigned = original;
  ExpectSame(copied, oracle);
  ExpectSame(assigned, oracle);

  // Growing the original past a resize leaves both copies as they were.
  for (PairKey key = 1000; key < 5000; ++key) original.insert(key << 20);
  ExpectSame(copied, oracle);
  ExpectSame(assigned, oracle);
  EXPECT_FALSE(copied.contains(4999ULL << 20));

  // And writes to a copy do not reach the original or the other copy.
  Oracle copied_oracle = oracle;
  InsertBoth(7777, &copied, &copied_oracle);
  EXPECT_FALSE(original.contains(7777));
  EXPECT_FALSE(assigned.contains(7777));
  ExpectSame(assigned, oracle);

  // Copies of an empty set and of a set holding only the flagged key 0.
  const PairSet empty;
  PairSet empty_copy(empty);
  empty_copy.insert(9);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.contains(9));
  PairSet zero;
  zero.insert(0);
  PairSet zero_copy = zero;
  zero.insert(5);
  EXPECT_EQ(zero_copy.size(), 1u);
  EXPECT_TRUE(zero_copy.contains(0));
  EXPECT_FALSE(zero_copy.contains(5));
}

}  // namespace
}  // namespace progres
