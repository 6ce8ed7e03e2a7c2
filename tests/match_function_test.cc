#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "similarity/match_function.h"

namespace progres {
namespace {

Entity MakeEntity(EntityId id, std::vector<std::string> attributes) {
  Entity e;
  e.id = id;
  e.attributes = std::move(attributes);
  return e;
}

LabeledDataset GeneratedPublications() {
  PublicationConfig config;
  config.num_entities = 2000;
  config.seed = 99;
  return GeneratePublications(config);
}

std::vector<AttributeRule> PublicationRules() {
  return {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
          {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
          {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}};
}

// Reference edit similarity over the classic two-row DP, which shares no
// code with the bit-parallel kernel behind EditSimilarity.
double ReferenceEditSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
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
  const double distance = static_cast<double>(row[a.size()]);
  return 1.0 - distance / static_cast<double>(longest);
}

// A test-local weighted sum of edit-distance rules over the reference DP.
struct ReferenceMatch {
  std::vector<AttributeRule> rules;
  double threshold;

  double Term(const AttributeRule& r, const Entity& a, const Entity& b) const {
    std::string_view va = a.attribute(static_cast<size_t>(r.attribute_index));
    std::string_view vb = b.attribute(static_cast<size_t>(r.attribute_index));
    if (r.max_chars > 0) {
      va = va.substr(0, static_cast<size_t>(r.max_chars));
      vb = vb.substr(0, static_cast<size_t>(r.max_chars));
    }
    return r.weight * ReferenceEditSimilarity(va, vb);
  }

  double TotalWeight() const {
    double total = 0.0;
    for (const AttributeRule& r : rules) total += r.weight;
    return total;
  }

  // Rule-order sum over the total weight, as Similarity() documents it.
  double Similarity(const Entity& a, const Entity& b) const {
    double sum = 0.0;
    for (const AttributeRule& r : rules) sum += Term(r, a, b);
    return sum / TotalWeight();
  }

  // The decision as Resolve() documents it: heaviest weight first, stopping
  // once the remaining weight can no longer change it.
  bool Resolve(const Entity& a, const Entity& b) const {
    std::vector<size_t> order(rules.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [this](size_t x, size_t y) {
      return rules[x].weight > rules[y].weight;
    });
    const double total = TotalWeight();
    const double need = threshold * total;
    double sum = 0.0;
    double remaining = total;
    for (size_t index : order) {
      remaining -= rules[index].weight;
      sum += Term(rules[index], a, b);
      if (sum >= need) return true;
      if (sum + remaining < need) return false;
    }
    return sum >= need;
  }
};

TEST(MatchFunctionTest, IdenticalEntitiesMatch) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.9);
  const Entity a = MakeEntity(0, {"progressive resolution"});
  const Entity b = MakeEntity(1, {"progressive resolution"});
  EXPECT_TRUE(match.Resolve(a, b));
  EXPECT_DOUBLE_EQ(match.Similarity(a, b), 1.0);
}

TEST(MatchFunctionTest, DissimilarEntitiesDoNotMatch) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.8);
  EXPECT_FALSE(match.Resolve(MakeEntity(0, {"aaaaaaaa"}),
                             MakeEntity(1, {"zzzzzzzz"})));
}

TEST(MatchFunctionTest, WeightedSumCombinesAttributes) {
  // Attribute 0 identical (weight 3), attribute 1 disjoint (weight 1):
  // similarity = 3/4.
  MatchFunction match({{0, AttributeSimilarity::kExact, 3.0, 0},
                       {1, AttributeSimilarity::kExact, 1.0, 0}},
                      0.7);
  const Entity a = MakeEntity(0, {"same", "xxx"});
  const Entity b = MakeEntity(1, {"same", "yyy"});
  EXPECT_DOUBLE_EQ(match.Similarity(a, b), 0.75);
  EXPECT_TRUE(match.Resolve(a, b));
}

TEST(MatchFunctionTest, ExactComparatorIsBinary) {
  MatchFunction match({{0, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
  EXPECT_DOUBLE_EQ(
      match.Similarity(MakeEntity(0, {"abcd"}), MakeEntity(1, {"abce"})), 0.0);
}

TEST(MatchFunctionTest, MaxCharsTruncatesComparison) {
  // Strings differ only after the 4th character; with max_chars=4 they are
  // identical (the paper truncates abstracts to 350 chars the same way).
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 4}}, 0.99);
  EXPECT_TRUE(match.Resolve(MakeEntity(0, {"abcdXXXX"}),
                            MakeEntity(1, {"abcdYYYY"})));
}

TEST(MatchFunctionTest, BothMissingValuesCountAsSimilar) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.9);
  EXPECT_TRUE(match.Resolve(MakeEntity(0, {""}), MakeEntity(1, {""})));
}

TEST(MatchFunctionTest, OneMissingValueCountsAsDissimilar) {
  MatchFunction match({{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.5);
  EXPECT_FALSE(match.Resolve(MakeEntity(0, {"value"}), MakeEntity(1, {""})));
}

// Sanity on generated data: corrupted duplicates must mostly clear the
// threshold while random non-duplicates must mostly fail it; otherwise the
// figure reproductions cannot reach the paper's recall levels.
TEST(MatchFunctionTest, SeparatesGeneratedDuplicatesFromDistinct) {
  const LabeledDataset data = GeneratedPublications();
  const MatchFunction match(PublicationRules(), 0.75);
  int64_t dup_hits = 0;
  int64_t dup_total = 0;
  for (PairKey pair : data.truth.AllDuplicatePairs()) {
    const auto [a, b] = PairKeyIds(pair);
    ++dup_total;
    if (match.Resolve(data.dataset.entity(a), data.dataset.entity(b))) {
      ++dup_hits;
    }
  }
  ASSERT_GT(dup_total, 100);
  EXPECT_GT(static_cast<double>(dup_hits) / static_cast<double>(dup_total),
            0.9);

  // Random non-duplicate pairs must rarely match.
  Rng rng(5);
  int64_t false_hits = 0;
  int64_t distinct_total = 0;
  while (distinct_total < 2000) {
    const EntityId a =
        static_cast<EntityId>(rng.UniformU64(static_cast<uint64_t>(data.dataset.size())));
    const EntityId b =
        static_cast<EntityId>(rng.UniformU64(static_cast<uint64_t>(data.dataset.size())));
    if (a == b || data.truth.IsDuplicate(a, b)) continue;
    ++distinct_total;
    if (match.Resolve(data.dataset.entity(a), data.dataset.entity(b))) {
      ++false_hits;
    }
  }
  EXPECT_LT(static_cast<double>(false_hits) /
                static_cast<double>(distinct_total),
            0.01);
}

// Oracle: on generated data, Resolve must equal the test-local weighted sum
// over the reference DP for every pair inside a title-prefix block (the root
// blocks of the publication forests: the lower-cased first two title
// characters), and Resolve and Similarity must both equal it for random
// pairs across blocks.
TEST(MatchFunctionTest, MatchesReferenceWeightedSumOnGeneratedPairs) {
  const LabeledDataset data = GeneratedPublications();
  const Dataset& dataset = data.dataset;
  const MatchFunction match(PublicationRules(), 0.75);
  const ReferenceMatch reference{PublicationRules(), 0.75};

  std::map<std::string, std::vector<EntityId>> blocks;
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const EntityId id = static_cast<EntityId>(i);
    std::string key(dataset.entity(id).attribute(kPubTitle).substr(0, 2));
    for (char& c : key) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    blocks[key].push_back(id);
  }
  size_t block_pairs = 0;
  size_t matches = 0;
  for (const auto& [key, ids] : blocks) {
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        const Entity& a = dataset.entity(ids[i]);
        const Entity& b = dataset.entity(ids[j]);
        const bool expected = reference.Resolve(a, b);
        ASSERT_EQ(match.Resolve(a, b), expected)
            << "pair " << ids[i] << "," << ids[j];
        ++block_pairs;
        if (expected) ++matches;
      }
    }
  }
  ASSERT_GT(block_pairs, 10000u);
  // Both decisions are exercised.
  EXPECT_GT(matches, 100u);
  EXPECT_GT(block_pairs - matches, 100u);

  const uint64_t num_entities = static_cast<uint64_t>(dataset.size());
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const EntityId ia = static_cast<EntityId>(rng.UniformU64(num_entities));
    const EntityId ib = static_cast<EntityId>(rng.UniformU64(num_entities));
    const Entity& a = dataset.entity(ia);
    const Entity& b = dataset.entity(ib);
    ASSERT_EQ(match.Resolve(a, b), reference.Resolve(a, b))
        << "pair " << ia << "," << ib;
    ASSERT_EQ(match.Similarity(a, b), reference.Similarity(a, b))
        << "pair " << ia << "," << ib;
  }
}

}  // namespace
}  // namespace progres
