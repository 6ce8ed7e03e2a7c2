#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "datagen/corruption.h"
#include "datagen/generators.h"

namespace progres {
namespace {

// ---------------------------------------------------------------- corrupt

TEST(CorruptionTest, ZeroRatesPreserveValue) {
  Rng rng(1);
  const CorruptionConfig config{.typo_rate = 0.0, .missing_rate = 0.0,
                                .truncate_rate = 0.0};
  EXPECT_EQ(CorruptValue("hello world", config, &rng), "hello world");
}

TEST(CorruptionTest, MissingRateOneEmptiesValue) {
  Rng rng(2);
  const CorruptionConfig config{.typo_rate = 0.0, .missing_rate = 1.0,
                                .truncate_rate = 0.0};
  EXPECT_EQ(CorruptValue("hello", config, &rng), "");
}

TEST(CorruptionTest, TypoRateChangesRoughlyProportionally) {
  Rng rng(3);
  const CorruptionConfig config{.typo_rate = 0.1, .missing_rate = 0.0,
                                .truncate_rate = 0.0};
  const std::string base(1000, 'a');
  int changed_runs = 0;
  for (int i = 0; i < 20; ++i) {
    if (CorruptValue(base, config, &rng) != base) ++changed_runs;
  }
  EXPECT_EQ(changed_runs, 20);  // at 10% per char on 1000 chars, certain
}

TEST(CorruptionTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  const CorruptionConfig config{.typo_rate = 0.2, .missing_rate = 0.1,
                                .truncate_rate = 0.1};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(CorruptValue("progressive entity resolution", config, &a),
              CorruptValue("progressive entity resolution", config, &b));
  }
}

// ---------------------------------------------------------------- pubs

TEST(PublicationGeneratorTest, ProducesRequestedSize) {
  PublicationConfig config;
  config.num_entities = 1234;
  const LabeledDataset data = GeneratePublications(config);
  EXPECT_EQ(data.dataset.size(), 1234);
  EXPECT_EQ(data.truth.num_entities(), 1234);
  EXPECT_EQ(data.dataset.schema().size(), 3u);
}

TEST(PublicationGeneratorTest, InjectsDuplicates) {
  PublicationConfig config;
  config.num_entities = 5000;
  const LabeledDataset data = GeneratePublications(config);
  EXPECT_GT(data.truth.num_duplicate_pairs(), 200);
  // But not everything is a duplicate.
  EXPECT_LT(data.truth.num_duplicate_pairs(), data.dataset.size());
}

TEST(PublicationGeneratorTest, DeterministicForSeed) {
  PublicationConfig config;
  config.num_entities = 500;
  config.seed = 17;
  const LabeledDataset a = GeneratePublications(config);
  const LabeledDataset b = GeneratePublications(config);
  ASSERT_EQ(a.dataset.size(), b.dataset.size());
  for (EntityId i = 0; i < a.dataset.size(); ++i) {
    EXPECT_EQ(a.dataset.entity(i).attributes, b.dataset.entity(i).attributes);
    EXPECT_EQ(a.truth.cluster_of(i), b.truth.cluster_of(i));
  }
}

TEST(PublicationGeneratorTest, DifferentSeedsDiffer) {
  PublicationConfig a_config;
  a_config.num_entities = 200;
  a_config.seed = 1;
  PublicationConfig b_config = a_config;
  b_config.seed = 2;
  const LabeledDataset a = GeneratePublications(a_config);
  const LabeledDataset b = GeneratePublications(b_config);
  int differing = 0;
  for (EntityId i = 0; i < 200; ++i) {
    if (a.dataset.entity(i).attributes != b.dataset.entity(i).attributes) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 150);
}

TEST(PublicationGeneratorTest, TitlePrefixBlocksAreSkewed) {
  PublicationConfig config;
  config.num_entities = 8000;
  const LabeledDataset data = GeneratePublications(config);
  std::unordered_map<std::string, int64_t> block_sizes;
  for (const Entity& e : data.dataset.entities()) {
    ++block_sizes[std::string(e.attribute(kPubTitle).substr(0, 2))];
  }
  int64_t max_size = 0;
  for (const auto& [key, size] : block_sizes) {
    (void)key;
    max_size = std::max(max_size, size);
  }
  // Zipf first words: the biggest prefix-2 block dwarfs the average.
  const double average = static_cast<double>(data.dataset.size()) /
                         static_cast<double>(block_sizes.size());
  EXPECT_GT(static_cast<double>(max_size), 5.0 * average);
}

TEST(PublicationGeneratorTest, ClusterSizesAreSkewed) {
  PublicationConfig config;
  config.num_entities = 10000;
  const LabeledDataset data = GeneratePublications(config);
  std::unordered_map<int32_t, int> sizes;
  for (EntityId i = 0; i < data.dataset.size(); ++i) {
    ++sizes[data.truth.cluster_of(i)];
  }
  int singletons = 0;
  int large = 0;
  for (const auto& [cluster, n] : sizes) {
    (void)cluster;
    if (n == 1) ++singletons;
    if (n >= 4) ++large;
  }
  EXPECT_GT(singletons, 0);
  EXPECT_GT(large, 0);
}

// ---------------------------------------------------------------- books

TEST(BookGeneratorTest, EightAttributes) {
  BookConfig config;
  config.num_entities = 800;
  const LabeledDataset data = GenerateBooks(config);
  EXPECT_EQ(data.dataset.schema().size(), 8u);
  EXPECT_EQ(data.dataset.size(), 800);
  EXPECT_GT(data.truth.num_duplicate_pairs(), 10);
}

TEST(BookGeneratorTest, YearAndPagesAreNumeric) {
  BookConfig config;
  config.num_entities = 300;
  const LabeledDataset data = GenerateBooks(config);
  for (const Entity& e : data.dataset.entities()) {
    const std::string_view year = e.attribute(kBookYear);
    ASSERT_FALSE(year.empty());
    for (char c : year) EXPECT_TRUE(c >= '0' && c <= '9');
  }
}

TEST(BookGeneratorTest, Deterministic) {
  BookConfig config;
  config.num_entities = 300;
  const LabeledDataset a = GenerateBooks(config);
  const LabeledDataset b = GenerateBooks(config);
  for (EntityId i = 0; i < 300; ++i) {
    EXPECT_EQ(a.dataset.entity(i).attributes, b.dataset.entity(i).attributes);
  }
}

// ---------------------------------------------------------------- stream

// Joins an entity's attributes and cluster id into one comparison key.
std::string EntityFingerprint(const std::vector<std::string>& attributes,
                              int32_t cluster) {
  std::string key;
  for (const std::string& attribute : attributes) {
    key += attribute;
    key.push_back('\t');
  }
  key += std::to_string(cluster);
  return key;
}

// The streaming entry points share the batch generators' RNG draw sequence,
// so a stream must deliver exactly the batch dataset's entities — as a
// multiset, since the batch path shuffles and the stream does not.
TEST(StreamGeneratorTest, PublicationsMatchBatchAsMultiset) {
  PublicationConfig config;
  config.num_entities = 500;
  config.seed = 99;

  std::multiset<std::string> streamed;
  int64_t count = 0;
  StreamPublications(config, [&](std::vector<std::string> attributes,
                                 int32_t cluster) {
    ASSERT_EQ(attributes.size(), PublicationSchema().size());
    streamed.insert(EntityFingerprint(attributes, cluster));
    ++count;
  });
  EXPECT_EQ(count, config.num_entities);

  const LabeledDataset batch = GeneratePublications(config);
  std::multiset<std::string> materialized;
  for (EntityId i = 0; i < batch.dataset.size(); ++i) {
    materialized.insert(EntityFingerprint(batch.dataset.entity(i).attributes,
                                          batch.truth.cluster_of(i)));
  }
  EXPECT_EQ(streamed, materialized);
}

// The mega-block knob must keep the batch/stream draw-sequence contract:
// both entry points see the same entities, and the head-heavy skew is
// visible as a dominant shared title prefix.
TEST(StreamGeneratorTest, MegaBlockPublicationsMatchBatchAsMultiset) {
  PublicationConfig config;
  config.num_entities = 500;
  config.seed = 99;
  config.mega_block_fraction = 0.3;

  std::multiset<std::string> streamed;
  std::map<std::string, int64_t> prefix_counts;
  StreamPublications(config, [&](std::vector<std::string> attributes,
                                 int32_t cluster) {
    ++prefix_counts[attributes[kPubTitle].substr(0, 2)];
    streamed.insert(EntityFingerprint(attributes, cluster));
  });

  const LabeledDataset batch = GeneratePublications(config);
  std::multiset<std::string> materialized;
  for (EntityId i = 0; i < batch.dataset.size(); ++i) {
    materialized.insert(EntityFingerprint(batch.dataset.entity(i).attributes,
                                          batch.truth.cluster_of(i)));
  }
  EXPECT_EQ(streamed, materialized);

  int64_t max_prefix = 0;
  for (const auto& [prefix, count] : prefix_counts) {
    max_prefix = std::max(max_prefix, count);
  }
  EXPECT_GE(max_prefix, config.num_entities / 5)
      << "mega-block profile did not concentrate one title-prefix block";
}

TEST(StreamGeneratorTest, BooksMatchBatchAsMultiset) {
  BookConfig config;
  config.num_entities = 400;
  config.seed = 7;

  std::multiset<std::string> streamed;
  StreamBooks(config, [&](std::vector<std::string> attributes,
                          int32_t cluster) {
    ASSERT_EQ(attributes.size(), BookSchema().size());
    streamed.insert(EntityFingerprint(attributes, cluster));
  });

  const LabeledDataset batch = GenerateBooks(config);
  std::multiset<std::string> materialized;
  for (EntityId i = 0; i < batch.dataset.size(); ++i) {
    materialized.insert(EntityFingerprint(batch.dataset.entity(i).attributes,
                                          batch.truth.cluster_of(i)));
  }
  EXPECT_EQ(streamed, materialized);
}

TEST(StreamGeneratorTest, ClusterMembersArriveAdjacent) {
  PublicationConfig config;
  config.num_entities = 300;
  std::vector<int32_t> order;
  StreamPublications(config, [&](std::vector<std::string> /*attributes*/,
                                 int32_t cluster) {
    order.push_back(cluster);
  });
  ASSERT_EQ(order.size(), 300u);
  // Generation order: cluster ids are non-decreasing and dense.
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i], order[i - 1]);
    EXPECT_LE(order[i], order[i - 1] + 1);
  }
}

// ---------------------------------------------------------------- digests

// FNV-1a over every attribute value and cluster id in the order a
// generator hands them out. Each value ends with a 0x1f byte and each
// entity with 0x1e, so a byte moved across a field boundary shows.
class EntityDigest {
 public:
  void Add(const std::vector<std::string>& attributes, int32_t cluster) {
    for (const std::string& value : attributes) {
      Bytes(value);
      Byte(0x1f);
    }
    Bytes(std::to_string(cluster));
    Byte(0x1e);
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void Byte(unsigned char c) { hash_ = (hash_ ^ c) * 0x100000001b3ULL; }
  void Bytes(const std::string& s) {
    for (unsigned char c : s) Byte(c);
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string DatasetDigest(const LabeledDataset& data) {
  EntityDigest digest;
  for (EntityId i = 0; i < data.dataset.size(); ++i) {
    digest.Add(data.dataset.entity(i).attributes, data.truth.cluster_of(i));
  }
  return digest.hex();
}

// Frozen generator output. Every dataset, ER golden and benchmark reference
// digest follows from these draw sequences, so a change to any draw (its
// order, its count or its arithmetic) shows here first. Each case is large
// enough that cluster-size draws interleave with word draws many times.
TEST(GeneratorDigestTest, Publications) {
  PublicationConfig config;
  config.num_entities = 3000;
  EXPECT_EQ(DatasetDigest(GeneratePublications(config)), "33ed9c1b39e6bf1b");
}

TEST(GeneratorDigestTest, MegaBlockPublications) {
  PublicationConfig config;
  config.num_entities = 3000;
  config.mega_block_fraction = 0.3;
  EXPECT_EQ(DatasetDigest(GeneratePublications(config)), "77ed659919a7679e");
}

TEST(GeneratorDigestTest, Books) {
  BookConfig config;
  config.num_entities = 3000;
  EXPECT_EQ(DatasetDigest(GenerateBooks(config)), "1437e1bb9609fb09");
}

TEST(GeneratorDigestTest, StreamedPublications) {
  PublicationConfig config;
  config.num_entities = 3000;
  EntityDigest digest;
  StreamPublications(config, [&](std::vector<std::string> attributes,
                                 int32_t cluster) {
    digest.Add(attributes, cluster);
  });
  EXPECT_EQ(digest.hex(), "a89651f071cf6d43");
}

// ---------------------------------------------------------------- toy

TEST(PeopleToyTest, MatchesTableI) {
  const LabeledDataset toy = GeneratePeopleToy();
  ASSERT_EQ(toy.dataset.size(), 9);
  EXPECT_EQ(toy.dataset.entity(0).attribute(0), "John Lopez");
  EXPECT_EQ(toy.dataset.entity(4).attribute(0), "Gharles Andrews");
  EXPECT_EQ(toy.dataset.entity(8).attribute(1), "LA");
  // Clusters {e1,e2,e3}, {e4,e5}, singletons: 3 + 1 = 4 duplicate pairs.
  EXPECT_EQ(toy.truth.num_duplicate_pairs(), 4);
  EXPECT_TRUE(toy.truth.IsDuplicate(0, 2));
  EXPECT_TRUE(toy.truth.IsDuplicate(3, 4));
  EXPECT_FALSE(toy.truth.IsDuplicate(5, 6));
}

}  // namespace
}  // namespace progres
