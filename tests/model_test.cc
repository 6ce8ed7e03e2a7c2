#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/dataset.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "model/union_find.h"

namespace progres {
namespace {

// ---------------------------------------------------------------- pairs

TEST(PairKeyTest, OrderIndependent) {
  EXPECT_EQ(MakePairKey(3, 9), MakePairKey(9, 3));
}

TEST(PairKeyTest, DistinctPairsDistinctKeys) {
  EXPECT_NE(MakePairKey(1, 2), MakePairKey(1, 3));
  EXPECT_NE(MakePairKey(1, 2), MakePairKey(2, 3));
}

TEST(PairKeyTest, RoundTripIds) {
  const auto [a, b] = PairKeyIds(MakePairKey(42, 7));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 42);
}

TEST(EntityTest, MissingAttributeIsEmpty) {
  Entity e;
  e.attributes = {"x"};
  EXPECT_EQ(e.attribute(0), "x");
  EXPECT_EQ(e.attribute(5), "");
}

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, AddAssignsDenseIds) {
  Dataset d({"name"});
  EXPECT_EQ(d.Add({"a"}), 0);
  EXPECT_EQ(d.Add({"b"}), 1);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.entity(1).attribute(0), "b");
}

TEST(DatasetTest, AttributeIndex) {
  Dataset d({"title", "venue"});
  EXPECT_EQ(d.AttributeIndex("title"), 0);
  EXPECT_EQ(d.AttributeIndex("venue"), 1);
  EXPECT_EQ(d.AttributeIndex("nope"), -1);
}

TEST(DatasetTest, TsvRoundTrip) {
  Dataset d({"a", "b"});
  d.Add({"x", "y"});
  d.Add({"", "z"});
  const std::string path = testing::TempDir() + "/progres_dataset.tsv";
  ASSERT_TRUE(d.SaveTsv(path));
  Dataset loaded;
  std::string error;
  ASSERT_TRUE(Dataset::LoadTsv(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2);
  EXPECT_EQ(loaded.schema(), d.schema());
  EXPECT_EQ(loaded.entity(0).attributes, d.entity(0).attributes);
  EXPECT_EQ(loaded.entity(1).attributes, d.entity(1).attributes);
  std::remove(path.c_str());
}

// Writes `content` to a fresh file under the test temp dir.
std::string WriteFile(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

// A row with more or fewer fields than the header fails with an error that
// names the file and the row's line.
TEST(DatasetTest, RowFieldCountMustMatchHeader) {
  for (const std::string bad_row : {"p\tq\tr\ts", "p\tq"}) {
    const std::string path = WriteFile("progres_bad_rows.tsv",
                                       "a\tb\tc\nx\ty\tz\n" + bad_row + "\n");
    Dataset loaded;
    std::string error;
    EXPECT_FALSE(Dataset::LoadTsv(path, &loaded, &error)) << bad_row;
    EXPECT_NE(error.find(path + ":3:"), std::string::npos) << error;
    std::remove(path.c_str());
  }
}

TEST(DatasetTest, EmptyOrMissingFileIsLabelled) {
  const std::string path = WriteFile("progres_empty.tsv", "");
  Dataset loaded;
  std::string error;
  EXPECT_FALSE(Dataset::LoadTsv(path, &loaded, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  std::remove(path.c_str());
  error.clear();
  EXPECT_FALSE(Dataset::LoadTsv(path, &loaded, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

// ---------------------------------------------------------------- truth

TEST(GroundTruthTest, CountsDuplicatePairs) {
  // Clusters: {0,1,2} (3 pairs), {3,4} (1 pair), {5} (0 pairs).
  GroundTruth truth({7, 7, 7, 9, 9, 11});
  EXPECT_EQ(truth.num_duplicate_pairs(), 4);
  EXPECT_TRUE(truth.IsDuplicate(0, 2));
  EXPECT_FALSE(truth.IsDuplicate(2, 3));
}

TEST(GroundTruthTest, AllDuplicatePairsEnumerates) {
  GroundTruth truth({1, 1, 2, 2, 2});
  std::vector<PairKey> pairs = truth.AllDuplicatePairs();
  std::sort(pairs.begin(), pairs.end());
  const std::vector<PairKey> expected = {MakePairKey(0, 1), MakePairKey(2, 3),
                                         MakePairKey(2, 4), MakePairKey(3, 4)};
  EXPECT_EQ(pairs, expected);
}

TEST(GroundTruthTest, TsvRoundTrip) {
  GroundTruth truth({5, 5, 6});
  const std::string path = testing::TempDir() + "/progres_truth.tsv";
  ASSERT_TRUE(truth.SaveTsv(path));
  GroundTruth loaded;
  std::string error;
  ASSERT_TRUE(GroundTruth::LoadTsv(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_entities(), 3);
  EXPECT_EQ(loaded.num_duplicate_pairs(), 1);
  EXPECT_TRUE(loaded.IsDuplicate(0, 1));
  EXPECT_FALSE(loaded.IsDuplicate(0, 2));
  std::remove(path.c_str());
}

// Each malformed truth file fails with an error naming the file and the
// offending line, instead of throwing or misassigning a cluster.
TEST(GroundTruthTest, LoadRejectsMalformedRows) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"0\t5\n1\tx\n", ":2:"},             // non-numeric cluster id
      {"0\t5\nabc\t5\n", ":2:"},           // non-numeric entity id
      {"0\t5\n0\t6\n", ":2:"},             // repeated entity id
      {"0\t5\n2\t6\n", ":2:"},             // id past the row count
      {"-1\t5\n0\t6\n", ":1:"},            // negative id
      {"0\t5\n1\t6\t7\n", ":2:"},          // extra field
      {"0\t5\n1\t99999999999\n", ":2:"}};  // cluster id out of range
  for (const auto& [content, line] : cases) {
    const std::string path = WriteFile("progres_bad_truth.tsv", content);
    GroundTruth loaded;
    std::string error;
    EXPECT_FALSE(GroundTruth::LoadTsv(path, &loaded, &error)) << content;
    EXPECT_NE(error.find(path + line), std::string::npos)
        << content << " -> " << error;
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------- unionfind

TEST(UnionFindTest, InitiallyDisjoint) {
  UnionFind uf(4);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_TRUE(uf.Connected(2, 2));
}

TEST(UnionFindTest, UnionMerges) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));  // already connected
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
}

TEST(UnionFindTest, TransitiveClosureOfChain) {
  UnionFind uf(100);
  for (int i = 0; i + 1 < 100; ++i) uf.Union(i, i + 1);
  EXPECT_TRUE(uf.Connected(0, 99));
}

}  // namespace
}  // namespace progres
