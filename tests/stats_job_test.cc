#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats_job.h"
#include "datagen/generators.h"
#include "mapreduce/serde.h"
#include "test_overlays.h"

namespace progres {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig cluster;
  cluster.machines = 3;
  cluster.execution_threads = 4;
  return cluster;
}

// Block-for-block equality with the reference forests: every reference
// block exists under its path with the same size, Uncov, level, number of
// children and parent path.
void ExpectSameForests(const std::vector<Forest>& reference,
                       const std::vector<Forest>& forests) {
  ASSERT_EQ(forests.size(), reference.size());
  for (size_t f = 0; f < reference.size(); ++f) {
    const Forest& expected = reference[f];
    const Forest& actual = forests[f];
    ASSERT_EQ(actual.nodes.size(), expected.nodes.size()) << "family " << f;
    ASSERT_EQ(actual.roots.size(), expected.roots.size());
    for (const BlockNode& node : expected.nodes) {
      const int found = actual.Find(node.id.path);
      ASSERT_GE(found, 0) << "missing block " << node.id.path;
      const BlockNode& got = actual.node(found);
      EXPECT_EQ(got.size, node.size) << node.id.path;
      EXPECT_EQ(got.uncov, node.uncov) << node.id.path;
      EXPECT_EQ(got.id.level, node.id.level) << node.id.path;
      EXPECT_EQ(got.children.size(), node.children.size()) << node.id.path;
      // Parent paths must agree.
      if (node.parent >= 0) {
        ASSERT_GE(got.parent, 0);
        EXPECT_EQ(actual.node(got.parent).id.path,
                  expected.node(node.parent).id.path);
      } else {
        EXPECT_LT(got.parent, 0);
      }
    }
  }
}

// Blocking configurations of the oracle grid: Table II's X/Y/Z, and a
// fourth family W dominated by all three, so its Uncov sums every one of
// the 7 subset masks of Sec. IV-A's inclusion–exclusion.
BlockingConfig XyzBlocking() {
  return BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                         {"Y", kPubAbstract, {3, 5}, -1},
                         {"Z", kPubVenue, {3, 5}, -1}});
}

BlockingConfig XyzwBlocking() {
  return BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                         {"Y", kPubAbstract, {3, 5}, -1},
                         {"Z", kPubVenue, {3, 5}, -1},
                         {"W", kPubTitle, {1, 3}, -1}});
}

// Generated publications plus hand-built records the generator never
// draws: empty and missing attributes, attributes shorter than every
// prefix, upper-case letters and bytes >= 0x80, values holding the tuple
// (0x1e) and path (0x1f) separators inside the keyed prefixes, and exact
// copies of generated and hand-built records. Blocking keys turn both
// separators into spaces, so every path and tuple splits back into the
// keys that built it.
Dataset OracleDataset() {
  PublicationConfig gen;
  gen.num_entities = 12000;
  gen.seed = 71;
  Dataset dataset = GeneratePublications(gen).dataset;
  const std::vector<std::vector<std::string>> hand_built = {
      {"", "", ""},
      {},
      {"q", "ab", "v"},
      {"Q", "AB", "V"},
      {"z", "", "vl"},
      {"MIXED Case \xc3\x89t\xc3\xa9 title", "\xff\xfe\x80 ABSTRACT text",
       "VLDB \xe2\x80\x94 Journal"},
      {"mixed case \xc3\x89T\xc3\xa9 TITLE", "\xff\xfe\x80 abstract",
       "vldb \xe2\x80\x94 journal"},
      {"\x80\x81\x82\x83\x84\x85\x86\x87\x88", "\xc0\xc1", "\xfe"},
      {"ab\x1f" "cdefgh title", "wo\x1e\x1frds in an abstract",
       "ac\x1fm conference"},
      {"ab\x1e" "cd separator title", "w\x1e" "o more words",
       "ac\x1e" "m\x1f venue"},
      {"a\x1e\x1f\x1e\x1fzzzz", "x\x1fy\x1ez", "\x1e\x1e\x1e"},
      // Title prefixes ending in 0x1e: the root keys "p " and "r " keep
      // Z's tuples "p \x1eqqq" and "r \x1esss" apart, where a 0x1e kept
      // in the key would split them into ("p", "") and ("r", "") and count
      // this pair as sharing Y's root.
      {"p\x1e title", "qqq abstract", "same venue"},
      {"r\x1e title", "sss abstract", "same venue"},
      // A Y root key holding 0x1f: kept in the key, the root block
      // "a\x1fa" would take the path of root block "a"'s level-2 block.
      {"y collision", "a", "y venue"},
      {"y collision", "a\x1f" "a rest", "y venue"},
  };
  const int64_t generated = dataset.size();
  for (const auto& attributes : hand_built) {
    dataset.Add(attributes);
    dataset.Add(attributes);  // an exact copy
  }
  for (EntityId id : {0, 1, 2, 17}) {
    if (id < generated) dataset.Add(dataset.entity(id).attributes);
  }
  return dataset;
}

struct OracleCase {
  bool spill = false;
  ExecutionBackend backend = ExecutionBackend::kSimulated;
  bool four_families = false;
};

std::string OracleCaseLabel(const OracleCase& c) {
  return std::string(c.spill ? "Spilled" : "InMemory") +
         (c.backend == ExecutionBackend::kThreaded ? "Threaded"
                                                   : "Simulated") +
         (c.four_families ? "Xyzw" : "Xyz");
}

std::string OracleCaseName(const testing::TestParamInfo<OracleCase>& info) {
  return OracleCaseLabel(info.param);
}

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << OracleCaseLabel(c);
}

std::vector<OracleCase> OracleCases() {
  std::vector<OracleCase> cases;
  for (const bool spill : {false, true}) {
    for (const ExecutionBackend backend :
         {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
      for (const bool four : {false, true}) {
        cases.push_back({spill, backend, four});
      }
    }
  }
  return cases;
}

class StatsJobOracleTest : public testing::TestWithParam<OracleCase> {};

// The MR statistics job must agree block-for-block with the in-memory
// reference implementation (BuildForests + ComputeUncoveredPairs), with
// every partition in memory or merged from hundreds of spill runs, on both
// backends.
TEST_P(StatsJobOracleTest, MatchesInMemoryReference) {
  const OracleCase& c = GetParam();
  static const Dataset dataset = OracleDataset();
  const BlockingConfig config =
      c.four_families ? XyzwBlocking() : XyzBlocking();

  std::vector<Forest> reference =
      BuildForests(dataset, config, /*keep_members=*/false);
  ComputeUncoveredPairs(dataset, config, &reference);

  ClusterConfig cluster = TestCluster();
  cluster.backend = c.backend;
  if (c.spill) cluster.shuffle_budget = testing_util::TinySpillBudget();
  const StatsJobOutput mr = RunStatisticsJob(dataset, config, cluster, 6, 6);
  ASSERT_FALSE(mr.failed) << mr.error;
  if (c.spill) {
    // Every run holds records of every partition, so each reduce task
    // merges about this many spilled segments.
    EXPECT_GE(mr.counters.Get("mr.spill.runs"), 150);
  } else {
    EXPECT_EQ(mr.counters.Get("mr.spill.runs"), 0);
  }
  ExpectSameForests(reference, mr.forests);
}

INSTANTIATE_TEST_SUITE_P(Grid, StatsJobOracleTest,
                         testing::ValuesIn(OracleCases()), OracleCaseName);

// A value holding the path separator inside its keyed prefix: with
// prefixes 1/3/5, "a\x1fabc" would reach "a␟a␟a" at level 2, where "a"
// reaches it at level 3, if its keys kept the separator. They turn it into
// a space, so each block keeps its own path, and the job must build the
// reference's forest whichever entity comes first.
TEST(StatsJobTest, CrossLevelPathCollisionMatchesReference) {
  const BlockingConfig config({{"X", 0, {1, 3, 5}, -1}, {"Y", 1, {1}, -1}});
  for (const bool deep_first : {false, true}) {
    SCOPED_TRACE(deep_first ? "\"a\" first" : "\"a\\x1fabc\" first");
    Dataset dataset({"name", "city"});
    const std::vector<std::string> deep = {"a", "b"};
    const std::vector<std::string> shallow = {"a\x1f" "abc", "b"};
    dataset.Add(deep_first ? deep : shallow);
    dataset.Add(deep_first ? shallow : deep);
    dataset.Add({"a\x1f" "abd", "c"});
    dataset.Add({"ab", "b"});
    std::vector<Forest> reference =
        BuildForests(dataset, config, /*keep_members=*/false);
    ComputeUncoveredPairs(dataset, config, &reference);
    for (const int map_tasks : {1, 3}) {
      const StatsJobOutput mr =
          RunStatisticsJob(dataset, config, TestCluster(), map_tasks, 2);
      ASSERT_FALSE(mr.failed) << mr.error;
      ExpectSameForests(reference, mr.forests);
    }
  }
}

// Bytes the statistics job's shuffle carries, written out from its wire
// format: one pair per (entity, family) whose key is the family digit, the
// path separator and the level-1 key, and whose value is the count-prefixed
// level-key chain followed by the dominating families' root keys joined by
// the tuple separator. Every string is length-prefixed.
int64_t StatsShuffleBytes(const Dataset& dataset,
                          const BlockingConfig& config) {
  const auto string_bytes = [](size_t size) {
    return static_cast<int64_t>(VarintSize(size) + size);
  };
  int64_t bytes = 0;
  for (const Entity& e : dataset.entities()) {
    for (int f = 0; f < config.num_families(); ++f) {
      const int levels = config.family(f).levels();
      bytes += string_bytes(2 + config.Key(f, 1, e).size());
      bytes += VarintSize(static_cast<uint64_t>(levels));
      for (int level = 1; level <= levels; ++level) {
        bytes += string_bytes(config.Key(f, level, e).size());
      }
      size_t tuple = f > 1 ? static_cast<size_t>(f - 1) : 0;  // separators
      for (int d = 0; d < f; ++d) tuple += config.Key(d, 1, e).size();
      bytes += string_bytes(tuple);
    }
  }
  return bytes;
}

TEST(StatsJobTest, ShuffleBytesMatchTheWireFormat) {
  PublicationConfig gen;
  gen.num_entities = 1500;
  gen.seed = 412;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config({{"X", kPubTitle, {2, 4, 8}, -1},
                               {"Y", kPubAbstract, {3, 5}, -1},
                               {"Z", kPubVenue, {3, 5}, -1}});
  const int64_t expected = StatsShuffleBytes(data.dataset, config);
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spilled" : "in memory");
    ClusterConfig cluster = TestCluster();
    if (spill) cluster.shuffle_budget = testing_util::TinySpillBudget();
    const StatsJobOutput out =
        RunStatisticsJob(data.dataset, config, cluster, 4, 3);
    ASSERT_FALSE(out.failed) << out.error;
    if (spill) {
      EXPECT_GT(out.counters.Get("mr.spill.runs"), 0);
    }
    EXPECT_EQ(out.counters.Get("mr.shuffle.records"),
              data.dataset.size() * config.num_families());
    EXPECT_EQ(out.counters.Get("mr.shuffle.bytes"), expected);
  }
}

TEST(StatsJobTest, TimingAdvances) {
  const LabeledDataset toy = GeneratePeopleToy();
  const BlockingConfig config({{"X", 0, {2, 4}, -1}, {"Y", 1, {2}, -1}});
  const StatsJobOutput out =
      RunStatisticsJob(toy.dataset, config, TestCluster(), 2, 2, 100.0);
  EXPECT_DOUBLE_EQ(out.timing.start, 100.0);
  EXPECT_GT(out.timing.end, 100.0);
  EXPECT_GE(out.timing.map_end, 100.0);
}

TEST(StatsJobTest, TaskCountInsensitive) {
  // Different map/reduce parallelism must not change the statistics.
  PublicationConfig gen;
  gen.num_entities = 800;
  gen.seed = 72;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config(
      {{"X", kPubTitle, {2, 4}, -1}, {"Y", kPubVenue, {3}, -1}});
  const StatsJobOutput a =
      RunStatisticsJob(data.dataset, config, TestCluster(), 1, 1);
  const StatsJobOutput b =
      RunStatisticsJob(data.dataset, config, TestCluster(), 7, 5);
  ASSERT_EQ(a.forests.size(), b.forests.size());
  for (size_t f = 0; f < a.forests.size(); ++f) {
    ASSERT_EQ(a.forests[f].nodes.size(), b.forests[f].nodes.size());
    for (const BlockNode& node : a.forests[f].nodes) {
      const int found = b.forests[f].Find(node.id.path);
      ASSERT_GE(found, 0);
      EXPECT_EQ(b.forests[f].node(found).size, node.size);
      EXPECT_EQ(b.forests[f].node(found).uncov, node.uncov);
    }
  }
}

}  // namespace
}  // namespace progres
