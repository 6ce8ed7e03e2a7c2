#include <cstdint>
#include <string>

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

// The MR statistics job must agree block-for-block with the in-memory
// reference implementation (BuildForests + ComputeUncoveredPairs).
TEST(StatsJobTest, MatchesInMemoryReference) {
  PublicationConfig gen;
  gen.num_entities = 3000;
  gen.seed = 71;
  const LabeledDataset data = GeneratePublications(gen);
  const BlockingConfig config({{"X", kPubTitle, {2, 4, 8}, -1},
                               {"Y", kPubAbstract, {3, 5}, -1},
                               {"Z", kPubVenue, {3, 5}, -1}});

  std::vector<Forest> reference =
      BuildForests(data.dataset, config, /*keep_members=*/false);
  ComputeUncoveredPairs(data.dataset, config, &reference);

  const StatsJobOutput mr = RunStatisticsJob(data.dataset, config,
                                             TestCluster(), 6, 6);
  ASSERT_EQ(mr.forests.size(), reference.size());
  for (size_t f = 0; f < reference.size(); ++f) {
    const Forest& expected = reference[f];
    const Forest& actual = mr.forests[f];
    ASSERT_EQ(actual.nodes.size(), expected.nodes.size()) << "family " << f;
    ASSERT_EQ(actual.roots.size(), expected.roots.size());
    for (const BlockNode& node : expected.nodes) {
      const int found = actual.Find(node.id.path);
      ASSERT_GE(found, 0) << "missing block " << node.id.path;
      const BlockNode& got = actual.node(found);
      EXPECT_EQ(got.size, node.size) << node.id.path;
      EXPECT_EQ(got.uncov, node.uncov) << node.id.path;
      EXPECT_EQ(got.id.level, node.id.level);
      EXPECT_EQ(got.children.size(), node.children.size());
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
