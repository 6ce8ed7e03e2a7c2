// Parameterized integration sweep: the full progressive pipeline must hold
// its core invariants across the configuration grid (scheduler x emission x
// cluster size x workload) — plus the golden-equivalence check that pins
// every migrated driver's observable output to the pre-refactor fixtures.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "er_golden_util.h"
#include "eval/clustering.h"
#include "eval/recall_curve.h"
#include "mapreduce/trace.h"
#include "mechanism/psnm.h"
#include "mechanism/sorted_neighbor.h"

namespace progres {
namespace {

struct MatrixParams {
  TreeScheduler scheduler;
  MapEmission emission;
  int machines;
  bool books;

  std::string Label() const {
    std::string label;
    label += scheduler == TreeScheduler::kOurs         ? "ours"
             : scheduler == TreeScheduler::kNoSplit    ? "nosplit"
             : scheduler == TreeScheduler::kLpt        ? "lpt"
             : scheduler == TreeScheduler::kBlockSplit ? "blocksplit"
                                                       : "pairrange";
    label += emission == MapEmission::kPerBlock ? "_perblock" : "_pertree";
    label += "_m" + std::to_string(machines);
    label += books ? "_books" : "_pubs";
    return label;
  }
};

struct MatrixRun {
  LabeledDataset data;
  ErRunResult result;
};

// Runs the progressive pipeline on grid configuration `p`, its cluster
// passed through the variant suites' overlays.
MatrixRun RunMatrixConfig(const MatrixParams& p) {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
  if (p.books) {
    BookConfig train_gen;
    train_gen.num_entities = 500;
    train_gen.seed = 170;
    train = GenerateBooks(train_gen);
    BookConfig gen;
    gen.num_entities = 2000;
    gen.seed = 171;
    data = GenerateBooks(gen);
    blocking = BlockingConfig({{"X", kBookTitle, {3, 5, 8}, -1},
                               {"Y", kBookAuthors, {3, 5}, -1},
                               {"Z", kBookPublisher, {3, 5}, -1}});
    match = MatchFunction(
        {{kBookTitle, AttributeSimilarity::kEditDistance, 0.35, 0},
         {kBookAuthors, AttributeSimilarity::kEditDistance, 0.2, 0},
         {kBookPublisher, AttributeSimilarity::kEditDistance, 0.1, 0},
         {kBookYear, AttributeSimilarity::kExact, 0.1, 0},
         {kBookIsbn, AttributeSimilarity::kEditDistance, 0.1, 0},
         {kBookPages, AttributeSimilarity::kExact, 0.05, 0},
         {kBookLanguage, AttributeSimilarity::kExact, 0.05, 0},
         {kBookEdition, AttributeSimilarity::kExact, 0.05, 0}},
        0.75);
  } else {
    PublicationConfig train_gen;
    train_gen.num_entities = 500;
    train_gen.seed = 172;
    train = GeneratePublications(train_gen);
    PublicationConfig gen;
    gen.num_entities = 2000;
    gen.seed = 173;
    data = GeneratePublications(gen);
    blocking = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                               {"Y", kPubAbstract, {3, 5}, -1},
                               {"Z", kPubVenue, {3, 5}, -1}});
    match = MatchFunction(
        {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
         {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
         {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
        0.75);
  }
  const ProbabilityModel prob =
      ProbabilityModel::Train(train.dataset, train.truth, blocking);

  const SortedNeighborMechanism sn;
  ProgressiveErOptions options;
  options.cluster.machines = p.machines;
  options.cluster.execution_threads = 4;
  testing_util::ApplyTestOverlays(&options.cluster);
  options.scheduler = p.scheduler;
  options.map_emission = p.emission;
  const ProgressiveEr er(blocking, match, sn, prob, options);
  MatrixRun run;
  run.result = er.Run(data.dataset);
  run.data = std::move(data);
  return run;
}

class DriverMatrixTest : public testing::TestWithParam<MatrixParams> {};

TEST_P(DriverMatrixTest, PipelineInvariantsHold) {
  const MatrixParams p = GetParam();
  const MatrixRun run = RunMatrixConfig(p);
  const LabeledDataset& data = run.data;
  const ErRunResult& result = run.result;

  SCOPED_TRACE(p.Label());
  // Invariant 1: substantial recall on every configuration.
  const RecallCurve curve = RecallCurve::FromEvents(result.events, data.truth);
  EXPECT_GT(curve.final_recall(), 0.75);
  // Invariant 2: events are confined to the run window.
  for (const DuplicateEvent& event : result.events) {
    EXPECT_GE(event.time, result.preprocessing_end - 1e-9);
    EXPECT_LE(event.time, result.total_time + 1e-9);
  }
  // Invariant 3: counters line up with outcome totals.
  EXPECT_EQ(result.counters.Get("reduce.comparisons"), result.comparisons);
  EXPECT_EQ(result.counters.Get("reduce.duplicates"),
            result.duplicate_count);
  // Invariant 4: clustering the duplicates never crashes and produces a
  // valid assignment.
  const std::vector<int32_t> clusters =
      TransitiveClosure(data.dataset.size(), result.duplicates);
  EXPECT_EQ(static_cast<int64_t>(clusters.size()), data.dataset.size());
}

// Byte-identical equivalence against the pre-refactor seed: every driver's
// full observable output (pairs, counters sans "mr.shuffle.", events,
// chunks, recall curve — or the forests, for the stats job) must match the
// fixture frozen before the runtime was layered. Regenerate the fixtures
// with `make_er_golden tests/golden` only for intentional output changes.
class GoldenEquivalenceTest : public testing::TestWithParam<std::string> {};

TEST_P(GoldenEquivalenceTest, MatchesFrozenFixture) {
  if (testing_util::DiskFaultOverlayActive()) {
    GTEST_SKIP() << "fixtures frozen without the disk-fault overlay";
  }
  const std::string name = GetParam();
  std::ifstream in(std::string(PROGRES_GOLDEN_DIR) + "/" + name + ".golden",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture for " << name;
  std::stringstream frozen;
  frozen << in.rdbuf();
  const std::string actual = testing_util::RunGoldenDriver(name);
  EXPECT_EQ(actual, frozen.str()) << name << " output diverged from the seed";
}

// Differential: attaching a trace recorder must not change any observable
// output — pairs, counters, events, chunks, recall curve and every
// simulated timestamp (including the makespan) stay byte-identical to the
// untraced run, which the fixture above already pins. The recorder itself
// must not be left empty, or the check would pass vacuously.
TEST_P(GoldenEquivalenceTest, TracingLeavesOutputByteIdentical) {
  if (testing_util::DiskFaultOverlayActive()) {
    GTEST_SKIP() << "fixtures frozen without the disk-fault overlay";
  }
  const std::string name = GetParam();
  std::ifstream in(std::string(PROGRES_GOLDEN_DIR) + "/" + name + ".golden",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture for " << name;
  std::stringstream frozen;
  frozen << in.rdbuf();
  TraceRecorder recorder;
  const std::string traced = testing_util::RunGoldenDriver(name, &recorder);
  EXPECT_EQ(traced, frozen.str()) << name << " output changed under tracing";
  EXPECT_FALSE(recorder.spans().empty())
      << name << " recorded no spans while traced";
}

// The drivers price every emitted pair into their own "shuffle.bytes"
// counter with a formula that shares no code with the KvCodec encoding;
// the runtime's "mr.shuffle.bytes" counts the encoded bytes the shuffle
// actually stored. The two must agree, in memory and spilled alike. (MRSN
// keeps no such counter.)
TEST(ShuffleBytesTest, DriverCounterMatchesEncodedBytes) {
  const testing_util::GoldenWorkload w = testing_util::MakeGoldenWorkload();
  for (const bool spill : {false, true}) {
    for (const std::string name :
         {"basic", "progressive_perblock", "progressive_pertree"}) {
      SCOPED_TRACE(name + (spill ? " spilled" : " in memory"));
      ClusterConfig cluster = testing_util::GoldenCluster();
      if (spill) cluster.shuffle_budget = testing_util::TinySpillBudget();
      testing_util::ApplyTestOverlays(&cluster);
      const ErRunResult result = testing_util::RunGoldenEr(w, name, cluster);
      ASSERT_FALSE(result.failed) << result.error;
      if (spill) {
        EXPECT_GT(result.counters.Get("mr.spill.runs"), 0);
      }
      EXPECT_GT(result.counters.Get("shuffle.bytes"), 0);
      EXPECT_EQ(result.counters.Get("mr.shuffle.bytes"),
                result.counters.Get("shuffle.bytes"));
    }
  }
}

// The *_forced_spill and *_disk_faults variants of this suite test the
// out-of-core path only if both of its cluster factories really spill under
// them: RunGoldenDriver (one kSpillWrite span per spill run) and the grid's
// RunMatrixConfig. The disk-fault overlay's rates draw no fault on either
// factory's spill runs at their fault seed, so that overlay is not checked
// for injected faults here.
TEST(TestOverlayTest, GoldenDriverAndGridSpillUnderOverlays) {
  if (!testing_util::ForcedSpillOverlayActive()) {
    GTEST_SKIP() << "PROGRES_FORCE_SPILL not set";
  }
  TraceRecorder recorder;
  testing_util::RunGoldenDriver("progressive_perblock", &recorder);
  int64_t spill_writes = 0;
  for (const TraceSpan& span : recorder.spans()) {
    if (span.kind == SpanKind::kSpillWrite) ++spill_writes;
  }
  EXPECT_GT(spill_writes, 0);

  const MatrixRun grid = RunMatrixConfig(
      {TreeScheduler::kOurs, MapEmission::kPerBlock, 2, false});
  ASSERT_FALSE(grid.result.failed) << grid.result.error;
  EXPECT_GT(grid.result.counters.Get("mr.spill.runs"), 0);
}

// Differential: the final duplicate set is a function of the workload, not
// of how the pair space is partitioned across reduce tasks. Every
// scheduler — including the pair-level BlockSplit/PairRange, which carve
// blocks into sub-block match tasks — must reproduce exactly the "pair"
// lines of the frozen progressive fixture, and therefore byte-identical
// final clusterings. Fixture parsing, not regeneration: a scheduler that
// drops or duplicates pairs diverges from the seed here.
TEST(SchedulerDifferentialTest, FinalDuplicatesInvariantAcrossSchedulers) {
  std::ifstream in(
      std::string(PROGRES_GOLDEN_DIR) + "/progressive_perblock.golden",
      std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> frozen_pairs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("pair ", 0) == 0) frozen_pairs.push_back(line.substr(5));
  }
  ASSERT_FALSE(frozen_pairs.empty());
  std::sort(frozen_pairs.begin(), frozen_pairs.end());

  const testing_util::GoldenWorkload w = testing_util::MakeGoldenWorkload();
  const ProbabilityModel prob =
      ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking);
  const SortedNeighborMechanism sn;
  std::vector<int32_t> first_clusters;
  for (const TreeScheduler scheduler :
       {TreeScheduler::kOurs, TreeScheduler::kNoSplit, TreeScheduler::kLpt,
        TreeScheduler::kBlockSplit, TreeScheduler::kPairRange}) {
    SCOPED_TRACE("scheduler=" + std::to_string(static_cast<int>(scheduler)));
    ProgressiveErOptions options;
    options.cluster = testing_util::GoldenCluster();
    testing_util::ApplyTestOverlays(&options.cluster);
    options.scheduler = scheduler;
    const ProgressiveEr er(w.blocking, w.match, sn, prob, options);
    const ErRunResult result = er.Run(w.data.dataset);
    ASSERT_FALSE(result.failed) << result.error;

    std::vector<std::string> pairs;
    for (const PairKey pair : result.duplicates) {
      const auto [a, b] = PairKeyIds(pair);
      pairs.push_back(std::to_string(a) + "-" + std::to_string(b));
    }
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, frozen_pairs);

    const std::vector<int32_t> clusters =
        TransitiveClosure(w.data.dataset.size(), result.duplicates);
    if (first_clusters.empty()) {
      first_clusters = clusters;
    } else {
      EXPECT_EQ(clusters, first_clusters);
    }
  }
}

// Invalid schedule parameters must fail the run with a labelled error, not
// crash or silently produce an empty result.
TEST(SchedulerDifferentialTest, InvalidScheduleParamsFailTheRun) {
  const testing_util::GoldenWorkload w = testing_util::MakeGoldenWorkload();
  const ProbabilityModel prob =
      ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking);
  const SortedNeighborMechanism sn;
  ProgressiveErOptions options;
  options.cluster = testing_util::GoldenCluster();
  testing_util::ApplyTestOverlays(&options.cluster);
  options.cost_vector = {5.0, 1.0};  // not strictly increasing
  const ProgressiveEr er(w.blocking, w.match, sn, prob, options);
  const ErRunResult result = er.Run(w.data.dataset);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("schedule generation"), std::string::npos)
      << result.error;
}

INSTANTIATE_TEST_SUITE_P(Drivers, GoldenEquivalenceTest,
                         testing::ValuesIn(testing_util::GoldenDriverNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

INSTANTIATE_TEST_SUITE_P(
    Grid, DriverMatrixTest,
    testing::Values(
        MatrixParams{TreeScheduler::kOurs, MapEmission::kPerBlock, 2, false},
        MatrixParams{TreeScheduler::kOurs, MapEmission::kPerTree, 2, false},
        MatrixParams{TreeScheduler::kNoSplit, MapEmission::kPerBlock, 2,
                     false},
        MatrixParams{TreeScheduler::kLpt, MapEmission::kPerBlock, 2, false},
        MatrixParams{TreeScheduler::kOurs, MapEmission::kPerBlock, 5, false},
        MatrixParams{TreeScheduler::kOurs, MapEmission::kPerTree, 5, true},
        MatrixParams{TreeScheduler::kOurs, MapEmission::kPerBlock, 2, true},
        MatrixParams{TreeScheduler::kBlockSplit, MapEmission::kPerBlock, 2,
                     false},
        MatrixParams{TreeScheduler::kPairRange, MapEmission::kPerBlock, 2,
                     false},
        // Pair-level schedules cannot regroup by tree; per-tree emission
        // must fall back to per-block without breaking any invariant.
        MatrixParams{TreeScheduler::kBlockSplit, MapEmission::kPerTree, 3,
                     false},
        MatrixParams{TreeScheduler::kPairRange, MapEmission::kPerBlock, 2,
                     true}),
    [](const testing::TestParamInfo<MatrixParams>& info) {
      return info.param.Label();
    });

}  // namespace
}  // namespace progres
