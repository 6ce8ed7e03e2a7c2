#include <algorithm>
#include <array>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "er_golden_util.h"
#include "eval/recall_curve.h"
#include "mechanism/psnm.h"
#include "mechanism/sorted_neighbor.h"
#include "test_overlays.h"

namespace progres {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig cluster;
  cluster.machines = 2;
  cluster.execution_threads = 4;
  return cluster;
}

BlockingConfig PublicationBlocking() {
  return BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                         {"Y", kPubAbstract, {3, 5}, -1},
                         {"Z", kPubVenue, {3, 5}, -1}});
}

MatchFunction PublicationMatch() {
  return MatchFunction(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
}

struct Fixture {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking = PublicationBlocking();
  MatchFunction match = PublicationMatch();
  SortedNeighborMechanism sn;
  ProbabilityModel prob;

  explicit Fixture(int64_t n = 2500) {
    PublicationConfig train_gen;
    train_gen.num_entities = n / 4;
    train_gen.seed = 90;
    train = GeneratePublications(train_gen);
    PublicationConfig gen;
    gen.num_entities = n;
    gen.seed = 91;
    data = GeneratePublications(gen);
    prob = ProbabilityModel::Train(train.dataset, train.truth, blocking);
  }

  ProgressiveErOptions Options() const {
    ProgressiveErOptions options;
    options.cluster = TestCluster();
    return options;
  }
};

TEST(ProgressiveErTest, ReachesHighFinalRecall) {
  const Fixture fx;
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ErRunResult result = er.Run(fx.data.dataset);
  const RecallCurve curve =
      RecallCurve::FromEvents(result.events, fx.data.truth);
  // Root blocks are resolved fully, so recall approaches the match
  // function's ceiling (paper: 0.99 on CiteSeerX).
  EXPECT_GT(curve.final_recall(), 0.85);
}

TEST(ProgressiveErTest, EventsAreTimedWithinRun) {
  const Fixture fx;
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ErRunResult result = er.Run(fx.data.dataset);
  EXPECT_GT(result.preprocessing_end, 0.0);
  for (const DuplicateEvent& event : result.events) {
    EXPECT_GE(event.time, result.preprocessing_end);
    EXPECT_LE(event.time, result.total_time + 1e-9);
  }
}

TEST(ProgressiveErTest, Deterministic) {
  const Fixture fx(1500);
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ErRunResult a = er.Run(fx.data.dataset);
  const ErRunResult b = er.Run(fx.data.dataset);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].pair, b.events[i].pair);
    EXPECT_DOUBLE_EQ(a.events[i].time, b.events[i].time);
  }
}

TEST(ProgressiveErTest, RedundancyEliminationSavesComparisons) {
  const Fixture fx;
  ProgressiveErOptions with = fx.Options();
  with.redundancy_elimination = true;
  ProgressiveErOptions without = fx.Options();
  without.redundancy_elimination = false;
  const ErRunResult on =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, with)
          .Run(fx.data.dataset);
  const ErRunResult off =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, without)
          .Run(fx.data.dataset);
  EXPECT_LT(on.comparisons, off.comparisons);
  // Responsibility assignment ignores window reach, so a shared pair can be
  // skipped everywhere except a tree whose sort order never brings it within
  // the window. The recall cost of eliminating redundancy must stay small
  // relative to the comparisons saved.
  const RecallCurve curve_on = RecallCurve::FromEvents(on.events, fx.data.truth);
  const RecallCurve curve_off =
      RecallCurve::FromEvents(off.events, fx.data.truth);
  EXPECT_LE(curve_on.final_recall(), curve_off.final_recall() + 1e-9);
  EXPECT_GT(curve_on.final_recall(), curve_off.final_recall() - 0.08);
}

TEST(ProgressiveErTest, PreprocessExposesScheduleAndForests) {
  const Fixture fx(1200);
  const ProgressiveEr er(fx.blocking, fx.match, fx.sn, fx.prob, fx.Options());
  const ProgressiveEr::Preprocessed pre = er.Preprocess(fx.data.dataset);
  EXPECT_EQ(pre.forests.size(), 3u);
  EXPECT_GT(pre.end_time, 0.0);
  EXPECT_EQ(pre.schedule.num_reduce_tasks, TestCluster().reduce_slots());
  size_t scheduled = 0;
  for (const auto& units : pre.schedule.task_units) scheduled += units.size();
  EXPECT_GT(scheduled, 0u);
}

TEST(ProgressiveErTest, WorksWithPsnm) {
  const Fixture fx(1500);
  const PsnmMechanism psnm;
  const ProgressiveEr er(fx.blocking, fx.match, psnm, fx.prob, fx.Options());
  const ErRunResult result = er.Run(fx.data.dataset);
  const RecallCurve curve =
      RecallCurve::FromEvents(result.events, fx.data.truth);
  EXPECT_GT(curve.final_recall(), 0.8);
}

TEST(ProgressiveErTest, SchedulerVariantsRun) {
  const Fixture fx(1500);
  for (TreeScheduler scheduler :
       {TreeScheduler::kOurs, TreeScheduler::kNoSplit, TreeScheduler::kLpt}) {
    ProgressiveErOptions options = fx.Options();
    options.scheduler = scheduler;
    const ErRunResult result =
        ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, options)
            .Run(fx.data.dataset);
    const RecallCurve curve =
        RecallCurve::FromEvents(result.events, fx.data.truth);
    EXPECT_GT(curve.final_recall(), 0.8)
        << "scheduler " << static_cast<int>(scheduler);
  }
}

TEST(ProgressiveErTest, MoreMachinesFinishSooner) {
  const Fixture fx(3000);
  ProgressiveErOptions small = fx.Options();
  small.cluster.machines = 2;
  ProgressiveErOptions large = fx.Options();
  large.cluster.machines = 8;
  const ErRunResult slow =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, small)
          .Run(fx.data.dataset);
  const ErRunResult fast =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, large)
          .Run(fx.data.dataset);
  EXPECT_LT(fast.total_time, slow.total_time);
}

TEST(ProgressiveErTest, AlphaControlsChunkCount) {
  const Fixture fx(1500);
  ProgressiveErOptions fine = fx.Options();
  fine.alpha = 200.0;
  ProgressiveErOptions coarse = fx.Options();
  coarse.alpha = 1e9;
  const ErRunResult fine_run =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, fine)
          .Run(fx.data.dataset);
  const ErRunResult coarse_run =
      ProgressiveEr(fx.blocking, fx.match, fx.sn, fx.prob, coarse)
          .Run(fx.data.dataset);
  EXPECT_GT(fine_run.chunks.size(), coarse_run.chunks.size());
  // With a huge alpha there is exactly one chunk per reduce task.
  EXPECT_EQ(coarse_run.chunks.size(),
            static_cast<size_t>(TestCluster().reduce_slots()));
}

// Sorted-neighbor resolution that records the sub-range restriction of
// every request it receives (the threaded backend calls it concurrently).
class RecordingMechanism final : public ProgressiveMechanism {
 public:
  using Range = std::array<int64_t, 4>;  // a_lo, a_hi, b_lo, b_hi

  std::string name() const override { return sn_.name(); }
  ResolveOutcome Resolve(const ResolveRequest& request) const override {
    const ResolveOptions& o = request.options;
    if (o.sub_a_hi >= 0) {
      const std::lock_guard<std::mutex> lock(mu_);
      sub_ranges_.push_back({o.sub_a_lo, o.sub_a_hi, o.sub_b_lo, o.sub_b_hi});
    }
    return sn_.Resolve(request);
  }

  // The sub-ranges requested since the last call, sorted.
  std::vector<Range> TakeSubRanges() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Range> ranges = std::move(sub_ranges_);
    sub_ranges_.clear();
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  }

 private:
  const SortedNeighborMechanism sn_;
  mutable std::mutex mu_;
  mutable std::vector<Range> sub_ranges_;
};

// BlockSplit's sub-block units through the whole driver: on the mega-block
// golden profile, 8 machines give 16 reduce tasks, so the mega block is
// split. Every kSub unit of the schedule must reach the mechanism exactly
// once, restricted to its own sub-range, and the duplicates must not
// depend on the backend or on spilling.
TEST(ProgressiveErTest, BlockSplitSubUnitsReachTheMechanism) {
  const testing_util::GoldenWorkload w = testing_util::MakeGoldenWorkload(0.3);
  const ProbabilityModel prob =
      ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking);
  RecordingMechanism mechanism;
  ProgressiveErOptions options;
  options.cluster = testing_util::GoldenCluster();
  options.cluster.machines = 8;
  options.scheduler = TreeScheduler::kBlockSplit;

  const ProgressiveEr::Preprocessed pre =
      ProgressiveEr(w.blocking, w.match, mechanism, prob, options)
          .Preprocess(w.data.dataset);
  ASSERT_FALSE(pre.failed) << pre.error;
  std::vector<RecordingMechanism::Range> scheduled;
  for (const std::vector<MatchTask>& units : pre.schedule.task_units) {
    for (const MatchTask& unit : units) {
      if (unit.kind != MatchTask::Kind::kSub) continue;
      scheduled.push_back({unit.a_lo, unit.a_hi, unit.b_lo, unit.b_hi});
    }
  }
  ASSERT_FALSE(scheduled.empty()) << "no block was split";
  std::sort(scheduled.begin(), scheduled.end());
  EXPECT_TRUE(mechanism.TakeSubRanges().empty());

  std::vector<PairKey> reference;
  for (const bool spill : {false, true}) {
    for (const ExecutionBackend backend :
         {ExecutionBackend::kSimulated, ExecutionBackend::kThreaded}) {
      SCOPED_TRACE(std::string(spill ? "spilled " : "in memory ") +
                   ToString(backend));
      ProgressiveErOptions run_options = options;
      run_options.cluster.backend = backend;
      if (spill) {
        run_options.cluster.shuffle_budget = testing_util::TinySpillBudget();
      }
      const ErRunResult run =
          ProgressiveEr(w.blocking, w.match, mechanism, prob, run_options)
              .Run(w.data.dataset);
      ASSERT_FALSE(run.failed) << run.error;
      if (spill) {
        EXPECT_GT(run.counters.Get("mr.spill.runs"), 0);
      }
      EXPECT_EQ(mechanism.TakeSubRanges(), scheduled);
      ASSERT_FALSE(run.duplicates.empty());
      if (reference.empty()) reference = run.duplicates;
      EXPECT_EQ(run.duplicates, reference);
    }
  }
}

}  // namespace
}  // namespace progres
