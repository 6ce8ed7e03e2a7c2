#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "blocking/forest.h"
#include "datagen/generators.h"
#include "estimate/prob_model.h"
#include "schedule/schedule.h"

namespace progres {
namespace {

struct Fixture {
  LabeledDataset data;
  BlockingConfig config{std::vector<FamilySpec>{}};
  ProbabilityModel prob;
  EstimateParams params;

  explicit Fixture(int64_t n = 4000, uint64_t seed = 41) {
    PublicationConfig gen;
    gen.num_entities = n;
    gen.seed = seed;
    data = GeneratePublications(gen);
    config = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                             {"Y", kPubAbstract, {3, 5}, -1},
                             {"Z", kPubVenue, {3, 5}, -1}});
  }

  std::vector<AnnotatedForest> Annotate() {
    std::vector<Forest> forests =
        BuildForests(data.dataset, config, /*keep_members=*/false);
    ComputeUncoveredPairs(data.dataset, config, &forests);
    prob = ProbabilityModel::Train(data.dataset, data.truth, config);
    return AnnotateForests(forests, params, prob, data.dataset.size());
  }
};

ScheduleParams DefaultParams(int r, TreeScheduler scheduler) {
  ScheduleParams p;
  p.num_reduce_tasks = r;
  p.scheduler = scheduler;
  return p;
}

constexpr TreeScheduler kAllSchedulers[] = {
    TreeScheduler::kOurs, TreeScheduler::kNoSplit, TreeScheduler::kLpt,
    TreeScheduler::kBlockSplit, TreeScheduler::kPairRange};

bool SameUnit(const MatchTask& a, const MatchTask& b) {
  return a.ref == b.ref && a.kind == b.kind && a.a_lo == b.a_lo &&
         a.a_hi == b.a_hi && a.b_lo == b.b_lo && a.b_hi == b.b_hi &&
         a.begin == b.begin && a.end == b.end && a.pairs == b.pairs;
}

// The budget rule, restated: a unit costs its block's estimate times its
// share of the block's candidate pairs; a whole-block unit costs exactly
// the block's estimate.
double UnitCost(const std::vector<AnnotatedForest>& forests,
                const MatchTask& unit) {
  const AnnotatedBlock& b =
      forests[static_cast<size_t>(unit.ref.family)].block(unit.ref.node);
  if (unit.kind == MatchTask::Kind::kWhole) return b.cost;
  int64_t block_pairs = 0;
  for (int64_t d = 1; d < b.window; ++d) {
    block_pairs += std::max<int64_t>(0, b.size - d);
  }
  return b.cost * static_cast<double>(unit.pairs) /
         static_cast<double>(block_pairs);
}

TEST(CostVectorTest, UniformVectorIsIncreasing) {
  const std::vector<double> c = MakeUniformCostVector(1000.0, 4, 5);
  ASSERT_EQ(c.size(), 5u);
  for (size_t i = 1; i < c.size(); ++i) EXPECT_GT(c[i], c[i - 1]);
  EXPECT_DOUBLE_EQ(c.back(), 250.0);
}

TEST(CostVectorTest, LinearWeightsNonIncreasing) {
  const std::vector<double> w = MakeLinearWeights(5);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w.front(), 1.0);
  for (size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i], w[i - 1]);
  EXPECT_GT(w.back(), 0.0);
}

TEST(ScheduleTest, EveryLiveBlockScheduledExactlyOnce) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  const ProgressiveSchedule schedule =
      GenerateSchedule(&forests, DefaultParams(4, TreeScheduler::kOurs));

  std::set<uint64_t> scheduled;
  for (const auto& units : schedule.task_units) {
    for (const MatchTask& unit : units) {
      EXPECT_EQ(unit.kind, MatchTask::Kind::kWhole);
      EXPECT_TRUE(scheduled.insert(BlockRefKey(unit.ref)).second)
          << "block scheduled twice";
    }
  }
  size_t live = 0;
  for (const AnnotatedForest& forest : forests) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      if (!forest.block(n).eliminated) {
        ++live;
        EXPECT_TRUE(scheduled.count(BlockRefKey(forest.family(), n)))
            << "live block missing from schedule";
      }
    }
  }
  EXPECT_EQ(scheduled.size(), live);
}

TEST(ScheduleTest, TreesNeverSpanTasks) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  const ProgressiveSchedule schedule =
      GenerateSchedule(&forests, DefaultParams(4, TreeScheduler::kOurs));
  std::unordered_map<uint64_t, int> task_of_block;
  for (int t = 0; t < schedule.num_reduce_tasks; ++t) {
    for (const MatchTask& unit : schedule.task_units[static_cast<size_t>(t)]) {
      task_of_block[BlockRefKey(unit.ref)] = t;
    }
  }
  for (const AnnotatedForest& forest : forests) {
    for (int root : forest.tree_roots()) {
      const int task = task_of_block.at(BlockRefKey(forest.family(), root));
      for (int n : forest.TreeBlocks(root)) {
        EXPECT_EQ(task_of_block.at(BlockRefKey(forest.family(), n)), task)
            << "tree split across reduce tasks";
      }
    }
  }
}

// Every scheduler but PairRange (which keeps its range order) resolves a
// block's units after the units of its in-tree children on the same task.
TEST(ScheduleTest, UnitSchedulesAreBottomUp) {
  for (const TreeScheduler scheduler :
       {TreeScheduler::kOurs, TreeScheduler::kNoSplit, TreeScheduler::kLpt,
        TreeScheduler::kBlockSplit}) {
    Fixture fx;
    std::vector<AnnotatedForest> forests = fx.Annotate();
    const ProgressiveSchedule schedule =
        GenerateSchedule(&forests, DefaultParams(4, scheduler));
    for (const auto& units : schedule.task_units) {
      // First and last position of each block's units.
      std::unordered_map<uint64_t, std::pair<size_t, size_t>> span;
      for (size_t i = 0; i < units.size(); ++i) {
        const uint64_t key = BlockRefKey(units[i].ref);
        span.try_emplace(key, i, i).first->second.second = i;
      }
      for (const MatchTask& unit : units) {
        const AnnotatedBlock& b =
            forests[static_cast<size_t>(unit.ref.family)].block(
                unit.ref.node);
        if (b.tree_root) continue;
        const auto parent = span.find(BlockRefKey(unit.ref.family, b.parent));
        if (parent == span.end()) continue;  // parent on another task
        EXPECT_LT(span.at(BlockRefKey(unit.ref)).second,
                  parent->second.first)
            << "child resolved after its parent";
      }
    }
  }
}

TEST(ScheduleTest, DominanceValuesUniquePerTree) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  const ProgressiveSchedule schedule =
      GenerateSchedule(&forests, DefaultParams(4, TreeScheduler::kOurs));
  std::set<int32_t> values;
  size_t trees = 0;
  for (const AnnotatedForest& forest : forests) {
    trees += forest.tree_roots().size();
    for (int root : forest.tree_roots()) {
      values.insert(schedule.dominance.at(BlockRefKey(forest.family(), root)));
    }
  }
  EXPECT_EQ(values.size(), trees);
}

TEST(ScheduleTest, OursSplitsOverflowedTrees) {
  // Skewed dataset: big prefix blocks make the first buckets overflow, so
  // the kOurs scheduler must produce more trees than NoSplit.
  Fixture fx(6000, 43);
  std::vector<AnnotatedForest> ours = fx.Annotate();
  GenerateSchedule(&ours, DefaultParams(8, TreeScheduler::kOurs));
  size_t ours_trees = 0;
  for (const AnnotatedForest& f : ours) ours_trees += f.tree_roots().size();

  std::vector<AnnotatedForest> nosplit = fx.Annotate();
  GenerateSchedule(&nosplit, DefaultParams(8, TreeScheduler::kNoSplit));
  size_t nosplit_trees = 0;
  for (const AnnotatedForest& f : nosplit) {
    nosplit_trees += f.tree_roots().size();
  }
  EXPECT_GT(ours_trees, nosplit_trees);
}

TEST(ScheduleTest, LptBalancesTotalCost) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  const int r = 4;
  const ProgressiveSchedule schedule =
      GenerateSchedule(&forests, DefaultParams(r, TreeScheduler::kLpt));
  std::vector<double> load(static_cast<size_t>(r), 0.0);
  for (int t = 0; t < r; ++t) {
    for (const MatchTask& unit : schedule.task_units[static_cast<size_t>(t)]) {
      load[static_cast<size_t>(t)] += UnitCost(forests, unit);
    }
  }
  const double max_load = *std::max_element(load.begin(), load.end());
  const double min_load = *std::min_element(load.begin(), load.end());
  ASSERT_GT(max_load, 0.0);
  // LPT keeps loads within a reasonable factor (tight bound is 4/3 - 1/3r
  // of optimal; the granularity of trees makes an exact check unreliable).
  EXPECT_GT(min_load, 0.0);
  EXPECT_LT(max_load / std::max(min_load, 1e-9), 5.0);
}

TEST(ScheduleTest, UtilityOrderWithinTask) {
  // Outside the bottom-up constraint, blocks appear in non-increasing
  // utility order: verify the subsequence of tree roots is util-sorted per
  // task for NoSplit (roots have no bottom-up constraint among each other
  // only when trees differ; roots of distinct trees are comparable).
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  const ProgressiveSchedule schedule =
      GenerateSchedule(&forests, DefaultParams(4, TreeScheduler::kNoSplit));
  for (const auto& units : schedule.task_units) {
    double last_root_util = std::numeric_limits<double>::infinity();
    for (const MatchTask& unit : units) {
      const AnnotatedBlock& b =
          forests[static_cast<size_t>(unit.ref.family)].block(unit.ref.node);
      if (!b.tree_root) continue;
      // A root is emitted when it is reached in utility order, and every
      // earlier-emitted root had higher-or-equal utility.
      EXPECT_LE(b.util, last_root_util + 1e-9);
      last_root_util = b.util;
    }
  }
}

TEST(ScheduleTest, DeterministicAcrossRuns) {
  Fixture fx;
  std::vector<AnnotatedForest> a = fx.Annotate();
  std::vector<AnnotatedForest> b = fx.Annotate();
  const ProgressiveSchedule sa =
      GenerateSchedule(&a, DefaultParams(6, TreeScheduler::kOurs));
  const ProgressiveSchedule sb =
      GenerateSchedule(&b, DefaultParams(6, TreeScheduler::kOurs));
  ASSERT_EQ(sa.task_units.size(), sb.task_units.size());
  for (size_t t = 0; t < sa.task_units.size(); ++t) {
    ASSERT_EQ(sa.task_units[t].size(), sb.task_units[t].size());
    for (size_t i = 0; i < sa.task_units[t].size(); ++i) {
      EXPECT_TRUE(SameUnit(sa.task_units[t][i], sb.task_units[t][i]));
    }
  }
}

// Under a budget, every scheduler's task keeps the longest prefix of its
// unbudgeted units whose cost fits: the prefix costs no more than the
// budget, and the next unit would exceed it.
TEST(ScheduleTest, BudgetCutsEveryScheduleToAPrefix) {
  for (const TreeScheduler scheduler : kAllSchedulers) {
    SCOPED_TRACE(static_cast<int>(scheduler));
    Fixture fx;
    std::vector<AnnotatedForest> unlimited_forests = fx.Annotate();
    const ProgressiveSchedule unlimited =
        GenerateSchedule(&unlimited_forests, DefaultParams(4, scheduler));
    double max_task_cost = 0.0;
    size_t unlimited_units = 0;
    for (const auto& units : unlimited.task_units) {
      double cost = 0.0;
      for (const MatchTask& unit : units) {
        cost += UnitCost(unlimited_forests, unit);
      }
      max_task_cost = std::max(max_task_cost, cost);
      unlimited_units += units.size();
    }

    std::vector<AnnotatedForest> forests = fx.Annotate();
    ScheduleParams params = DefaultParams(4, scheduler);
    params.per_task_budget = max_task_cost / 4.0;
    const ProgressiveSchedule budgeted = GenerateSchedule(&forests, params);
    ASSERT_EQ(budgeted.task_units.size(), unlimited.task_units.size());
    size_t budgeted_units = 0;
    for (size_t t = 0; t < budgeted.task_units.size(); ++t) {
      const auto& full = unlimited.task_units[t];
      const auto& kept = budgeted.task_units[t];
      ASSERT_LE(kept.size(), full.size());
      budgeted_units += kept.size();
      double cost = 0.0;
      for (size_t i = 0; i < kept.size(); ++i) {
        EXPECT_TRUE(SameUnit(kept[i], full[i])) << "task " << t << " #" << i;
        cost += UnitCost(forests, kept[i]);
      }
      EXPECT_LE(cost, params.per_task_budget) << "task " << t;
      if (kept.size() < full.size()) {
        EXPECT_GT(cost + UnitCost(forests, full[kept.size()]),
                  params.per_task_budget)
            << "task " << t << " cut before a unit that fits";
      }
    }
    EXPECT_LT(budgeted_units, unlimited_units);
  }
}

TEST(ScheduleTest, DescribeScheduleListsEveryTask) {
  Fixture fx(1500);
  std::vector<AnnotatedForest> forests = fx.Annotate();
  const ProgressiveSchedule schedule =
      GenerateSchedule(&forests, DefaultParams(3, TreeScheduler::kOurs));
  const std::string description = DescribeSchedule(schedule, forests, 2);
  EXPECT_NE(description.find("task 0:"), std::string::npos);
  EXPECT_NE(description.find("task 1:"), std::string::npos);
  EXPECT_NE(description.find("task 2:"), std::string::npos);
  EXPECT_NE(description.find("util="), std::string::npos);
}

TEST(ScheduleTest, TotalEstimatedCostPositive) {
  Fixture fx;
  std::vector<AnnotatedForest> forests = fx.Annotate();
  EXPECT_GT(TotalEstimatedCost(forests), 0.0);
}

// Regression cases for the validation gap: these parameter mistakes used to
// silently misbehave (crash on zero tasks, negative bucket capacities from
// a non-monotone cost vector, weights silently replaced on mismatch).
TEST(ScheduleValidationTest, RejectsNonPositiveReduceTasks) {
  ScheduleParams p;
  p.num_reduce_tasks = 0;
  EXPECT_NE(ValidateScheduleParams(p).find("num_reduce_tasks"),
            std::string::npos);
  p.num_reduce_tasks = -3;
  EXPECT_NE(ValidateScheduleParams(p).find("num_reduce_tasks"),
            std::string::npos);
}

TEST(ScheduleValidationTest, RejectsNonMonotoneCostVector) {
  ScheduleParams p;
  p.cost_vector = {10.0, 5.0, 20.0};
  EXPECT_NE(ValidateScheduleParams(p).find("strictly increasing"),
            std::string::npos);
  p.cost_vector = {10.0, 10.0};
  EXPECT_NE(ValidateScheduleParams(p).find("strictly increasing"),
            std::string::npos);
  p.cost_vector = {-1.0, 5.0};
  EXPECT_NE(ValidateScheduleParams(p).find("positive"), std::string::npos);
}

TEST(ScheduleValidationTest, RejectsWeightCostLengthMismatch) {
  ScheduleParams p;
  p.cost_vector = {1.0, 2.0, 3.0};
  p.weights = {1.0, 0.5};
  EXPECT_NE(ValidateScheduleParams(p).find("does not match"),
            std::string::npos);
  p.weights = {1.0, 0.5, 0.2};
  EXPECT_EQ(ValidateScheduleParams(p), "");
}

TEST(ScheduleValidationTest, AcceptsDefaultsAndLabelsGenerateErrors) {
  EXPECT_EQ(ValidateScheduleParams(ScheduleParams()), "");

  Fixture fx(1500);
  std::vector<AnnotatedForest> forests = fx.Annotate();
  ScheduleParams p = DefaultParams(0, TreeScheduler::kOurs);
  const ProgressiveSchedule schedule = GenerateSchedule(&forests, p);
  EXPECT_NE(schedule.error.find("schedule:"), std::string::npos);
  EXPECT_TRUE(schedule.task_units.empty());
}

// Every scheduler routes on unit sequence values: each SQ addresses,
// through UnitOf, a unit of its own block on the task SQ / range_per_task,
// and every unit has exactly one SQ.
TEST(ScheduleTest, UnitSequencesAddressEveryUnitOnce) {
  for (const TreeScheduler scheduler : kAllSchedulers) {
    SCOPED_TRACE(static_cast<int>(scheduler));
    Fixture fx(1500);
    std::vector<AnnotatedForest> forests = fx.Annotate();
    const ProgressiveSchedule schedule =
        GenerateSchedule(&forests, DefaultParams(4, scheduler));
    ASSERT_EQ(schedule.error, "");
    EXPECT_EQ(schedule.pair_level,
              scheduler == TreeScheduler::kBlockSplit ||
                  scheduler == TreeScheduler::kPairRange);
    ASSERT_EQ(schedule.task_units.size(), 4u);
    std::set<const MatchTask*> addressed;
    for (const auto& [key, sqs] : schedule.unit_sequences) {
      ASSERT_FALSE(sqs.empty());
      EXPECT_TRUE(std::is_sorted(sqs.begin(), sqs.end()));
      for (const int64_t sq : sqs) {
        const auto t = static_cast<size_t>(sq / schedule.range_per_task);
        const auto i = static_cast<size_t>(sq % schedule.range_per_task);
        ASSERT_LT(t, schedule.task_units.size());
        ASSERT_LT(i, schedule.task_units[t].size());
        const MatchTask& unit = schedule.UnitOf(sq);
        EXPECT_EQ(&unit, &schedule.task_units[t][i]);
        EXPECT_EQ(BlockRefKey(unit.ref), key);
        EXPECT_TRUE(addressed.insert(&unit).second) << "unit has two SQs";
      }
    }
    size_t units = 0;
    for (const auto& task : schedule.task_units) units += task.size();
    EXPECT_GT(units, 0u);
    EXPECT_EQ(addressed.size(), units) << "unit without an SQ";
  }
}

}  // namespace
}  // namespace progres
