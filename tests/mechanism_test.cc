#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mechanism/full_resolver.h"
#include "mechanism/psnm.h"
#include "mechanism/sorted_neighbor.h"

namespace progres {
namespace {

// Entities with a single attribute; the attribute doubles as sort key and
// match value (exact match => duplicates are entities with equal values).
std::vector<Entity> MakeBlock(const std::vector<std::string>& values) {
  std::vector<Entity> entities;
  for (size_t i = 0; i < values.size(); ++i) {
    Entity e;
    e.id = static_cast<EntityId>(i);
    e.attributes = {values[i]};
    entities.push_back(std::move(e));
  }
  return entities;
}

std::vector<const Entity*> Pointers(const std::vector<Entity>& entities) {
  std::vector<const Entity*> out;
  for (const Entity& e : entities) out.push_back(&e);
  return out;
}

MatchFunction ExactMatch() {
  return MatchFunction({{0, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
}

struct RunResult {
  ResolveOutcome outcome;
  std::vector<PairKey> found;
  double cost = 0.0;
};

RunResult RunMechanism(const ProgressiveMechanism& mechanism,
                       const std::vector<Entity>& entities,
                       const MatchFunction& match, ResolveOptions options,
                       PairSet* resolved = nullptr,
                       const std::function<bool(const Entity&, const Entity&)>*
                           should_resolve = nullptr) {
  RunResult run;
  CostClock clock;
  const std::vector<const Entity*> block = Pointers(entities);
  ResolveRequest request;
  request.block = &block;
  request.sort_attribute = 0;
  request.match = &match;
  request.options = options;
  request.clock = &clock;
  request.resolved = resolved;
  request.should_resolve = should_resolve;
  request.on_duplicate = [&run](EntityId a, EntityId b) {
    run.found.push_back(MakePairKey(a, b));
  };
  run.outcome = mechanism.Resolve(request);
  run.cost = clock.units();
  return run;
}

// ------------------------------------------------------------ SN

TEST(SortedNeighborTest, FindsAdjacentDuplicates) {
  const auto entities = MakeBlock({"b", "a", "b", "c"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult run = RunMechanism(sn, entities, match, {.window = 4});
  EXPECT_EQ(run.outcome.duplicates, 1);
  ASSERT_EQ(run.found.size(), 1u);
  EXPECT_EQ(run.found[0], MakePairKey(0, 2));
}

TEST(SortedNeighborTest, DistanceOrderedResolution) {
  // Sorted order: a b c d. Distance-1 pairs must all be resolved before any
  // distance-2 pair; with exact match nothing matches, so the comparison
  // order equals the enumeration order, observable through the counts at a
  // small window.
  const auto entities = MakeBlock({"d", "c", "b", "a"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult w2 = RunMechanism(sn, entities, match, {.window = 2});
  EXPECT_EQ(w2.outcome.distinct, 3);  // only the 3 distance-1 pairs
  const RunResult w3 = RunMechanism(sn, entities, match, {.window = 3});
  EXPECT_EQ(w3.outcome.distinct, 5);  // + 2 distance-2 pairs
  const RunResult w4 = RunMechanism(sn, entities, match, {.window = 4});
  EXPECT_EQ(w4.outcome.distinct, 6);  // all pairs
}

TEST(SortedNeighborTest, WindowLimitsComparisons) {
  const auto entities = MakeBlock({"a", "b", "c", "d", "e", "f", "g", "h"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult run = RunMechanism(sn, entities, match, {.window = 3});
  // distances 1..2: (8-1) + (8-2) = 13 pairs.
  EXPECT_EQ(run.outcome.duplicates + run.outcome.distinct, 13);
}

TEST(SortedNeighborTest, TerminationThresholdStops) {
  const auto entities = MakeBlock({"a", "b", "c", "d", "e", "f", "g", "h"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult run = RunMechanism(
      sn, entities, match, {.window = 8, .termination_distinct = 4});
  EXPECT_EQ(run.outcome.distinct, 5);  // stops once distinct > 4
  EXPECT_TRUE(run.outcome.stopped_early);
}

TEST(SortedNeighborTest, PopcornStops) {
  // 200 all-distinct entities; popcorn with a tiny window and a positive
  // threshold must fire well before the full window enumeration.
  std::vector<std::string> values;
  for (int i = 0; i < 200; ++i) values.push_back("v" + std::to_string(i));
  const auto entities = MakeBlock(values);
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult run = RunMechanism(
      sn, entities, match,
      {.window = 100, .popcorn_threshold = 0.05, .popcorn_window = 20});
  EXPECT_TRUE(run.outcome.stopped_early);
  EXPECT_LE(run.outcome.duplicates + run.outcome.distinct, 25);
}

TEST(SortedNeighborTest, ResolvedSetSkipsAndRecords) {
  const auto entities = MakeBlock({"a", "a", "b"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  PairSet resolved;
  const RunResult first =
      RunMechanism(sn, entities, match, {.window = 3}, &resolved);
  EXPECT_EQ(first.outcome.duplicates, 1);
  EXPECT_EQ(resolved.size(), 3u);
  // Second pass over the same block: everything skipped, nothing re-found.
  const RunResult second =
      RunMechanism(sn, entities, match, {.window = 3}, &resolved);
  EXPECT_EQ(second.outcome.duplicates, 0);
  EXPECT_EQ(second.outcome.distinct, 0);
  EXPECT_EQ(second.outcome.skipped, 3);
}

TEST(SortedNeighborTest, SkippedPairsAreCheap) {
  const auto entities = MakeBlock({"a", "a"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  PairSet resolved;
  const RunResult first =
      RunMechanism(sn, entities, match, {.window = 2}, &resolved);
  const RunResult second =
      RunMechanism(sn, entities, match, {.window = 2}, &resolved);
  EXPECT_LT(second.cost, first.cost);
}

TEST(SortedNeighborTest, ShouldResolvePredicateSkips) {
  const auto entities = MakeBlock({"a", "a", "a"});
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const std::function<bool(const Entity&, const Entity&)> never =
      [](const Entity&, const Entity&) { return false; };
  const RunResult run =
      RunMechanism(sn, entities, match, {.window = 3}, nullptr, &never);
  EXPECT_EQ(run.outcome.duplicates, 0);
  EXPECT_EQ(run.outcome.skipped, 3);
}

TEST(SortedNeighborTest, EmptyAndSingletonBlocks) {
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult empty = RunMechanism(sn, {}, match, {.window = 5});
  EXPECT_EQ(empty.outcome.duplicates + empty.outcome.distinct, 0);
  const RunResult single =
      RunMechanism(sn, MakeBlock({"x"}), match, {.window = 5});
  EXPECT_EQ(single.outcome.duplicates + single.outcome.distinct, 0);
}

TEST(SortedNeighborTest, ChargesAdditionalCostUpFront) {
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const RunResult run = RunMechanism(sn, MakeBlock({"x", "y"}), match,
                                     {.window = 1});  // no pairs compared
  EXPECT_GT(run.cost, 0.0);  // CostA only
}

// ------------------------------------------------------------ PSNM

TEST(PsnmTest, CoversSamePairSetAsSn) {
  Rng rng(77);
  std::vector<std::string> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(std::string(1, static_cast<char>('a' + rng.UniformU64(26))) +
                     std::to_string(rng.UniformU64(50)));
  }
  const auto entities = MakeBlock(values);
  const MatchFunction match = ExactMatch();
  const SortedNeighborMechanism sn;
  const PsnmMechanism psnm;
  const RunResult a = RunMechanism(sn, entities, match, {.window = 10});
  const RunResult b = RunMechanism(psnm, entities, match, {.window = 10});
  EXPECT_EQ(a.outcome.duplicates + a.outcome.distinct,
            b.outcome.duplicates + b.outcome.distinct);
  std::set<PairKey> found_a(a.found.begin(), a.found.end());
  std::set<PairKey> found_b(b.found.begin(), b.found.end());
  EXPECT_EQ(found_a, found_b);
}

TEST(PsnmTest, ResolvedSetSkipsAndRecords) {
  // 8 entities under a window of 4: the window leaves some pairs
  // unenumerated.
  const auto entities = MakeBlock({"a", "b", "a", "c", "b", "d", "a", "e"});
  const MatchFunction match = ExactMatch();
  const PsnmMechanism psnm;
  PairSet resolved;
  const RunResult first =
      RunMechanism(psnm, entities, match, {.window = 4}, &resolved);
  const int64_t compared = first.outcome.duplicates + first.outcome.distinct;
  EXPECT_GT(first.outcome.duplicates, 0);
  EXPECT_EQ(static_cast<int64_t>(resolved.size()), compared);
  // Second pass over the same block: every compared pair skipped, nothing
  // re-found, nothing new recorded.
  const RunResult second =
      RunMechanism(psnm, entities, match, {.window = 4}, &resolved);
  EXPECT_EQ(second.outcome.duplicates, 0);
  EXPECT_EQ(second.outcome.distinct, 0);
  EXPECT_EQ(second.outcome.skipped, compared);
  EXPECT_TRUE(second.found.empty());
  EXPECT_EQ(static_cast<int64_t>(resolved.size()), compared);
  EXPECT_LT(second.cost, first.cost);
}

// ------------------------------------------------------------ Full

TEST(FullResolverTest, ComparesAllPairs) {
  const auto entities = MakeBlock({"a", "b", "a", "b", "a"});
  const MatchFunction match = ExactMatch();
  const FullResolverMechanism full;
  const RunResult run = RunMechanism(full, entities, match, {});
  EXPECT_EQ(run.outcome.duplicates + run.outcome.distinct, 10);
  EXPECT_EQ(run.outcome.duplicates, 3 + 1);  // Pairs(3 a's) + Pairs(2 b's)
}

TEST(FullResolverTest, FindsDuplicatesSnMissesOutsideWindow) {
  // Entities sort on attribute 0 but match on attribute 1: the duplicate
  // pair sorts 5 ranks apart, outside a window of 2, so SN misses it while
  // the full resolver finds it.
  std::vector<Entity> entities;
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"a", "X"}, {"b", "p"}, {"c", "q"}, {"d", "r"}, {"e", "s"}, {"f", "X"}};
  for (size_t i = 0; i < rows.size(); ++i) {
    Entity e;
    e.id = static_cast<EntityId>(i);
    e.attributes = {rows[i].first, rows[i].second};
    entities.push_back(std::move(e));
  }
  const MatchFunction match({{1, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
  const SortedNeighborMechanism sn;
  const FullResolverMechanism full;
  const RunResult narrow = RunMechanism(sn, entities, match, {.window = 2});
  const RunResult all = RunMechanism(full, entities, match, {});
  EXPECT_EQ(narrow.outcome.duplicates, 0);
  EXPECT_EQ(all.outcome.duplicates, 1);
}

}  // namespace
}  // namespace progres
