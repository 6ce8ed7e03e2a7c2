// Property tests tying the estimation module to what mechanisms actually
// charge: the schedule is only as good as these predictions.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "estimate/cost_model.h"
#include "mechanism/hierarchy_hint.h"
#include "mechanism/psnm.h"
#include "mechanism/sorted_neighbor.h"

namespace progres {
namespace {

std::vector<Entity> RandomBlock(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Entity> entities;
  for (int i = 0; i < n; ++i) {
    Entity e;
    e.id = static_cast<EntityId>(i);
    std::string value;
    for (int c = 0; c < 8; ++c) {
      value.push_back(static_cast<char>('a' + rng.UniformU64(6)));
    }
    e.attributes = {value};
    entities.push_back(std::move(e));
  }
  return entities;
}

struct Charged {
  ResolveOutcome outcome;
  double cost = 0.0;
};

Charged Resolve(const ProgressiveMechanism& mechanism,
                const std::vector<Entity>& entities, ResolveOptions options) {
  static const MatchFunction match(
      {{0, AttributeSimilarity::kEditDistance, 1.0, 0}}, 0.8);
  CostClock clock;
  std::vector<const Entity*> block;
  for (const Entity& e : entities) block.push_back(&e);
  ResolveRequest request;
  request.block = &block;
  request.sort_attribute = 0;
  request.match = &match;
  request.options = options;
  request.clock = &clock;
  Charged charged;
  charged.outcome = mechanism.Resolve(request);
  charged.cost = clock.units();
  return charged;
}

// The accounting identity every mechanism must satisfy: charged cost =
// CostA + comparison * (dup + distinct) + skip * skipped.
class CostIdentityTest
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CostIdentityTest, ChargesMatchOutcome) {
  const auto [n, window, seed] = GetParam();
  const std::vector<Entity> entities =
      RandomBlock(n, static_cast<uint64_t>(seed));
  const MechanismCosts costs;
  const SortedNeighborMechanism sn(costs);
  const PsnmMechanism psnm(costs);
  const HierarchyHintMechanism hint(costs);
  for (const ProgressiveMechanism* mechanism :
       {static_cast<const ProgressiveMechanism*>(&sn),
        static_cast<const ProgressiveMechanism*>(&psnm),
        static_cast<const ProgressiveMechanism*>(&hint)}) {
    const Charged charged =
        Resolve(*mechanism, entities, {.window = window});
    const double expected =
        CostA(n, costs) +
        costs.comparison * static_cast<double>(charged.outcome.duplicates +
                                               charged.outcome.distinct) +
        costs.skip * static_cast<double>(charged.outcome.skipped);
    EXPECT_NEAR(charged.cost, expected, 1e-6)
        << mechanism->name() << " n=" << n << " w=" << window;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CostIdentityTest,
    testing::Values(std::make_tuple(2, 5, 1), std::make_tuple(10, 5, 2),
                    std::make_tuple(50, 15, 3), std::make_tuple(200, 10, 4),
                    std::make_tuple(33, 40, 5)));

// Full resolution of an isolated block (no redundancy, no termination)
// compares exactly WindowPairCount(n, w) pairs — the quantity CostF prices.
TEST(CostAgreementTest, FullResolutionComparesWindowPairCount) {
  const MechanismCosts costs;
  const SortedNeighborMechanism sn(costs);
  for (int n : {2, 7, 40, 150}) {
    for (int window : {2, 5, 15}) {
      const std::vector<Entity> entities =
          RandomBlock(n, static_cast<uint64_t>(n * 31 + window));
      const Charged charged = Resolve(sn, entities, {.window = window});
      EXPECT_EQ(charged.outcome.duplicates + charged.outcome.distinct,
                WindowPairCount(n, window))
          << "n=" << n << " w=" << window;
      const double expected =
          CostA(n, costs) + CostF(n, window, PairsOf(n), costs);
      EXPECT_NEAR(charged.cost, expected, 1e-6);
    }
  }
}

// End-to-end sanity: the schedule generator's total estimated cost must be
// within an order of magnitude of what the resolution job actually charges.
// (The estimates steer prioritization; large systematic bias would break
// bucket balancing.)
TEST(CostAgreementTest, EstimatedTotalTracksActual) {
  PublicationConfig gen;
  gen.num_entities = 3000;
  gen.seed = 120;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = 800;
  train_gen.seed = 121;
  const LabeledDataset train = GeneratePublications(train_gen);

  const BlockingConfig blocking({{"X", kPubTitle, {2, 4, 8}, -1},
                                 {"Y", kPubAbstract, {3, 5}, -1},
                                 {"Z", kPubVenue, {3, 5}, -1}});
  const MatchFunction match(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  const SortedNeighborMechanism sn;
  const ProbabilityModel prob =
      ProbabilityModel::Train(train.dataset, train.truth, blocking);
  ProgressiveErOptions options;
  options.cluster.machines = 2;
  options.cluster.execution_threads = 4;
  const ProgressiveEr er(blocking, match, sn, prob, options);

  const ProgressiveEr::Preprocessed pre = er.Preprocess(data.dataset);
  const double estimated = TotalEstimatedCost(pre.forests);

  const ErRunResult result = er.Run(data.dataset);
  double actual = 0.0;
  for (const ResultChunk& chunk : result.chunks) {
    actual = std::max(actual, chunk.cost_end);
  }
  // actual here is the max task cost; scale to a total via task count.
  actual *= static_cast<double>(pre.schedule.num_reduce_tasks);

  ASSERT_GT(estimated, 0.0);
  ASSERT_GT(actual, 0.0);
  const double ratio = estimated / actual;
  EXPECT_GT(ratio, 0.1) << "estimate=" << estimated << " actual~" << actual;
  EXPECT_LT(ratio, 10.0) << "estimate=" << estimated << " actual~" << actual;
}

}  // namespace
}  // namespace progres
