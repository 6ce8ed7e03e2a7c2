// Property tests for the reduce-side schedulers: for every scheduler the
// union of per-task block/pair assignments must cover every candidate pair
// of every live block exactly once, and the pair-level schedulers
// (BlockSplit, PairRange) must bound per-task load on the head-heavy
// mega-block profile. The pair universe is materialized from the canonical
// d-major enumeration both mechanisms share, so the tests prove the
// MatchTask restrictions partition it — no pair lost, none compared twice.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/forest.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "estimate/prob_model.h"
#include "mechanism/psnm.h"
#include "mechanism/sorted_neighbor.h"
#include "schedule/schedule.h"

namespace progres {
namespace {

constexpr TreeScheduler kAllSchedulers[] = {
    TreeScheduler::kOurs, TreeScheduler::kNoSplit, TreeScheduler::kLpt,
    TreeScheduler::kBlockSplit, TreeScheduler::kPairRange};

const char* SchedulerName(TreeScheduler s) {
  switch (s) {
    case TreeScheduler::kOurs:
      return "ours";
    case TreeScheduler::kNoSplit:
      return "nosplit";
    case TreeScheduler::kLpt:
      return "lpt";
    case TreeScheduler::kBlockSplit:
      return "blocksplit";
    case TreeScheduler::kPairRange:
      return "pairrange";
  }
  return "?";
}

struct Fixture {
  LabeledDataset data;
  BlockingConfig config{std::vector<FamilySpec>{}};
  ProbabilityModel prob;
  EstimateParams params;

  explicit Fixture(int64_t n, uint64_t seed, double mega_fraction = 0.0) {
    PublicationConfig gen;
    gen.num_entities = n;
    gen.seed = seed;
    gen.mega_block_fraction = mega_fraction;
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

struct BlockShape {
  int64_t size = 0;
  int window = 0;
  int64_t pairs = 0;
};

// Every live (non-eliminated) block across all forests — the candidate-pair
// universe a schedule must cover. Collected after GenerateSchedule so kOurs'
// tree splits are reflected (splits never add or remove blocks).
std::map<uint64_t, BlockShape> Universe(
    const std::vector<AnnotatedForest>& forests) {
  std::map<uint64_t, BlockShape> universe;
  for (const AnnotatedForest& forest : forests) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      const AnnotatedBlock& b = forest.block(n);
      if (b.eliminated) continue;
      universe[BlockRefKey(forest.family(), n)] = {
          b.size, b.window, WindowPairCount(b.size, b.window)};
    }
  }
  return universe;
}

// Walks the block's canonical d-major enumeration and bumps `cover` at every
// index `unit` admits. Returns the number of admitted pairs, which must
// equal the unit's declared scheduling cost.
int64_t Materialize(const MatchTask& unit, const BlockShape& shape,
                    std::vector<int>* cover) {
  int64_t admitted = 0;
  int64_t index = -1;
  const int64_t max_d = std::min<int64_t>(shape.window - 1, shape.size - 1);
  for (int64_t d = 1; d <= max_d; ++d) {
    for (int64_t i = 0; i + d < shape.size; ++i) {
      ++index;
      const int64_t j = i + d;
      bool admit = true;
      switch (unit.kind) {
        case MatchTask::Kind::kWhole:
          break;
        case MatchTask::Kind::kSub:
          admit = i >= unit.a_lo && i < unit.a_hi && j >= unit.b_lo &&
                  j < unit.b_hi;
          break;
        case MatchTask::Kind::kSlice:
          admit = index >= unit.begin && index < unit.end;
          break;
      }
      if (!admit) continue;
      ++admitted;
      ++(*cover)[static_cast<size_t>(index)];
    }
  }
  return admitted;
}

ScheduleParams Params(int r, TreeScheduler scheduler) {
  ScheduleParams p;
  p.num_reduce_tasks = r;
  p.scheduler = scheduler;
  return p;
}

// The core property: for every scheduler and task count, on both a plain
// and a mega-block-skewed workload, the per-task assignments partition the
// candidate-pair universe — every pair of every live block exactly once.
TEST(SchedulerCoverageTest, EveryCandidatePairAssignedExactlyOnce) {
  struct Profile {
    uint64_t seed;
    double mega;
  };
  for (const Profile profile : {Profile{91, 0.0}, Profile{92, 0.3}}) {
    Fixture fx(2000, profile.seed, profile.mega);
    for (const TreeScheduler scheduler : kAllSchedulers) {
      for (const int r : {1, 3, 7}) {
        SCOPED_TRACE(std::string(SchedulerName(scheduler)) + " r=" +
                     std::to_string(r) + " mega=" +
                     std::to_string(profile.mega));
        std::vector<AnnotatedForest> forests = fx.Annotate();
        const ProgressiveSchedule schedule =
            GenerateSchedule(&forests, Params(r, scheduler));
        ASSERT_EQ(schedule.error, "");
        ASSERT_EQ(schedule.task_units.size(), static_cast<size_t>(r));

        const std::map<uint64_t, BlockShape> universe = Universe(forests);
        std::map<uint64_t, std::vector<int>> cover;
        for (const auto& [key, shape] : universe) {
          cover[key].assign(static_cast<size_t>(shape.pairs), 0);
        }

        for (const std::vector<MatchTask>& units : schedule.task_units) {
          for (const MatchTask& unit : units) {
            const uint64_t key = BlockRefKey(unit.ref);
            const auto it = universe.find(key);
            ASSERT_NE(it, universe.end())
                << "unit references unknown block family=" << unit.ref.family
                << " node=" << unit.ref.node;
            const int64_t admitted =
                Materialize(unit, it->second, &cover[key]);
            EXPECT_EQ(admitted, unit.pairs)
                << "unit cost disagrees with its enumeration, block family="
                << unit.ref.family << " node=" << unit.ref.node;
          }
        }

        for (const auto& [key, counts] : cover) {
          for (size_t i = 0; i < counts.size(); ++i) {
            ASSERT_EQ(counts[i], 1)
                << "pair index " << i << " of block key " << key
                << " covered " << counts[i] << " times";
          }
        }
      }
    }
  }
}

// The mega-block knob must actually produce a head-heavy profile: one
// title-prefix root block holding a large share of the entities, far above
// what the plain Zipf draw produces.
TEST(SchedulerCoverageTest, MegaBlockProfileSkewsTitleFamily) {
  const int64_t n = 2000;
  const auto max_title_root = [](Fixture* fx) {
    std::vector<AnnotatedForest> forests = fx->Annotate();
    int64_t max_size = 0;
    for (int b = 0; b < forests[0].num_blocks(); ++b) {
      const AnnotatedBlock& block = forests[0].block(b);
      if (block.parent == -1 && !block.eliminated) {
        max_size = std::max(max_size, block.size);
      }
    }
    return max_size;
  };
  Fixture plain(n, 91, 0.0);
  Fixture mega(n, 91, 0.3);
  const int64_t plain_max = max_title_root(&plain);
  const int64_t mega_max = max_title_root(&mega);
  EXPECT_GE(mega_max, n / 5) << "mega profile did not concentrate a block";
  EXPECT_GT(mega_max, plain_max) << "mega knob had no effect on skew";
}

// Load-imbalance bounds on the mega-block profile, at a task count chosen
// so the mega block overflows the per-task average and must be split.
TEST(SchedulerCoverageTest, PairLevelSchedulersBoundImbalanceOnMegaBlock) {
  Fixture fx(2000, 92, 0.3);
  std::vector<AnnotatedForest> probe = fx.Annotate();
  const std::map<uint64_t, BlockShape> shapes = Universe(probe);
  int64_t total = 0;
  int64_t max_block = 0;
  for (const auto& [key, shape] : shapes) {
    total += shape.pairs;
    max_block = std::max(max_block, shape.pairs);
  }
  ASSERT_GT(max_block, 0);
  // Enough tasks that the largest block is at least twice the per-task
  // average — BlockSplit must split it and PairRange must slice it.
  const int r = std::max<int>(2, static_cast<int>(2 * total / max_block));

  for (const TreeScheduler scheduler :
       {TreeScheduler::kBlockSplit, TreeScheduler::kPairRange}) {
    SCOPED_TRACE(std::string(SchedulerName(scheduler)) + " r=" +
                 std::to_string(r));
    std::vector<AnnotatedForest> forests = fx.Annotate();
    const ProgressiveSchedule schedule =
        GenerateSchedule(&forests, Params(r, scheduler));
    ASSERT_EQ(schedule.error, "");

    int64_t max_load = 0;
    int64_t max_unit = 0;
    size_t units = 0;
    for (const std::vector<MatchTask>& task : schedule.task_units) {
      int64_t load = 0;
      for (const MatchTask& unit : task) {
        load += unit.pairs;
        max_unit = std::max(max_unit, unit.pairs);
        ++units;
      }
      max_load = std::max(max_load, load);
    }
    EXPECT_GT(units, shapes.size())
        << "expected the mega block to be split into multiple units";

    if (scheduler == TreeScheduler::kPairRange) {
      // Contiguous carving: no task exceeds ceil(total / r).
      EXPECT_LE(max_load, (total + r - 1) / r);
    } else {
      // Greedy least-loaded: max load <= average + largest unit, and the
      // split kept every unit under the per-task average.
      EXPECT_LE(max_unit, (total + r - 1) / r);
      EXPECT_LE(max_load, total / r + max_unit);
    }
  }
}

// ---------------------------------------------------------------- mechanism

// The schedule-level tests prove the MatchTask descriptions partition the
// pair space; these prove the mechanisms' restriction plumbing enumerates
// exactly the described pairs: resolving a block's BlockSplit-style
// sub-range units or PairRange-style slices compares exactly the pairs the
// unrestricted run compares, each once.

std::vector<Entity> RandomBlock(int64_t n, Rng* rng) {
  std::vector<Entity> entities;
  entities.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::string value;
    for (int c = 0; c < 6; ++c) {
      value.push_back(static_cast<char>('a' + rng->UniformU64(26)));
    }
    Entity e;
    e.id = static_cast<EntityId>(i);
    e.attributes = {value};
    entities.push_back(std::move(e));
  }
  return entities;
}

// Runs `mechanism` over `entities` with `options` and returns every pair the
// enumeration reached, recorded through the responsibility predicate (which
// fires after the window/restriction checks and admits everything).
std::vector<PairKey> RecordPairs(const ProgressiveMechanism& mechanism,
                                 const std::vector<Entity>& entities,
                                 const MatchFunction& match,
                                 ResolveOptions options) {
  std::vector<PairKey> recorded;
  const std::function<bool(const Entity&, const Entity&)> record =
      [&recorded](const Entity& a, const Entity& b) {
        recorded.push_back(MakePairKey(a.id, b.id));
        return true;
      };
  CostClock clock;
  std::vector<const Entity*> block;
  for (const Entity& e : entities) block.push_back(&e);
  ResolveRequest request;
  request.block = &block;
  request.sort_attribute = 0;
  request.match = &match;
  request.options = options;
  request.clock = &clock;
  request.should_resolve = &record;
  mechanism.Resolve(request);
  return recorded;
}

TEST(MechanismPartitionTest, UnitsEnumerateExactlyTheWholeBlockPairs) {
  Rng rng(7);
  const MatchFunction match({{0, AttributeSimilarity::kExact, 1.0, 0}}, 0.5);
  const SortedNeighborMechanism sn;
  const PsnmMechanism psnm;
  const std::vector<const ProgressiveMechanism*> mechanisms = {&sn, &psnm};

  for (const int64_t n : {2, 17, 64, 301}) {
    const std::vector<Entity> entities = RandomBlock(n, &rng);
    for (const int window : {5, 15}) {
      ResolveOptions whole_options;
      whole_options.window = window;
      const int64_t total = WindowPairCount(n, window);
      for (const ProgressiveMechanism* mechanism : mechanisms) {
        SCOPED_TRACE(mechanism->name() + " n=" + std::to_string(n) +
                     " w=" + std::to_string(window));
        std::vector<PairKey> whole =
            RecordPairs(*mechanism, entities, match, whole_options);
        ASSERT_EQ(static_cast<int64_t>(whole.size()), total);
        std::sort(whole.begin(), whole.end());

        // BlockSplit-style: m singles + m-1 crosses over contiguous
        // sub-ranges of the sorted order, every range >= window wide.
        const int64_t max_m = std::max<int64_t>(1, n / window);
        for (const int64_t m : {int64_t{2}, max_m}) {
          if (m < 2 || m > max_m) continue;
          const auto boundary = [&](int64_t k) { return k * n / m; };
          std::vector<PairKey> merged;
          for (int64_t k = 0; k < m; ++k) {
            ResolveOptions o = whole_options;
            o.sub_a_lo = o.sub_b_lo = boundary(k);
            o.sub_a_hi = o.sub_b_hi = boundary(k + 1);
            const std::vector<PairKey> got =
                RecordPairs(*mechanism, entities, match, o);
            merged.insert(merged.end(), got.begin(), got.end());
          }
          for (int64_t k = 0; k + 1 < m; ++k) {
            ResolveOptions o = whole_options;
            o.sub_a_lo = boundary(k);
            o.sub_a_hi = boundary(k + 1);
            o.sub_b_lo = boundary(k + 1);
            o.sub_b_hi = boundary(k + 2);
            const std::vector<PairKey> got =
                RecordPairs(*mechanism, entities, match, o);
            merged.insert(merged.end(), got.begin(), got.end());
          }
          std::sort(merged.begin(), merged.end());
          EXPECT_EQ(merged, whole) << "m=" << m;
        }

        // PairRange-style: contiguous enumeration-index slices.
        for (const int64_t r : {int64_t{3}, int64_t{8}}) {
          std::vector<PairKey> merged;
          for (int64_t t = 0; t < r; ++t) {
            ResolveOptions o = whole_options;
            o.slice_begin = t * total / r;
            o.slice_end = (t + 1) * total / r;
            const std::vector<PairKey> got =
                RecordPairs(*mechanism, entities, match, o);
            merged.insert(merged.end(), got.begin(), got.end());
          }
          std::sort(merged.begin(), merged.end());
          EXPECT_EQ(merged, whole) << "r=" << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace progres
