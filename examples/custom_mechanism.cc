// Plugging a custom progressive mechanism M into the pipeline. The paper's
// approach is agnostic to M: anything that resolves a block's pairs
// most-promising-first behind the ProgressiveMechanism interface works. This
// example implements a "same sort key first" mechanism — resolve pairs with
// identical sort-attribute values before any others — and runs it next to
// the built-in Sorted Neighbor mechanism.
//
//   build/examples/custom_mechanism [num_entities]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mechanism/sorted_neighbor.h"

namespace {

using namespace progres;

// Resolves exact sort-key ties first (cheap, high precision), then falls
// back to the usual rank-distance sweep for the remaining window pairs.
class TiesFirstMechanism : public ProgressiveMechanism {
 public:
  std::string name() const override { return "TiesFirst"; }

  ResolveOutcome Resolve(const ResolveRequest& request) const override {
    // Delegate bookkeeping to the SN mechanism twice: a window-1 "ties"
    // pass would not work (ties can sort apart only when equal), so order
    // the block ourselves and reuse SN for the second phase.
    const std::vector<const Entity*>& block = *request.block;
    ResolveOutcome total;

    // Phase 1: group identical sort values and resolve inside groups.
    std::vector<const Entity*> sorted = block;
    const int attr = request.sort_attribute;
    std::sort(sorted.begin(), sorted.end(),
              [attr](const Entity* a, const Entity* b) {
                const auto va = a->attribute(static_cast<size_t>(attr));
                const auto vb = b->attribute(static_cast<size_t>(attr));
                if (va != vb) return va < vb;
                return a->id < b->id;
              });
    size_t i = 0;
    while (i < sorted.size()) {
      size_t j = i;
      while (j < sorted.size() &&
             sorted[j]->attribute(static_cast<size_t>(attr)) ==
                 sorted[i]->attribute(static_cast<size_t>(attr))) {
        ++j;
      }
      if (j - i >= 2) {
        std::vector<const Entity*> group(sorted.begin() + static_cast<long>(i),
                                         sorted.begin() + static_cast<long>(j));
        ResolveRequest tie_request = request;
        tie_request.block = &group;
        const ResolveOutcome outcome = sn_.Resolve(tie_request);
        total.duplicates += outcome.duplicates;
        total.distinct += outcome.distinct;
        total.skipped += outcome.skipped;
        total.cost += outcome.cost;
        if (outcome.stopped_early) {
          total.stopped_early = true;
          return total;
        }
      }
      i = j;
    }

    // Phase 2: the regular sweep over the whole block. Pairs resolved in
    // phase 1 are skipped via the shared resolved set.
    const ResolveOutcome outcome = sn_.Resolve(request);
    total.duplicates += outcome.duplicates;
    total.distinct += outcome.distinct;
    total.skipped += outcome.skipped;
    total.cost += outcome.cost;
    total.stopped_early = outcome.stopped_early;
    return total;
  }

 private:
  SortedNeighborMechanism sn_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace progres;
  const int64_t n = argc > 1 ? std::atoll(argv[1]) : 8000;

  PublicationConfig gen;
  gen.num_entities = n;
  gen.seed = 12;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = std::max<int64_t>(500, n / 5);
  train_gen.seed = 13;
  const LabeledDataset train = GeneratePublications(train_gen);

  const BlockingConfig blocking({{"X", kPubTitle, {2, 4, 8}, -1},
                                 {"Y", kPubAbstract, {3, 5}, -1},
                                 {"Z", kPubVenue, {3, 5}, -1}});
  const MatchFunction match(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  const ProbabilityModel prob =
      ProbabilityModel::Train(train.dataset, train.truth, blocking);

  ProgressiveErOptions options;
  options.cluster.machines = 10;
  options.cluster.seconds_per_cost_unit = 0.02;

  const SortedNeighborMechanism sn;
  const TiesFirstMechanism ties_first;
  const ProgressiveMechanism* mechanisms[] = {&sn, &ties_first};
  for (const ProgressiveMechanism* mechanism : mechanisms) {
    const ProgressiveEr er(blocking, match, *mechanism, prob, options);
    const ErRunResult result = er.Run(data.dataset);
    if (result.failed) {
      std::fprintf(stderr, "resolution failed: %s\n", result.error.c_str());
      return 1;
    }
    const RecallCurve curve =
        RecallCurve::FromEvents(result.events, data.truth);
    std::printf("%-12s final recall %.3f after %.0f s (%lld comparisons)\n",
                mechanism->name().c_str(), curve.final_recall(),
                result.total_time,
                static_cast<long long>(result.comparisons));
  }
  return 0;
}
