// Budgeted cleaning: the cost-constrained enterprise scenario from the
// paper's introduction — a team that cannot afford to clean each dataset
// fully terminates the ER process once a satisfactory quality is reached.
// This example runs the progressive approach, then shows what terminating at
// several cost budgets would have delivered, and at which budget a target
// recall is first met.
//
//   build/examples/budget_cleaning [num_entities] [target_recall]

#include <cstdio>
#include <cstdlib>

#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mechanism/sorted_neighbor.h"

int main(int argc, char** argv) {
  using namespace progres;
  const int64_t n = argc > 1 ? std::atoll(argv[1]) : 10000;
  const double target = argc > 2 ? std::atof(argv[2]) : 0.8;

  PublicationConfig gen;
  gen.num_entities = n;
  gen.seed = 5;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = std::max<int64_t>(500, n / 5);
  train_gen.seed = 6;
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
  options.cluster.machines = 10;
  options.cluster.seconds_per_cost_unit = 0.02;
  const ProgressiveEr er(blocking, match, sn, prob, options);
  const ErRunResult result = er.Run(data.dataset);
  if (result.failed) {
    std::fprintf(stderr, "resolution failed: %s\n", result.error.c_str());
    return 1;
  }
  const RecallCurve curve = RecallCurve::FromEvents(result.events, data.truth);

  std::printf("Dataset: %lld publications; full run costs %.0f simulated "
              "seconds and reaches recall %.3f.\n\n",
              static_cast<long long>(n), result.total_time,
              curve.final_recall());

  std::printf("%-12s %-10s %-14s\n", "budget_%", "recall", "of_final_%");
  for (int pct : {10, 20, 30, 40, 50, 75, 100}) {
    const double budget = result.total_time * pct / 100.0;
    const double recall = curve.RecallAt(budget);
    std::printf("%-12d %-10.3f %-14.1f\n", pct, recall,
                100.0 * recall / curve.final_recall());
  }

  const double t_target = curve.TimeToRecall(target);
  if (t_target <= result.total_time) {
    std::printf("\nTarget recall %.2f reached after %.0f s = %.1f%% of the "
                "full-run cost; the remaining %.1f%% could be saved.\n",
                target, t_target, 100.0 * t_target / result.total_time,
                100.0 * (1.0 - t_target / result.total_time));
  } else {
    std::printf("\nTarget recall %.2f is beyond this run's final recall "
                "%.3f.\n", target, curve.final_recall());
  }
  return 0;
}
