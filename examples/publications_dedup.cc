// Publications deduplication: the paper's CiteSeerX scenario at laptop
// scale. Resolves a synthetic publication dataset progressively and prints
// recall milestones against the Basic baseline, demonstrating the
// pay-as-you-go value of the approach: most duplicates arrive in the first
// fraction of the execution.
//
//   build/examples/publications_dedup [num_entities]

#include <cstdio>
#include <cstdlib>

#include "core/basic_er.h"
#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mechanism/sorted_neighbor.h"

int main(int argc, char** argv) {
  using namespace progres;
  const int64_t n = argc > 1 ? std::atoll(argv[1]) : 10000;

  // Generate the workload plus a smaller labeled sample for training the
  // duplicate-probability model.
  PublicationConfig gen;
  gen.num_entities = n;
  gen.seed = 2017;
  const LabeledDataset data = GeneratePublications(gen);
  PublicationConfig train_gen;
  train_gen.num_entities = std::max<int64_t>(500, n / 5);
  train_gen.seed = 2018;
  const LabeledDataset train = GeneratePublications(train_gen);

  // Table II (CiteSeerX): title prefixes 2/4/8, abstract prefixes 3/5,
  // venue prefixes 3/5; X dominates Y dominates Z.
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
  const ProgressiveEr ours(blocking, match, sn, prob, options);
  const ErRunResult ours_result = ours.Run(data.dataset);
  if (ours_result.failed) {
    std::fprintf(stderr, "resolution failed: %s\n", ours_result.error.c_str());
    return 1;
  }
  const RecallCurve ours_curve =
      RecallCurve::FromEvents(ours_result.events, data.truth);

  const BlockingConfig basic_blocking({{"X", kPubTitle, {2}, -1},
                                       {"Y", kPubAbstract, {3}, -1},
                                       {"Z", kPubVenue, {3}, -1}});
  BasicErOptions basic_options;
  basic_options.cluster.machines = 10;
  basic_options.cluster.seconds_per_cost_unit = 0.02;
  const BasicEr basic(basic_blocking, match, sn, basic_options);
  const ErRunResult basic_result = basic.Run(data.dataset);
  if (basic_result.failed) {
    std::fprintf(stderr, "resolution failed: %s\n", basic_result.error.c_str());
    return 1;
  }
  const RecallCurve basic_curve =
      RecallCurve::FromEvents(basic_result.events, data.truth);

  std::printf("Publications: %lld entities, %lld true duplicate pairs\n\n",
              static_cast<long long>(n),
              static_cast<long long>(data.truth.num_duplicate_pairs()));
  std::printf("%-10s %-22s %-22s\n", "recall", "progressive time (s)",
              "basic time (s)");
  for (double recall : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    const double t_ours = ours_curve.TimeToRecall(recall);
    const double t_basic = basic_curve.TimeToRecall(recall);
    std::printf("%-10.1f %-22.0f %-22s\n", recall, t_ours,
                t_basic < 1e17 ? std::to_string((long long)t_basic).c_str()
                               : "never");
  }
  std::printf("\nFinal recall: progressive %.3f (%.0f s), basic %.3f (%.0f s)\n",
              ours_curve.final_recall(), ours_result.total_time,
              basic_curve.final_recall(), basic_result.total_time);
  std::printf("Comparisons:  progressive %lld, basic %lld\n",
              static_cast<long long>(ours_result.comparisons),
              static_cast<long long>(basic_result.comparisons));
  return 0;
}
