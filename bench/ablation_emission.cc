// Ablation: map-side emission strategy (footnote 5 of the paper). The naive
// implementation emits one key-value pair per (entity, block); the optimized
// one emits one per (entity, tree) and regroups on the reduce side. Shuffle
// volume drops by roughly the average scheduled tree depth while results are
// unchanged.
//
// "--json[=path]" writes a BENCH_ablation_emission.json report instead of
// the table: simulated-clock milestones (time-to-recall, makespan, shuffle
// volume) plus measured wall times, for the CI regression gate
// (tools/compare_bench.py).

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/progressive_er.h"
#include "eval/report.h"
#include "mechanism/sorted_neighbor.h"

namespace progres {
namespace {

constexpr int64_t kEntities = 16000;
constexpr int kMachines = 10;

const char* EmissionLabel(MapEmission emission) {
  return emission == MapEmission::kPerBlock ? "perblock" : "pertree";
}

ErRunResult RunEmission(const bench::PublicationSetup& setup,
                        MapEmission emission) {
  const SortedNeighborMechanism sn;
  ProgressiveErOptions options;
  options.cluster = bench::MakeCluster(kMachines);
  options.map_emission = emission;
  const ProgressiveEr er(setup.blocking, setup.match, sn, setup.prob,
                         options);
  return er.Run(setup.data.dataset);
}

void Main() {
  const bench::PublicationSetup setup =
      bench::MakePublicationSetup(kEntities);

  std::printf("=== Ablation: per-block vs per-tree map emission ===\n\n");
  // mr.shuffle.* are the runtime's own accounting of the encoded pairs at
  // the map/reduce boundary; map.emitted_pairs / shuffle.bytes are the
  // driver's map-side counters, and both pairs of columns agree. The two
  // rightmost time columns are different clocks: sim_total_s is the
  // deterministic simulated makespan, wall_s the measured run time.
  TextTable table({"emission", "shuffled_pairs", "shuffled_bytes",
                   "mr.shuffle.records", "mr.shuffle.bytes", "comparisons",
                   "quality", "final_recall", "sim_total_s", "wall_s"});
  double horizon = 0.0;
  for (MapEmission emission :
       {MapEmission::kPerBlock, MapEmission::kPerTree}) {
    const ErRunResult result = RunEmission(setup, emission);
    const RecallCurve curve =
        RecallCurve::FromEvents(result.events, setup.data.truth);
    if (horizon == 0.0) horizon = result.total_time * 1.5;
    table.AddRow({emission == MapEmission::kPerBlock ? "per-block (naive)"
                                                     : "per-tree (optimized)",
                  std::to_string(result.counters.Get("map.emitted_pairs")),
                  std::to_string(result.counters.Get("shuffle.bytes")),
                  std::to_string(result.counters.Get("mr.shuffle.records")),
                  std::to_string(result.counters.Get("mr.shuffle.bytes")),
                  std::to_string(result.comparisons),
                  FormatDouble(bench::QualityOverHorizon(curve, horizon), 3),
                  FormatDouble(curve.final_recall(), 3),
                  FormatDouble(result.total_time, 0),
                  FormatDouble(result.wall_seconds, 3)});
  }
  std::printf("%s", table.ToString().c_str());
}

int JsonMain(const std::string& path) {
  const bench::PublicationSetup setup =
      bench::MakePublicationSetup(kEntities);
  bench::BenchReport report("ablation_emission");

  for (MapEmission emission :
       {MapEmission::kPerBlock, MapEmission::kPerTree}) {
    const ErRunResult result = RunEmission(setup, emission);
    if (result.failed) {
      std::fprintf(stderr, "%s run failed: %s\n", EmissionLabel(emission),
                   result.error.c_str());
      return 1;
    }
    const RecallCurve curve =
        RecallCurve::FromEvents(result.events, setup.data.truth);
    const std::string label = EmissionLabel(emission);
    report.AddSim(
        "shuffle_records_" + label, "records",
        static_cast<double>(result.counters.Get("mr.shuffle.records")));
    report.AddSim("comparisons_" + label, "pairs",
                  static_cast<double>(result.comparisons));
    report.AddSim("final_recall_" + label, "recall", curve.final_recall(),
                  /*higher_is_better=*/true);
    // Time-to-recall milestones, on the simulated clock (-1: never reached).
    for (double recall : {0.5, 0.8, 0.95}) {
      const double t = curve.TimeToRecall(recall);
      report.AddSim(
          "sim_t_recall" + std::to_string(static_cast<int>(recall * 100)) +
              "_" + label,
          "sim_s", std::isinf(t) ? -1.0 : t);
    }
    report.AddSim("sim_total_seconds_" + label, "sim_s", result.total_time);
    // Single-shot driver runs: too noisy on shared runners to gate, but
    // worth recording for trend inspection.
    report.AddWall("wall_total_seconds_" + label, "wall_s",
                   result.wall_seconds, /*higher_is_better=*/false,
                   /*gated=*/false);
    report.AddWall("pairs_per_sec_" + label, "pairs/s",
                   static_cast<double>(result.comparisons) /
                       result.wall_seconds,
                   /*higher_is_better=*/true, /*gated=*/false);
  }

  if (!report.WriteJson(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace progres

int main(int argc, char** argv) {
  std::string json_path;
  if (progres::bench::ParseJsonMode(argc, argv, "ablation_emission",
                                    &json_path)) {
    return progres::JsonMain(json_path);
  }
  progres::Main();
  return 0;
}
