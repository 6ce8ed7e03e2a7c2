#ifndef PROGRES_TESTS_ER_GOLDEN_UTIL_H_
#define PROGRES_TESTS_ER_GOLDEN_UTIL_H_

// Golden-equivalence harness for the ER drivers. Each driver runs on a
// fixed workload and cluster; its entire observable output — pairs,
// counters (minus the runtime's own "mr.shuffle." accounting, which the
// layered runtime added after the fixtures were frozen), recall curve,
// chunks and timings — is serialized to a canonical text form. The
// `make_er_golden` tool wrote the fixtures under tests/golden/ at the
// pre-refactor seed state; `driver_matrix_test` re-runs the drivers and
// diffs against them byte for byte.

#include <cstdio>
#include <string>
#include <vector>

#include "blocking/forest.h"
#include "core/basic_er.h"
#include "core/er_result.h"
#include "core/mrsn_er.h"
#include "core/progressive_er.h"
#include "core/stats_job.h"
#include "datagen/generators.h"
#include "eval/recall_curve.h"
#include "mapreduce/trace.h"
#include "mechanism/sorted_neighbor.h"
#include "test_overlays.h"

namespace progres {
namespace testing_util {

// The frozen workload: publications with a 500-entity training sample.
struct GoldenWorkload {
  LabeledDataset train;
  LabeledDataset data;
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
};

inline GoldenWorkload MakeGoldenWorkload() {
  GoldenWorkload w;
  PublicationConfig train_gen;
  train_gen.num_entities = 500;
  train_gen.seed = 411;
  w.train = GeneratePublications(train_gen);
  PublicationConfig gen;
  gen.num_entities = 1500;
  gen.seed = 412;
  w.data = GeneratePublications(gen);
  w.blocking = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                               {"Y", kPubAbstract, {3, 5}, -1},
                               {"Z", kPubVenue, {3, 5}, -1}});
  w.match = MatchFunction(
      {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
       {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
       {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
      0.75);
  return w;
}

inline ClusterConfig GoldenCluster() {
  ClusterConfig cluster;
  cluster.machines = 3;
  cluster.execution_threads = 4;
  return cluster;
}

// Shortest round-trippable decimal form of `v`.
inline std::string FormatExact(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// Canonical text form of everything a driver reports. Counters under the
// reserved "mr.shuffle." and "mr.spill." prefixes are skipped: they did not
// exist when the fixtures were frozen and are runtime bookkeeping, not
// driver output — which also keeps the dump byte-identical with spilling
// forced on (PROGRES_FORCE_SPILL) or off, the out-of-core invariant the
// matrix tests pin down.
inline std::string DumpErRunResult(const ErRunResult& r,
                                   const GroundTruth& truth) {
  std::string out;
  out += "failed=" + std::to_string(r.failed ? 1 : 0) + "\n";
  out += "preprocessing_end=" + FormatExact(r.preprocessing_end) + "\n";
  out += "total_time=" + FormatExact(r.total_time) + "\n";
  out += "comparisons=" + std::to_string(r.comparisons) + "\n";
  out += "duplicate_count=" + std::to_string(r.duplicate_count) + "\n";
  out += "distinct_count=" + std::to_string(r.distinct_count) + "\n";
  out += "skipped_count=" + std::to_string(r.skipped_count) + "\n";
  for (const auto& [name, value] : r.counters.values()) {
    if (name.rfind("mr.shuffle.", 0) == 0) continue;
    if (name.rfind("mr.spill.", 0) == 0) continue;
    out += "counter " + name + "=" + std::to_string(value) + "\n";
  }
  out += "events=" + std::to_string(r.events.size()) + "\n";
  for (const DuplicateEvent& event : r.events) {
    const auto [a, b] = PairKeyIds(event.pair);
    out += "event " + FormatExact(event.time) + " " + std::to_string(a) +
           "-" + std::to_string(b) + "\n";
  }
  for (PairKey pair : r.duplicates) {
    const auto [a, b] = PairKeyIds(pair);
    out += "pair " + std::to_string(a) + "-" + std::to_string(b) + "\n";
  }
  for (const ResultChunk& chunk : r.chunks) {
    out += "chunk " + std::to_string(chunk.task) + " " +
           FormatExact(chunk.cost_begin) + " " + FormatExact(chunk.cost_end) +
           " " + FormatExact(chunk.flush_time) + " " +
           std::to_string(chunk.pairs.size()) + "\n";
  }
  const RecallCurve curve = RecallCurve::FromEvents(r.events, truth);
  out += "final_recall=" + FormatExact(curve.final_recall()) + "\n";
  for (const RecallCurve::Point& point : curve.points()) {
    out += "recall " + FormatExact(point.time) + " " +
           FormatExact(point.recall) + "\n";
  }
  return out;
}

// Canonical text form of the statistics job's forests.
inline std::string DumpForests(const std::vector<Forest>& forests) {
  std::string out;
  for (const Forest& forest : forests) {
    out += "forest family=" + std::to_string(forest.family) +
           " nodes=" + std::to_string(forest.nodes.size()) +
           " roots=" + std::to_string(forest.roots.size()) + "\n";
    for (const BlockNode& node : forest.nodes) {
      out += "block " + std::to_string(node.id.level) + " " + node.id.path +
             " size=" + std::to_string(node.size) +
             " uncov=" + std::to_string(node.uncov) + " parent=" +
             (node.parent >= 0
                  ? forest.nodes[static_cast<size_t>(node.parent)].id.path
                  : std::string("-")) +
             "\n";
    }
  }
  return out;
}

// The frozen driver configurations, keyed by fixture name.
inline std::vector<std::string> GoldenDriverNames() {
  return {"basic", "mrsn", "progressive_perblock", "progressive_pertree",
          "stats"};
}

// Runs the frozen configuration of one resolving driver — "basic",
// "mrsn", "progressive_perblock" or "progressive_pertree" — on `cluster`.
// Any other name yields a failed result.
inline ErRunResult RunGoldenEr(const GoldenWorkload& w, const std::string& name,
                               const ClusterConfig& cluster) {
  const SortedNeighborMechanism sn;
  if (name == "basic") {
    // Basic uses the main blocking functions only.
    std::vector<FamilySpec> mains;
    for (int f = 0; f < w.blocking.num_families(); ++f) {
      FamilySpec spec = w.blocking.family(f);
      spec.prefix_lens = {spec.prefix_lens.front()};
      mains.push_back(std::move(spec));
    }
    BasicErOptions options;
    options.cluster = cluster;
    options.popcorn_threshold = 0.001;
    const BasicEr er(BlockingConfig(mains), w.match, sn, options);
    return er.Run(w.data.dataset);
  }
  if (name == "mrsn") {
    MrsnOptions options;
    options.cluster = cluster;
    options.window = 10;
    const MrsnEr er(w.blocking, w.match, options);
    return er.Run(w.data.dataset);
  }
  if (name == "progressive_perblock" || name == "progressive_pertree") {
    const ProbabilityModel prob =
        ProbabilityModel::Train(w.train.dataset, w.train.truth, w.blocking);
    ProgressiveErOptions options;
    options.cluster = cluster;
    options.map_emission = name == "progressive_pertree"
                               ? MapEmission::kPerTree
                               : MapEmission::kPerBlock;
    const ProgressiveEr er(w.blocking, w.match, sn, prob, options);
    return er.Run(w.data.dataset);
  }
  ErRunResult unknown;
  unknown.failed = true;
  unknown.error = "unknown driver: " + name;
  return unknown;
}

// Runs one frozen driver configuration. With `trace` non-null the run is
// recorded (which must not change the returned dump — tracing is
// observational; driver_matrix_test checks exactly that). `backend` selects
// the execution engine: the MR contract makes the dump byte-identical
// across backends, which executor_diff_test checks against the fixtures.
// `threads` overrides GoldenCluster()'s execution_threads when > 0.
// `budget` sets the shuffle memory budget (default: spilling off) — the
// dump must not depend on it. The variant suites' overlays apply on top.
inline std::string RunGoldenDriver(
    const std::string& name, TraceRecorder* trace = nullptr,
    ExecutionBackend backend = ExecutionBackend::kSimulated,
    int threads = 0, const ShuffleBudget& budget = {}) {
  const GoldenWorkload w = MakeGoldenWorkload();
  ClusterConfig cluster = GoldenCluster();
  cluster.backend = backend;
  if (threads > 0) cluster.execution_threads = threads;
  cluster.trace = trace;
  cluster.shuffle_budget = budget;
  ApplyTestOverlays(&cluster);
  if (name == "stats") {
    const StatsJobOutput out =
        RunStatisticsJob(w.data.dataset, w.blocking, cluster, 4, 3);
    return DumpForests(out.forests);
  }
  return DumpErRunResult(RunGoldenEr(w, name, cluster), w.data.truth);
}

// The frozen trace fixture: Chrome trace_event JSON of the traced
// progressive_perblock run (tests/golden/trace_progressive.golden). Any
// schedule change shows up as a diff here.
inline std::string GoldenTraceJson() {
  TraceRecorder recorder;
  RunGoldenDriver("progressive_perblock", &recorder);
  return recorder.ToChromeJson();
}

}  // namespace testing_util
}  // namespace progres

#endif  // PROGRES_TESTS_ER_GOLDEN_UTIL_H_
