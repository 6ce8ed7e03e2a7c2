// End-to-end ProgRES benchmark: generate -> statistics MR job -> annotate +
// schedule -> resolution MR job -> evaluate, driven through the public API
// (ProgressiveEr with PsnmMechanism). Every layer is timed from outside, by
// wrapping calls into its module's public functions.
//
//   progres_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --out-dir <dir>
//                     [--commit <id>] [--src-digest <hex>]
//
// --trace 0 prints the end-to-end metrics measured on untraced runs; --trace
// 1 makes the same untraced runs, then one traced run, and prints the
// per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a fuller results file with a
// provenance stamp goes to --out-dir. See README.md for the metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/progressive_er.h"
#include "core/stats_job.h"
#include "mechanism/psnm.h"
#include "observers.h"

namespace progres {
namespace perfbench {
namespace {

constexpr int kMachines = 10;
// Generator seed of every workload's dataset (the training sample uses the
// next one), as in bench_util.h's publication setup.
constexpr uint64_t kDataSeed = 2017;
// Compared pairs kept for the similarity replay (approximately).
constexpr int64_t kReplaySamples = 20000;
constexpr double kReplayMinSeconds = 0.25;
// Reconciliation slack: stats + annotate + schedule + resolution walls must
// land within this share of the traced Run wall.
constexpr double kWallSlack = 0.25;

struct Workload {
  const char* name;
  int64_t entities;
  double mega_block_fraction;
  TreeScheduler scheduler;
  bool threaded;
  // 512 KiB shuffle budget in 16 KiB blocks (out-of-core shuffle).
  bool spill;
  double per_task_cost_budget;
  // Simulated-seconds horizon of the Eq. 1 cost vector (quality_sim).
  double quality_horizon;
  // One more set-up after every this many timed runs; setup_s reports the
  // median of all set-ups in the process.
  size_t setup_every;
};

constexpr Workload kWorkloads[] = {
    {"pubs_serial", 20000, 0.0, TreeScheduler::kOurs, false, false, 0.0,
     1500.0, 1},
    {"pubs_mega_threaded", 20000, 0.3, TreeScheduler::kBlockSplit, true,
     false, 0.0, 1500.0, 1},
    {"pubs_budget_spill", 200000, 0.0, TreeScheduler::kOurs, false, true,
     2500.0, 300.0, 2},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int WorkerThreads(const Workload& w) {
  return w.threaded ? std::min(4, CpuCount()) : 1;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Table II blocking X/Y/Z and the CiteSeerX match function (bench_util.h).
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

struct Inputs {
  LabeledDataset data;
  ProbabilityModel prob;
  double datagen_s = 0.0;  // data + training sample generation
  double train_s = 0.0;    // ProbabilityModel::Train
};

// The seed permutes record order and entity ids of the workload's fixed
// generated dataset. Different generator seeds draw different vocabularies
// and venue pools, which moved block sizes, comparisons and the simulated
// makespan by 10-25% between seeds, wider than any bound this benchmark
// could hold. A permutation keeps the data and blocks while still changing
// the map-task split, sort tie-breaks and every id-keyed structure. The
// records are streamed and moved, so only one copy is ever resident.
LabeledDataset PermutedPublications(const PublicationConfig& gen,
                                    uint64_t seed) {
  std::vector<std::pair<std::vector<std::string>, int32_t>> records;
  records.reserve(static_cast<size_t>(gen.num_entities));
  StreamPublications(gen, [&](std::vector<std::string> attributes,
                              int32_t cluster) {
    records.emplace_back(std::move(attributes), cluster);
  });
  Rng rng(seed);
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.UniformU64(i)]);
  }
  LabeledDataset out;
  out.dataset = Dataset(PublicationSchema());
  std::vector<int32_t> cluster_of;
  cluster_of.reserve(records.size());
  for (auto& [attributes, cluster] : records) {
    out.dataset.Add(std::move(attributes));
    cluster_of.push_back(cluster);
  }
  out.truth = GroundTruth(std::move(cluster_of));
  return out;
}

Inputs MakeInputs(const Workload& w, uint64_t seed,
                  const BlockingConfig& blocking, SpanLog* spans) {
  Inputs in;
  Clock::time_point t0 = Clock::now();
  PublicationConfig gen;
  gen.num_entities = w.entities;
  gen.mega_block_fraction = w.mega_block_fraction;
  gen.seed = kDataSeed;
  in.data = PermutedPublications(gen, seed);
  PublicationConfig train_gen = gen;
  train_gen.num_entities = std::max<int64_t>(500, w.entities / 5);
  train_gen.seed = kDataSeed + 1;
  const LabeledDataset train = GeneratePublications(train_gen);
  Clock::time_point t1 = Clock::now();
  spans->Add("datagen", t0, t1);
  in.datagen_s = SecondsBetween(t0, t1);

  t0 = Clock::now();
  in.prob = ProbabilityModel::Train(train.dataset, train.truth, blocking);
  t1 = Clock::now();
  spans->Add("estimate.train", t0, t1);
  in.train_s = SecondsBetween(t0, t1);
  return in;
}

ProgressiveErOptions MakeOptions(const Workload& w, bool threaded,
                                 const std::string& spill_dir) {
  ProgressiveErOptions options;
  options.cluster = bench::MakeCluster(kMachines);
  if (threaded) {
    options.cluster.backend = ExecutionBackend::kThreaded;
    options.cluster.execution_threads = WorkerThreads(w);
  }
  if (w.spill) {
    options.cluster.shuffle_budget.max_bytes = 512 * 1024;
    options.cluster.shuffle_budget.block_bytes = 16 * 1024;
    options.cluster.shuffle_budget.spill_dir = spill_dir;
  }
  options.scheduler = w.scheduler;
  options.per_task_cost_budget = w.per_task_cost_budget;
  return options;
}

// FNV-1a over the sorted duplicate pairs.
uint64_t Digest(const std::vector<PairKey>& pairs) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const PairKey pair : pairs) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (pair >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// The simulated-backend run every timed run must reproduce.
struct Reference {
  uint64_t digest = 0;
  double total_time = 0.0;
  int64_t comparisons = 0;
  double quality_sim = 0.0;
  double final_recall = 0.0;
  double precision = 0.0;
  size_t pairs = 0;
};

bool Agrees(const ErRunResult& run, const Reference& ref) {
  return !run.failed && Digest(run.duplicates) == ref.digest &&
         run.total_time == ref.total_time;
}

// Wall progress of one run from the probe's duplicate stream.
struct Progress {
  double first_result_s = 0.0;
  double recall50_wall_s = 0.0;
  bool ok = false;
};

Progress ProgressOf(std::vector<std::pair<double, PairKey>> events,
                    const GroundTruth& truth) {
  Progress p;
  if (events.empty()) return p;
  std::sort(events.begin(), events.end());
  p.first_result_s = events.front().first;
  std::unordered_set<PairKey> seen;
  std::vector<double> true_times;
  for (const auto& [time, pair] : events) {
    const auto [a, b] = PairKeyIds(pair);
    if (!truth.IsDuplicate(a, b) || !seen.insert(pair).second) continue;
    true_times.push_back(time);
  }
  if (true_times.empty()) return p;
  const size_t half = (true_times.size() + 1) / 2;
  p.recall50_wall_s = true_times[half - 1];
  p.ok = true;
  return p;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string Number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
    if (i + 1 < metrics.size()) out += ", ";
  }
  return out + "}";
}

// Per-layer measurements of the traced run.
struct TracedPass {
  bool agrees = false;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
};

double TaskCostImbalance(const ProgressiveSchedule& schedule,
                         const std::vector<AnnotatedForest>& forests) {
  // Estimated cost per reduce task; a pair-level unit carries its block's
  // cost prorated by pair share (as the budgeted schedule truncation does).
  std::vector<double> costs;
  for (const auto& units : schedule.task_units) {
    double cost = 0.0;
    for (const MatchTask& unit : units) {
      const AnnotatedBlock& b =
          forests[static_cast<size_t>(unit.ref.family)].block(unit.ref.node);
      const int64_t block_pairs = WindowPairCount(b.size, b.window);
      cost += block_pairs > 0 ? b.cost * static_cast<double>(unit.pairs) /
                                    static_cast<double>(block_pairs)
                              : b.cost;
    }
    costs.push_back(cost);
  }
  double max = 0.0, sum = 0.0;
  for (const double c : costs) {
    max = std::max(max, c);
    sum += c;
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(costs.size())) : 0.0;
}

TracedPass RunTraced(const Workload& w, const Inputs& in,
                     const BlockingConfig& blocking,
                     const MatchFunction& match, const ProgressiveMechanism& m,
                     const ProgressiveErOptions& options,
                     const Reference& ref, double untraced_median_s,
                     SpanLog* spans) {
  TracedPass pass;
  const Dataset& dataset = in.data.dataset;
  const int map_tasks = options.cluster.map_slots();
  const int reduce_tasks = options.cluster.reduce_slots();
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) pass.check_failures.push_back(what);
  };

  // ---- Layer calls, each timed on its own ----
  Clock::time_point t0 = Clock::now();
  StatsJobOutput stats = RunStatisticsJob(dataset, blocking, options.cluster,
                                          map_tasks, reduce_tasks);
  Clock::time_point t1 = Clock::now();
  spans->Add("stats_job", t0, t1);
  const double stats_s = SecondsBetween(t0, t1);
  check(!stats.failed, "stats job failed: " + stats.error);

  t0 = Clock::now();
  std::vector<AnnotatedForest> forests =
      AnnotateForests(stats.forests, options.estimate, in.prob,
                      dataset.size());
  t1 = Clock::now();
  spans->Add("estimate.annotate", t0, t1);
  const double annotate_s = SecondsBetween(t0, t1);

  ScheduleParams params;
  params.num_reduce_tasks = reduce_tasks;
  params.cost_vector = options.cost_vector;
  params.weights = options.weights;
  params.batch_size = options.batch_size;
  params.scheduler = options.scheduler;
  params.per_task_budget = options.per_task_cost_budget;
  t0 = Clock::now();
  const ProgressiveSchedule schedule = GenerateSchedule(&forests, params);
  t1 = Clock::now();
  spans->Add("schedule", t0, t1);
  const double schedule_s = SecondsBetween(t0, t1);
  check(schedule.error.empty(), "schedule failed: " + schedule.error);
  int64_t live_blocks = 0;
  for (const AnnotatedForest& forest : forests) {
    for (int n = 0; n < forest.num_blocks(); ++n) {
      if (!forest.block(n).eliminated) ++live_blocks;
    }
  }
  int64_t units = 0;
  for (const auto& task : schedule.task_units) {
    units += static_cast<int64_t>(task.size());
  }

  ProgressProbe probe(m);
  const uint64_t stride =
      static_cast<uint64_t>(std::max<int64_t>(1, ref.comparisons /
                                                     kReplaySamples));
  TracedMechanism traced(probe, spans, stride);
  const ProgressiveEr er(blocking, match, traced, in.prob, options);

  t0 = Clock::now();
  const ProgressiveEr::Preprocessed pre = er.Preprocess(dataset);
  t1 = Clock::now();
  spans->Add("preprocess", t0, t1);
  const double preprocess_s = SecondsBetween(t0, t1);
  check(!pre.failed, "preprocess failed: " + pre.error);

  // ---- The traced pipeline run ----
  probe.Start();
  t0 = Clock::now();
  const ErRunResult run = er.Run(dataset);
  t1 = Clock::now();
  spans->Add("run", t0, t1);
  const double run_s = SecondsBetween(t0, t1);
  pass.agrees = Agrees(run, ref);
  check(pass.agrees, "traced run disagrees with the reference");
  const double resolution_s = run_s - preprocess_s;

  // ---- Similarity replay outside the run ----
  std::vector<PairKey> samples = traced.TakeSamples();
  std::sort(samples.begin(), samples.end());
  double ns_per_cmp = 0.0;
  if (!samples.empty()) {
    int64_t calls = 0;
    int64_t matches = 0;
    const Clock::time_point r0 = Clock::now();
    double elapsed = 0.0;
    do {
      for (const PairKey pair : samples) {
        const auto [a, b] = PairKeyIds(pair);
        matches += match.Resolve(dataset.entity(a), dataset.entity(b)) ? 1 : 0;
      }
      calls += static_cast<int64_t>(samples.size());
      elapsed = SecondsBetween(r0, Clock::now());
    } while (elapsed < kReplayMinSeconds);
    ns_per_cmp = elapsed * 1e9 / static_cast<double>(calls);
    volatile int64_t sink = matches;  // keep the replayed calls observable
    static_cast<void>(sink);
  }
  check(!samples.empty(), "no compared pairs sampled for the replay");

  // ---- Reconciliation ----
  const MechanismTally t = traced.tally();
  const int64_t comparisons = t.duplicates + t.distinct;
  check(t.calls == run.counters.Get("reduce.blocks_resolved"),
        "mechanism.calls != reduce.blocks_resolved");
  check(comparisons == run.counters.Get("reduce.comparisons"),
        "similarity.comparisons != reduce.comparisons");
  check(t.admitted == comparisons,
        "redundancy admitted != similarity.comparisons");
  const double layer_sum = stats_s + annotate_s + schedule_s + resolution_s;
  check(std::fabs(layer_sum - run_s) <= kWallSlack * run_s,
        "layer walls (" + Number(layer_sum) +
            " s) do not reconcile with Run (" + Number(run_s) + " s)");

  const int threads = WorkerThreads(w);
  const double est_s = static_cast<double>(comparisons) * ns_per_cmp * 1e-9;
  pass.metrics = {
      {"datagen.wall_s", "s", in.datagen_s},
      {"estimate.train_wall_s", "s", in.train_s},
      {"estimate.annotate_wall_s", "s", annotate_s},
      {"stats_job.wall_s", "s", stats_s},
      {"stats_job.map_wall_s", "s", stats.timing.wall.map_seconds},
      {"stats_job.reduce_wall_s", "s", stats.timing.wall.reduce_seconds},
      {"stats_job.shuffle_records", "count",
       static_cast<double>(stats.counters.Get("mr.shuffle.records"))},
      {"stats_job.shuffle_bytes", "bytes",
       static_cast<double>(stats.counters.Get("mr.shuffle.bytes"))},
      {"stats_job.spill_runs", "count",
       static_cast<double>(stats.counters.Get("mr.spill.runs"))},
      {"stats_job.spill_bytes", "bytes",
       static_cast<double>(stats.counters.Get("mr.spill.bytes"))},
      {"stats_job.merge_passes", "count",
       static_cast<double>(stats.counters.Get("mr.spill.merge_passes"))},
      {"schedule.wall_s", "s", schedule_s},
      {"schedule.live_blocks", "count", static_cast<double>(live_blocks)},
      {"schedule.units", "count", static_cast<double>(units)},
      {"schedule.task_cost_imbalance", "ratio",
       TaskCostImbalance(schedule, forests)},
      {"resolution_job.wall_s", "s", resolution_s},
      {"resolution_job.shuffle_records", "count",
       static_cast<double>(run.counters.Get("mr.shuffle.records"))},
      {"resolution_job.shuffle_bytes", "bytes",
       static_cast<double>(run.counters.Get("mr.shuffle.bytes"))},
      {"resolution_job.spill_runs", "count",
       static_cast<double>(run.counters.Get("mr.spill.runs"))},
      {"resolution_job.map_emitted", "count",
       static_cast<double>(run.counters.Get("map.emitted_pairs"))},
      {"executor.threads", "count", static_cast<double>(threads)},
      {"executor.busy_frac", "ratio",
       resolution_s > 0.0 ? t.wall_s / (threads * resolution_s) : 0.0},
      {"mechanism.calls", "count", static_cast<double>(t.calls)},
      {"mechanism.wall_s", "s", t.wall_s},
      {"mechanism.self_s", "s", t.wall_s - t.check_wall_s - est_s},
      {"mechanism.max_call_s", "s", t.max_call_s},
      {"mechanism.skipped", "count", static_cast<double>(t.skipped)},
      {"mechanism.stopped_early_frac", "ratio",
       t.calls > 0 ? static_cast<double>(t.stopped_early) /
                         static_cast<double>(t.calls)
                   : 0.0},
      {"redundancy.checks", "count", static_cast<double>(t.checks)},
      {"redundancy.wall_s", "s", t.check_wall_s},
      {"redundancy.pass_frac", "ratio",
       t.checks > 0 ? static_cast<double>(t.admitted) /
                          static_cast<double>(t.checks)
                    : 0.0},
      {"similarity.comparisons", "count", static_cast<double>(comparisons)},
      {"similarity.dup_frac", "ratio",
       comparisons > 0 ? static_cast<double>(t.duplicates) /
                             static_cast<double>(comparisons)
                       : 0.0},
      {"similarity.ns_per_cmp", "ns", ns_per_cmp},
      {"similarity.est_s", "s", est_s},
      {"trace.overhead_frac", "ratio",
       untraced_median_s > 0.0 ? run_s / untraced_median_s - 1.0 : 0.0},
  };
  // One human-readable line with the layer walls of the traced run.
  std::fprintf(stdout,
               "traced run: run %.3f s | stats %.3f annotate %.3f schedule "
               "%.3f resolution %.3f | mechanism %.3f redundancy %.3f "
               "similarity(est) %.3f | spans %zu\n",
               run_s, stats_s, annotate_s, schedule_s, resolution_s, t.wall_s,
               t.check_wall_s, est_s, spans->size());
  return pass;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  SpanLog spans(Clock::now());
  const BlockingConfig blocking = PublicationBlocking();
  const MatchFunction match = PublicationMatch();
  const PsnmMechanism psnm;
  const std::string spill_dir = args.out_dir + "/spill";
  std::error_code dir_error;
  std::filesystem::create_directories(spill_dir, dir_error);
  if (dir_error) {
    std::fprintf(stderr, "cannot create %s: %s\n", spill_dir.c_str(),
                 dir_error.message().c_str());
    return 1;
  }

  // ---- Set-up (setup_s): datagen, training sample, model training ----
  // The first set-up builds the inputs. More are interleaved with the timed
  // runs below, so that setup_s samples the same stretch of time as they do.
  std::vector<double> setup_walls;
  Inputs in;
  const auto set_up = [&] {
    in = Inputs();  // free the previous copy before building the next
    const Clock::time_point t0 = Clock::now();
    in = MakeInputs(w, args.seed, blocking, &spans);
    setup_walls.push_back(SecondsBetween(t0, Clock::now()));
  };
  set_up();
  const Dataset& dataset = in.data.dataset;
  const GroundTruth& truth = in.data.truth;

  // ---- Reference: bare PSNM on the simulated backend, untimed ----
  Reference ref;
  {
    const ProgressiveEr er(blocking, match, psnm, in.prob,
                           MakeOptions(w, /*threaded=*/false, spill_dir));
    const ErRunResult run = er.Run(dataset);
    if (run.failed || run.duplicates.empty()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   run.failed ? run.error.c_str() : "no duplicates found");
      return 1;
    }
    ref.digest = Digest(run.duplicates);
    ref.total_time = run.total_time;
    ref.comparisons = run.comparisons;
    ref.pairs = run.duplicates.size();
    const RecallCurve curve = RecallCurve::FromEvents(run.events, truth);
    ref.quality_sim = bench::QualityOverHorizon(curve, w.quality_horizon);
    ref.final_recall = curve.final_recall();
    int64_t true_pairs = 0;
    for (const PairKey pair : run.duplicates) {
      const auto [a, b] = PairKeyIds(pair);
      true_pairs += truth.IsDuplicate(a, b) ? 1 : 0;
    }
    ref.precision = static_cast<double>(true_pairs) /
                    static_cast<double>(run.duplicates.size());
  }

  // ---- Timed, untraced runs with the progress probe ----
  const ProgressiveErOptions options = MakeOptions(w, w.threaded, spill_dir);
  ProgressProbe probe(psnm);
  const ProgressiveEr er(blocking, match, probe, in.prob, options);
  std::vector<double> run_walls, first_results, recall50s;
  int64_t attempted = 0;
  int64_t failed = 0;
  // The first run in the timed configuration warms caches and, on the
  // threaded workload, the worker pool; it is checked but not timed.
  bool warm_up = true;
  Clock::time_point window = Clock::now();
  do {
    probe.Start();
    const Clock::time_point t0 = Clock::now();
    const ErRunResult run = er.Run(dataset);
    const Clock::time_point t1 = Clock::now();
    spans.Add("run.untraced", t0, t1);
    ++attempted;
    const Progress progress = ProgressOf(probe.TakeEvents(), truth);
    const bool ok = Agrees(run, ref) && progress.ok;
    if (!ok) ++failed;
    if (warm_up) {
      warm_up = false;
      window = Clock::now();
    } else if (ok) {
      run_walls.push_back(SecondsBetween(t0, t1));
      first_results.push_back(progress.first_result_s);
      recall50s.push_back(progress.recall50_wall_s);
      if (run_walls.size() % w.setup_every == 0) set_up();
    }
  } while (SecondsBetween(window, Clock::now()) < args.seconds);
  const double peak_rss = PeakRssMib();
  const double run_median = Median(run_walls);

  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", Median(setup_walls)},
        {"entities_per_s", "1/s",
         run_median > 0.0 ? static_cast<double>(dataset.size()) / run_median
                          : 0.0},
        {"first_result_s", "s", Median(first_results)},
        {"recall50_wall_s", "s", Median(recall50s)},
        {"quality_sim", "ratio", ref.quality_sim},
        {"sim_makespan_s", "sim_s", ref.total_time},
        {"final_recall", "ratio", ref.final_recall},
        {"precision", "ratio", ref.precision},
        {"peak_rss_mib", "MiB", peak_rss},
    };
  } else {
    TracedPass pass = RunTraced(w, in, blocking, match, psnm, options, ref,
                                run_median, &spans);
    ++attempted;
    if (!pass.agrees) ++failed;
    metrics = std::move(pass.metrics);
    check_failures = std::move(pass.check_failures);
    const std::string trace_path = args.out_dir + "/trace-" + w.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    if (spans.WriteChromeJson(trace_path)) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      check_failures.push_back("cannot write " + trace_path);
    }
  }
  for (const std::string& f : check_failures) {
    std::fprintf(stderr, "self-check failed: %s\n", f.c_str());
  }
  const bool correct =
      failed == 0 && check_failures.empty() && !run_walls.empty();

  // ---- Results file with provenance ----
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(ref.digest));
  const auto json_list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += Number(values[i]) + (i + 1 < values.size() ? ", " : "");
    }
    return out + "]";
  };
  const std::string provenance =
      "{\"nproc\": " + std::to_string(CpuCount()) +
      ", \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"worker_threads\": " + std::to_string(WorkerThreads(w)) +
      ", \"calibration_ops_per_sec\": " + Number(bench::CalibrationScore()) +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"seed\": " +
      std::to_string(args.seed) + ", \"git_commit\": \"" + args.commit +
      "\", \"src_digest\": \"" + args.src_digest + "\"}";
  const std::string result_line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  const std::string results_path =
      args.out_dir + "/result-" + w.name + "-seed" +
      std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
      ".json";
  if (std::FILE* f = std::fopen(results_path.c_str(), "wb")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"trace\": %d, \"provenance\": %s, "
                 "\"reference_digest\": \"%s\", \"reference_pairs\": %zu, "
                 "\"setup_walls_s\": %s, \"run_walls_s\": %s, "
                 "\"first_results_s\": %s, \"recall50s_s\": %s, "
                 "\"result\": %s}\n",
                 w.name, args.trace ? 1 : 0, provenance.c_str(), digest,
                 ref.pairs, json_list(setup_walls).c_str(),
                 json_list(run_walls).c_str(),
                 json_list(first_results).c_str(),
                 json_list(recall50s).c_str(), result_line.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", results_path.c_str());
  }
  std::printf("%s seed %llu: %zu timed run(s), Run median %.4f s, setup "
              "median %.4f s of %zu, reference %s (%zu pairs)\n",
              w.name, static_cast<unsigned long long>(args.seed),
              run_walls.size(), run_median, Median(setup_walls),
              setup_walls.size(), digest, ref.pairs);
  std::printf("provenance: %s\n", provenance.c_str());
  std::printf("%s\n", result_line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace progres

int main(int argc, char** argv) { return progres::perfbench::Main(argc, argv); }
