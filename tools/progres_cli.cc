// progres_cli — command-line front end to the library. Lets a user run the
// whole pipeline on TSV files without writing C++:
//
//   progres_cli generate --kind=publications --entities=20000
//       --out=data.tsv --truth=truth.tsv [--seed=42]
//   progres_cli stats --data=data.tsv --out=forests.tsv
//   progres_cli resolve --data=data.tsv --train=train.tsv
//       --train-truth=train_truth.tsv --machines=10 --out=pairs.tsv
//       [--basic] [--budget=50000]
//       [--scheduler=ours|nosplit|lpt|blocksplit|pairrange]
//       [--backend=simulated|threaded] [--threads=N]
//       [--shuffle-max-mem=256] [--spill-dir=/tmp/spills]
//       [--fallback-spill-dir=/mnt/spare]
//       [--fault-prob=0.1] [--fault-seed=1] [--max-attempts=4]
//       [--hang-prob=0.05] [--task-timeout=600]
//       [--shuffle-corrupt-prob=0.01] [--poison-records=3,17,90]
//       [--skip-bad-records] [--checkpoint-recovery]
//       [--spill-fault-prob=0.01] [--spill-enospc-prob=0.5]
//       [--checkpoint-dir=/tmp/ckpt] [--resume]
//       [--crash-after-checkpoints=N]
//       [--deadline=120] [--wall-deadline=30] [--allow-degraded]
//       [--fault-budget=8]
//       [--trace-out=trace.json] [--trace-timeline=timeline.txt]
//   progres_cli explain --data=data.tsv --train=train.tsv
//       --train-truth=train_truth.tsv [--machines=10] [--blocks=5]
//   progres_cli evaluate --pairs=pairs.tsv --truth=truth.tsv
// (flags are one logical command line; wrapped here for width)
//
// The built-in blocking/match configurations follow the bench setup for the
// two synthetic workloads (publications: title/abstract/venue; books: eight
// attributes). Datasets are TSV files whose header row names the schema.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "blocking/forest_io.h"
#include "common/string_util.h"
#include "common/tsv.h"
#include "core/basic_er.h"
#include "core/progressive_er.h"
#include "datagen/generators.h"
#include "estimate/prob_model.h"
#include "eval/clustering.h"
#include "eval/recall_curve.h"
#include "mapreduce/trace.h"
#include "mechanism/sorted_neighbor.h"
#include "schedule/schedule.h"

namespace progres {
namespace {

// ---------------------------------------------------------------- flags

// Parses --key=value arguments into a map; positional args are rejected.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg.substr(2)] = "true";
    } else {
      flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

std::string GetFlag(const std::map<std::string, std::string>& flags,
                    const std::string& name, const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

std::string RequireFlag(const std::map<std::string, std::string>& flags,
                        const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
    std::exit(2);
  }
  return it->second;
}

// ---------------------------------------------------------------- config

// Built-in blocking + match configuration keyed by the dataset schema.
struct PipelineConfig {
  BlockingConfig blocking{std::vector<FamilySpec>{}};
  MatchFunction match{{}, 0.75};
};

bool ConfigForSchema(const Dataset& dataset, PipelineConfig* out) {
  if (dataset.AttributeIndex("abstract") >= 0) {  // publications
    out->blocking = BlockingConfig({{"X", kPubTitle, {2, 4, 8}, -1},
                                    {"Y", kPubAbstract, {3, 5}, -1},
                                    {"Z", kPubVenue, {3, 5}, -1}});
    out->match = MatchFunction(
        {{kPubTitle, AttributeSimilarity::kEditDistance, 0.5, 0},
         {kPubAbstract, AttributeSimilarity::kEditDistance, 0.3, 350},
         {kPubVenue, AttributeSimilarity::kEditDistance, 0.2, 0}},
        0.75);
    return true;
  }
  if (dataset.AttributeIndex("isbn") >= 0) {  // books
    out->blocking = BlockingConfig({{"X", kBookTitle, {3, 5, 8}, -1},
                                    {"Y", kBookAuthors, {3, 5}, -1},
                                    {"Z", kBookPublisher, {3, 5}, -1}});
    out->match = MatchFunction(
        {{kBookTitle, AttributeSimilarity::kEditDistance, 0.35, 0},
         {kBookAuthors, AttributeSimilarity::kEditDistance, 0.2, 0},
         {kBookPublisher, AttributeSimilarity::kEditDistance, 0.1, 0},
         {kBookYear, AttributeSimilarity::kExact, 0.1, 0},
         {kBookIsbn, AttributeSimilarity::kEditDistance, 0.1, 0},
         {kBookPages, AttributeSimilarity::kExact, 0.05, 0},
         {kBookLanguage, AttributeSimilarity::kExact, 0.05, 0},
         {kBookEdition, AttributeSimilarity::kExact, 0.05, 0}},
        0.75);
    return true;
  }
  return false;
}

// Fails fast on an unwritable trace destination (missing directory, no
// permission) instead of discovering it after a long resolve run. The probe
// leaves an empty file behind, which the real export then overwrites.
bool ProbeWritable(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return static_cast<bool>(out);
}

// Same fail-fast probe for a directory (spill or checkpoint dir): creates
// and removes a probe file, so a missing directory, a plain file passed as
// one, or a permission problem surfaces before the run instead of at the
// first spill or checkpoint save.
bool ProbeWritableDir(const std::string& dir) {
  const std::string probe = dir + "/.progres-probe";
  std::ofstream out(probe, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.close();
  std::remove(probe.c_str());
  return true;
}

// Creates the directory if missing (mkdir -p), then probes it: a fresh
// --checkpoint-dir path is a request, not an error.
bool EnsureWritableDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return ProbeWritableDir(dir);
}

bool SavePairs(const std::string& path, const std::vector<PairKey>& pairs) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(pairs.size());
  for (PairKey pair : pairs) {
    const auto [a, b] = PairKeyIds(pair);
    rows.push_back({std::to_string(a), std::to_string(b)});
  }
  return WriteTsv(path, rows);
}

// Reads a pairs file, two entity ids per line, to score against a truth of
// `num_entities` entities: each id must lie in [0, num_entities) and the
// two ids of a pair must differ. On failure sets `*error` to a message
// naming `path` and the offending line.
bool LoadPairs(const std::string& path, int64_t num_entities,
               std::vector<PairKey>* pairs, std::string* error) {
  std::vector<std::vector<std::string>> rows;
  if (!ReadTsv(path, &rows)) {
    *error = path + ": cannot be read";
    return false;
  }
  pairs->clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::vector<std::string>& row = rows[i];
    const auto fail = [&](const std::string& what) {
      *error = path + ":" + std::to_string(i + 1) + ": " + what;
      return false;
    };
    EntityId a = 0;
    EntityId b = 0;
    if (row.size() != 2 || !ParseInt32(row[0], &a) ||
        !ParseInt32(row[1], &b)) {
      return fail("expected two integer entity ids");
    }
    for (const EntityId id : {a, b}) {
      if (id < 0 || id >= num_entities) {
        return fail("entity id " + std::to_string(id) +
                    " is outside the truth's [0, " +
                    std::to_string(num_entities) + ")");
      }
    }
    if (a == b) {
      return fail("entity " + std::to_string(a) + " paired with itself");
    }
    pairs->push_back(MakePairKey(a, b));
  }
  return true;
}

// Loads --data; on failure prints a labelled error and returns false.
bool LoadData(const std::map<std::string, std::string>& flags,
              Dataset* dataset) {
  std::string error;
  if (!Dataset::LoadTsv(RequireFlag(flags, "data"), dataset, &error)) {
    std::fprintf(stderr, "failed to read --data: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Loads --train and --train-truth. The probability model looks up every
// training entity's cluster, so the truth must hold exactly one row per
// entity of --train. On failure prints a labelled error and returns false.
bool LoadTraining(const std::map<std::string, std::string>& flags,
                  Dataset* train, GroundTruth* truth) {
  const std::string train_path = RequireFlag(flags, "train");
  const std::string truth_path = RequireFlag(flags, "train-truth");
  std::string error;
  if (!Dataset::LoadTsv(train_path, train, &error) ||
      !GroundTruth::LoadTsv(truth_path, truth, &error)) {
    std::fprintf(stderr, "failed to read training data: %s\n", error.c_str());
    return false;
  }
  const long long rows = truth->num_entities();
  const long long entities = train->size();
  if (rows != entities) {
    std::fprintf(stderr,
                 "failed to read training data: %s has %lld rows but %s "
                 "holds %lld entities (entity %lld is in one file only)\n",
                 truth_path.c_str(), rows, train_path.c_str(), entities,
                 std::min(rows, entities));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------- commands

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string kind = GetFlag(flags, "kind", "publications");
  const int64_t entities = std::atoll(GetFlag(flags, "entities", "10000").c_str());
  const uint64_t seed =
      static_cast<uint64_t>(std::atoll(GetFlag(flags, "seed", "42").c_str()));
  LabeledDataset data;
  if (kind == "publications") {
    PublicationConfig config;
    config.num_entities = entities;
    config.seed = seed;
    data = GeneratePublications(config);
  } else if (kind == "books") {
    BookConfig config;
    config.num_entities = entities;
    config.seed = seed;
    data = GenerateBooks(config);
  } else if (kind == "people") {
    data = GeneratePeopleToy();
  } else {
    std::fprintf(stderr, "unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  if (!data.dataset.SaveTsv(RequireFlag(flags, "out"))) {
    std::fprintf(stderr, "failed to write dataset\n");
    return 1;
  }
  if (flags.count("truth") && !data.truth.SaveTsv(flags.at("truth"))) {
    std::fprintf(stderr, "failed to write ground truth\n");
    return 1;
  }
  std::printf("wrote %lld entities (%lld duplicate pairs)\n",
              static_cast<long long>(data.dataset.size()),
              static_cast<long long>(data.truth.num_duplicate_pairs()));
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  Dataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  PipelineConfig config;
  if (!ConfigForSchema(dataset, &config)) {
    std::fprintf(stderr, "unrecognized schema\n");
    return 1;
  }
  std::vector<Forest> forests =
      BuildForests(dataset, config.blocking, /*keep_members=*/false);
  ComputeUncoveredPairs(dataset, config.blocking, &forests);
  if (!SaveForests(RequireFlag(flags, "out"), forests)) {
    std::fprintf(stderr, "failed to write forests\n");
    return 1;
  }
  int64_t blocks = 0;
  for (const Forest& forest : forests) {
    blocks += static_cast<int64_t>(forest.nodes.size());
  }
  std::printf("wrote statistics for %lld blocks across %zu families\n",
              static_cast<long long>(blocks), forests.size());
  return 0;
}

int CmdResolve(const std::map<std::string, std::string>& flags) {
  Dataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  PipelineConfig config;
  if (!ConfigForSchema(dataset, &config)) {
    std::fprintf(stderr, "unrecognized schema\n");
    return 1;
  }
  ClusterConfig cluster;
  cluster.machines = std::atoi(GetFlag(flags, "machines", "10").c_str());
  cluster.seconds_per_cost_unit = 0.02;
  const std::string backend_name = GetFlag(flags, "backend", "simulated");
  if (!ParseExecutionBackend(backend_name, &cluster.backend)) {
    std::fprintf(stderr,
                 "invalid cluster config: backend must be \"simulated\" or "
                 "\"threaded\" (got %s)\n",
                 backend_name.c_str());
    return 1;
  }
  if (flags.count("threads")) {
    cluster.execution_threads = std::atoi(flags.at("threads").c_str());
  } else if (cluster.backend == ExecutionBackend::kThreaded) {
    // Default the threaded backend to the hardware, capped at the slot
    // capacity ValidateClusterConfig enforces.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    cluster.execution_threads = std::max(
        1, std::min(hw, std::max(cluster.map_slots(),
                                 cluster.reduce_slots())));
  }
  // Shuffle memory budget: --shuffle-max-mem=MB caps the in-memory map
  // output per job; overflow spills to sorted runs under --spill-dir (or
  // the system temp directory). 0 or absent = unbounded, never spill.
  if (flags.count("shuffle-max-mem")) {
    const long long mb = std::atoll(flags.at("shuffle-max-mem").c_str());
    cluster.shuffle_budget.max_bytes = static_cast<int64_t>(mb) * 1024 * 1024;
  }
  cluster.shuffle_budget.spill_dir = GetFlag(flags, "spill-dir", "");
  cluster.shuffle_budget.fallback_spill_dir =
      GetFlag(flags, "fallback-spill-dir", "");
  // Fail fast on an unusable spill directory (same pattern as --trace-out):
  // a long resolve run must not discover it at the first spill.
  if (!cluster.shuffle_budget.spill_dir.empty() &&
      !ProbeWritableDir(cluster.shuffle_budget.spill_dir)) {
    std::fprintf(stderr,
                 "invalid spill config: spill-dir is not writable (got %s)\n",
                 cluster.shuffle_budget.spill_dir.c_str());
    return 1;
  }
  if (!cluster.shuffle_budget.fallback_spill_dir.empty() &&
      !ProbeWritableDir(cluster.shuffle_budget.fallback_spill_dir)) {
    std::fprintf(
        stderr,
        "invalid spill config: fallback-spill-dir is not writable (got %s)\n",
        cluster.shuffle_budget.fallback_spill_dir.c_str());
    return 1;
  }
  // Any fault knob turns the fault machinery on; ValidateClusterConfig then
  // rejects out-of-range values with a labelled message.
  const bool any_fault_flag =
      flags.count("fault-prob") || flags.count("hang-prob") ||
      flags.count("task-timeout") || flags.count("shuffle-corrupt-prob") ||
      flags.count("poison-records") || flags.count("skip-bad-records") ||
      flags.count("max-attempts") || flags.count("spill-fault-prob") ||
      flags.count("spill-enospc-prob");
  if (any_fault_flag) {
    cluster.fault.enabled = true;
    cluster.fault.seed =
        static_cast<uint64_t>(std::atoll(GetFlag(flags, "fault-seed", "1")
                                             .c_str()));
    if (flags.count("fault-prob")) {
      const double prob = std::atof(flags.at("fault-prob").c_str());
      cluster.fault.map_failure_prob = prob;
      cluster.fault.reduce_failure_prob = prob;
    }
    if (flags.count("hang-prob")) {
      const double prob = std::atof(flags.at("hang-prob").c_str());
      cluster.fault.map_hang_prob = prob;
      cluster.fault.reduce_hang_prob = prob;
    }
    if (flags.count("task-timeout")) {
      cluster.fault.task_timeout_seconds =
          std::atof(flags.at("task-timeout").c_str());
    }
    if (flags.count("shuffle-corrupt-prob")) {
      cluster.fault.shuffle_corrupt_prob =
          std::atof(flags.at("shuffle-corrupt-prob").c_str());
    }
    if (flags.count("max-attempts")) {
      cluster.fault.max_attempts = std::atoi(flags.at("max-attempts").c_str());
    }
    if (flags.count("poison-records")) {
      // Comma-separated global input-record indices.
      const std::string& list = flags.at("poison-records");
      size_t pos = 0;
      while (pos <= list.size()) {
        const size_t comma = std::min(list.find(',', pos), list.size());
        const std::string token = list.substr(pos, comma - pos);
        char* end = nullptr;
        const long long value = std::strtoll(token.c_str(), &end, 10);
        if (token.empty() || end == nullptr || *end != '\0') {
          std::fprintf(stderr,
                       "invalid --poison-records: expected comma-separated "
                       "record indices (got \"%s\")\n",
                       token.c_str());
          return 2;
        }
        cluster.fault.poison_records.push_back(value);
        pos = comma + 1;
      }
    }
    if (flags.count("spill-fault-prob")) {
      // One knob covers the three recoverable storage faults; ENOSPC (which
      // needs a fallback dir to survive) stays on its own flag.
      const double prob = std::atof(flags.at("spill-fault-prob").c_str());
      cluster.fault.spill_write_error_prob = prob;
      cluster.fault.spill_torn_write_prob = prob;
      cluster.fault.spill_corrupt_prob = prob;
    }
    if (flags.count("spill-enospc-prob")) {
      cluster.fault.spill_enospc_prob =
          std::atof(flags.at("spill-enospc-prob").c_str());
    }
    cluster.fault.skip_bad_records = flags.count("skip-bad-records") > 0;
  }
  // Job-supervision flags. Independent of fault injection: a deadline can
  // degrade a fault-free run too.
  if (flags.count("deadline")) {
    cluster.control.deadline_seconds = std::atof(flags.at("deadline").c_str());
  }
  if (flags.count("wall-deadline")) {
    cluster.control.wall_deadline_seconds =
        std::atof(flags.at("wall-deadline").c_str());
  }
  cluster.control.allow_degraded = flags.count("allow-degraded") > 0;
  if (flags.count("fault-budget")) {
    cluster.control.fault_budget =
        std::atoll(flags.at("fault-budget").c_str());
  }
  const std::string cluster_error = ValidateClusterConfig(cluster);
  if (!cluster_error.empty()) {
    std::fprintf(stderr, "invalid cluster config: %s\n",
                 cluster_error.c_str());
    return 1;
  }
  // Cross-process restart flags (progressive resolve only): checkpoints
  // persist under --checkpoint-dir and --resume restores them after a kill.
  const std::string checkpoint_dir = GetFlag(flags, "checkpoint-dir", "");
  if (!checkpoint_dir.empty() && !EnsureWritableDir(checkpoint_dir)) {
    std::fprintf(
        stderr,
        "invalid checkpoint config: checkpoint-dir is not writable (got "
        "%s)\n",
        checkpoint_dir.c_str());
    return 1;
  }
  if ((flags.count("resume") || flags.count("crash-after-checkpoints")) &&
      checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "invalid checkpoint config: --resume and "
                 "--crash-after-checkpoints require --checkpoint-dir\n");
    return 1;
  }
  // --alpha (progressive resolve only) must parse as a number > 0: result
  // chunks close every alpha cost units.
  double alpha = ProgressiveErOptions().alpha;
  if (flags.count("alpha")) {
    const std::string& text = flags.at("alpha");
    char* end = nullptr;
    alpha = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(alpha > 0.0)) {
      std::fprintf(stderr,
                   "invalid alpha config: --alpha must be a number > 0 "
                   "(got %s)\n",
                   text.c_str());
      return 1;
    }
  }
  const std::string trace_out = GetFlag(flags, "trace-out", "");
  const std::string trace_timeline = GetFlag(flags, "trace-timeline", "");
  if (!trace_out.empty() && !ProbeWritable(trace_out)) {
    std::fprintf(stderr,
                 "invalid trace config: trace-out is not writable (got %s)\n",
                 trace_out.c_str());
    return 1;
  }
  if (!trace_timeline.empty() && !ProbeWritable(trace_timeline)) {
    std::fprintf(
        stderr,
        "invalid trace config: trace-timeline is not writable (got %s)\n",
        trace_timeline.c_str());
    return 1;
  }
  TraceRecorder trace;
  if (!trace_out.empty() || !trace_timeline.empty()) {
    cluster.trace = &trace;
  }
  const SortedNeighborMechanism sn;

  ErRunResult result;
  if (flags.count("basic")) {
    // Basic uses the main blocking functions only.
    std::vector<FamilySpec> mains;
    for (int f = 0; f < config.blocking.num_families(); ++f) {
      FamilySpec spec = config.blocking.family(f);
      spec.prefix_lens = {spec.prefix_lens.front()};
      mains.push_back(std::move(spec));
    }
    const BlockingConfig basic_blocking(mains);
    BasicErOptions options;
    options.cluster = cluster;
    options.popcorn_threshold =
        std::atof(GetFlag(flags, "popcorn", "0").c_str());
    const BasicEr basic(basic_blocking, config.match, sn, options);
    result = basic.Run(dataset);
  } else {
    Dataset train;
    GroundTruth train_truth;
    if (!LoadTraining(flags, &train, &train_truth)) return 1;
    const ProbabilityModel prob =
        ProbabilityModel::Train(train, train_truth, config.blocking);
    ProgressiveErOptions options;
    options.cluster = cluster;
    options.checkpoint_recovery = flags.count("checkpoint-recovery") > 0;
    options.alpha = alpha;
    options.checkpoint_dir = checkpoint_dir;
    options.resume = flags.count("resume") > 0;
    options.crash_after_checkpoints =
        std::atoi(GetFlag(flags, "crash-after-checkpoints", "0").c_str());
    options.per_task_cost_budget =
        std::atof(GetFlag(flags, "budget", "0").c_str());
    const std::string scheduler = GetFlag(flags, "scheduler", "ours");
    if (scheduler == "ours") {
      options.scheduler = TreeScheduler::kOurs;
    } else if (scheduler == "nosplit") {
      options.scheduler = TreeScheduler::kNoSplit;
    } else if (scheduler == "lpt") {
      options.scheduler = TreeScheduler::kLpt;
    } else if (scheduler == "blocksplit") {
      options.scheduler = TreeScheduler::kBlockSplit;
    } else if (scheduler == "pairrange") {
      options.scheduler = TreeScheduler::kPairRange;
    } else {
      std::fprintf(stderr,
                   "invalid scheduler config: unknown --scheduler=%s "
                   "(expected ours|nosplit|lpt|blocksplit|pairrange)\n",
                   scheduler.c_str());
      return 1;
    }
    const ProgressiveEr er(config.blocking, config.match, sn, prob, options);
    result = er.Run(dataset);
  }

  if (result.failed) {
    std::fprintf(stderr, "resolution failed: %s\n", result.error.c_str());
    return 1;
  }
  if (!SavePairs(RequireFlag(flags, "out"), result.duplicates)) {
    std::fprintf(stderr, "failed to write pairs\n");
    return 1;
  }
  if (!trace_out.empty()) {
    if (!trace.WriteChromeJson(trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace written to %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  if (!trace_timeline.empty()) {
    std::ofstream timeline(trace_timeline, std::ios::binary | std::ios::trunc);
    timeline << trace.ToSlotTimeline();
    if (!timeline) {
      std::fprintf(stderr, "failed to write timeline to %s\n",
                   trace_timeline.c_str());
      return 1;
    }
    std::printf("timeline written to %s\n", trace_timeline.c_str());
  }
  if (!result.quarantined_ids.empty()) {
    std::printf("%zu poison record(s) quarantined by skip-bad-records:",
                result.quarantined_ids.size());
    for (EntityId id : result.quarantined_ids) {
      std::printf(" %d", static_cast<int>(id));
    }
    std::printf("\n");
  }
  // The two clocks stay separate: simulated seconds are the paper's
  // deterministic results clock, wall seconds the measured run time.
  std::printf("resolved %lld comparisons in %.0f simulated seconds "
              "(%.3f wall seconds, %s backend); "
              "%zu duplicate pairs written\n",
              static_cast<long long>(result.comparisons), result.total_time,
              result.wall_seconds, ToString(cluster.backend),
              result.duplicates.size());
  if (result.completeness.degraded) {
    // Degraded success: the pairs were written but coverage is partial.
    // Exit 2 so scripts can tell it from a hard failure (1).
    std::printf("%s\n", result.completeness.ToString().c_str());
    return 2;
  }
  return 0;
}

// Prints the generated progressive schedule for inspection.
int CmdExplain(const std::map<std::string, std::string>& flags) {
  Dataset dataset;
  if (!LoadData(flags, &dataset)) return 1;
  PipelineConfig config;
  if (!ConfigForSchema(dataset, &config)) {
    std::fprintf(stderr, "unrecognized schema\n");
    return 1;
  }
  Dataset train;
  GroundTruth train_truth;
  if (!LoadTraining(flags, &train, &train_truth)) return 1;
  const ProbabilityModel prob =
      ProbabilityModel::Train(train, train_truth, config.blocking);
  const SortedNeighborMechanism sn;
  ProgressiveErOptions options;
  options.cluster.machines = std::atoi(GetFlag(flags, "machines", "10").c_str());
  const std::string cluster_error = ValidateClusterConfig(options.cluster);
  if (!cluster_error.empty()) {
    std::fprintf(stderr, "invalid cluster config: %s\n",
                 cluster_error.c_str());
    return 1;
  }
  const ProgressiveEr er(config.blocking, config.match, sn, prob, options);
  const ProgressiveEr::Preprocessed pre = er.Preprocess(dataset);
  if (pre.failed) {
    std::fprintf(stderr, "preprocessing failed: %s\n", pre.error.c_str());
    return 1;
  }
  std::printf("%s", DescribeSchedule(pre.schedule, pre.forests,
                                     std::atoi(GetFlag(flags, "blocks", "5")
                                                   .c_str()))
                        .c_str());
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  GroundTruth truth;
  std::string error;
  if (!GroundTruth::LoadTsv(RequireFlag(flags, "truth"), &truth, &error)) {
    std::fprintf(stderr, "failed to read --truth: %s\n", error.c_str());
    return 1;
  }
  std::vector<PairKey> pairs;
  if (!LoadPairs(RequireFlag(flags, "pairs"), truth.num_entities(), &pairs,
                 &error)) {
    std::fprintf(stderr, "failed to read --pairs: %s\n", error.c_str());
    return 1;
  }
  const PairMetrics pair_metrics = EvaluatePairs(pairs, truth);
  std::printf("pairs:      precision %.4f  recall %.4f  f1 %.4f\n",
              pair_metrics.precision, pair_metrics.recall, pair_metrics.f1);
  const std::vector<int32_t> clusters =
      TransitiveClosure(truth.num_entities(), pairs);
  const PairMetrics cluster_metrics = EvaluateClustering(clusters, truth);
  std::printf("clustered:  precision %.4f  recall %.4f  f1 %.4f\n",
              cluster_metrics.precision, cluster_metrics.recall,
              cluster_metrics.f1);
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: progres_cli <generate|stats|resolve|explain|evaluate> "
      "[--flag=value ...]\n"
      "\n"
      "resolve execution-backend flags:\n"
      "  --backend=B               simulated (serial, deterministic "
      "reference; default)\n"
      "                            or threaded (concurrent on a thread "
      "pool, measures wall time)\n"
      "  --threads=N               threaded-backend worker threads "
      "(default: hardware concurrency,\n"
      "                            capped at the cluster's slot capacity)\n"
      "\n"
      "resolve shuffle-budget flags:\n"
      "  --shuffle-max-mem=MB      cap on buffered map output per job; "
      "overflow spills to\n"
      "                            sorted on-disk runs (default: unbounded, "
      "never spill)\n"
      "  --spill-dir=DIR           directory for spill runs (default: "
      "system temp dir)\n"
      "  --fallback-spill-dir=DIR  secondary spill directory the job fails "
      "over to when the\n"
      "                            primary becomes unusable (ENOSPC, "
      "exhausted retries)\n"
      "\n"
      "resolve fault-injection flags (any of them enables fault "
      "simulation):\n"
      "  --fault-prob=P            per-attempt crash probability in [0, 1]\n"
      "  --fault-seed=S            seed of all hashed fault decisions\n"
      "  --max-attempts=N          attempts per task before the job fails "
      "(default 4)\n"
      "  --hang-prob=P             per-attempt hang probability in [0, 1]\n"
      "  --task-timeout=T          heartbeat timeout in simulated seconds "
      "(default 600)\n"
      "  --shuffle-corrupt-prob=P  per-fetch partition corruption "
      "probability in [0, 1]\n"
      "  --poison-records=I,J,...  input records that crash map attempts\n"
      "  --skip-bad-records        quarantine poison records instead of "
      "failing the job\n"
      "  --checkpoint-recovery     resume reduce retries from "
      "alpha-boundary checkpoints\n"
      "  --spill-fault-prob=P      per-run spill-write fault probability "
      "in [0, 1] (transient\n"
      "                            write errors, torn writes, bit-flip "
      "corruption)\n"
      "  --spill-enospc-prob=P     per-task probability the primary spill "
      "dir is full in [0, 1]\n"
      "\n"
      "resolve cross-process restart flags (progressive resolve only):\n"
      "  --alpha=COST              incremental-output interval in cost "
      "units (default 5000);\n"
      "                            also the checkpoint boundary spacing\n"
      "  --checkpoint-dir=DIR      persist reduce-task checkpoints here "
      "(CRC-framed files)\n"
      "  --resume                  restore persisted checkpoints from "
      "--checkpoint-dir and\n"
      "                            replay only past them (byte-identical "
      "output)\n"
      "  --crash-after-checkpoints=N  kill the process (exit 17) after N "
      "persisted saves —\n"
      "                            deterministic mid-run crash for restart "
      "testing\n"
      "\n"
      "resolve job-supervision flags (degraded success exits with code 2 "
      "and prints a\n"
      "completeness report; hard failures stay exit code 1):\n"
      "  --deadline=T              simulated-seconds job deadline; "
      "deterministic cut of\n"
      "                            reduce output at checkpointed "
      "alpha boundaries\n"
      "  --wall-deadline=T         wall-clock safety valve checked at the "
      "map/reduce barrier\n"
      "  --allow-degraded          quarantine permanently-failing tasks and "
      "finalize\n"
      "                            best-effort instead of failing the job\n"
      "  --fault-budget=N          job-wide retry budget; once spent, the "
      "budget breaker\n"
      "                            trips and later tasks get no retries "
      "(0 = unlimited)\n");
  return 2;
}

}  // namespace
}  // namespace progres

int main(int argc, char** argv) {
  using namespace progres;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "resolve") return CmdResolve(flags);
  if (command == "explain") return CmdExplain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  return Usage();
}
