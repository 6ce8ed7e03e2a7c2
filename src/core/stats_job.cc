#include "core/stats_job.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/er_driver.h"
#include "mapreduce/pipeline.h"
#include "mapreduce/serde.h"

namespace progres {

namespace {

// Shuffle value of the statistics job: the entity's blocking key chain for
// one family plus its dominating-root-key tuple.
struct StatsValue {
  std::vector<std::string> level_keys;  // keys at levels 1..L
  std::string tuple;                    // dominating families' root keys
};

// One per-block statistics record produced by the reduce phase.
struct StatsRecord {
  int family = 0;
  int level = 1;
  std::string path;
  std::string parent_path;  // empty for roots
  int64_t size = 0;
  int64_t uncov = 0;
};

constexpr double kMapEmitCost = 0.05;
constexpr double kReduceValueCost = 0.05;

}  // namespace

// Wire form of StatsValue: a counted sequence of level keys, then the
// tuple — each length-prefixed.
template <>
struct KvCodec<StatsValue> {
  static void Encode(const StatsValue& value, std::string* out) {
    PutVarint64(value.level_keys.size(), out);
    for (const std::string& level_key : value.level_keys) {
      PutString(level_key, out);
    }
    PutString(value.tuple, out);
  }
  static bool Decode(std::string_view in, size_t* offset, StatsValue* value) {
    uint64_t count = 0;
    if (!GetVarint64(in, offset, &count)) return false;
    // Each key costs at least its one-byte length prefix, so a count past
    // the remaining bytes is corruption — reject before reserving.
    if (count > in.size() - *offset) return false;
    value->level_keys.clear();
    value->level_keys.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      std::string level_key;
      if (!GetString(in, offset, &level_key)) return false;
      value->level_keys.push_back(std::move(level_key));
    }
    return GetString(in, offset, &value->tuple);
  }
};

StatsJobOutput RunStatisticsJob(const Dataset& dataset,
                                const BlockingConfig& config,
                                const ClusterConfig& cluster,
                                int num_map_tasks, int num_reduce_tasks,
                                double submit_time) {
  StatsJobOutput output;

  // Preprocessing is all-or-nothing: the degradation budget applies to
  // resolution output, not the statistics pre-pass (a partial forest would
  // silently skew every downstream schedule), so the pre-pass runs with job
  // supervision stripped and its failures stay hard failures.
  ClusterConfig stats_cluster = cluster;
  stats_cluster.control = JobControl{};

  // Per-reduce-task record sinks (each task writes only its own slot). A
  // failed reduce attempt may have flushed records into its sink; the
  // registry's task-state hook drops them so the retry starts clean.
  TaskStateRegistry<std::vector<StatsRecord>> sinks(num_reduce_tasks);

  // This inner pipeline deliberately does not register with the trace
  // recorder: when the progressive driver calls in here its own pipeline
  // already opened a "statistics job" process, so the job's spans land
  // there via the recorder's current pid (a standalone RunStatisticsJob
  // records under the default pid 0).
  Pipeline pipe;
  pipe.AddStage("statistics job", [&](double stage_submit) {
    using Job = MapReduceJob<Entity, std::string, StatsValue>;
    Job job(num_map_tasks, num_reduce_tasks);
    job.set_map_cost_per_record(0.1);
    sinks.Install(&job);

    const auto map_fn = [&config](const Entity& e, Job::MapContext* ctx) {
      // Each (family, level) key is built once: family f's tuple is the
      // dominating families' root keys, grown by one family per step.
      std::string tuple;
      for (int f = 0; f < config.num_families(); ++f) {
        StatsValue value;
        const int levels = config.family(f).levels();
        value.level_keys.reserve(static_cast<size_t>(levels));
        for (int level = 1; level <= levels; ++level) {
          value.level_keys.push_back(config.Key(f, level, e));
        }
        value.tuple = tuple;
        if (f > 0) tuple.push_back(kTupleSeparator);
        tuple += value.level_keys.front();
        std::string key;
        key.push_back(static_cast<char>('0' + f));
        key.push_back(kPathSeparator);
        key += value.level_keys.front();
        ctx->clock().Charge(kMapEmitCost);
        ctx->Emit(std::move(key), std::move(value));
      }
    };

    const auto reduce_fn = [&sinks](const std::string& key,
                                    std::vector<StatsValue>* values,
                                    Job::ReduceContext* ctx) {
      const int family = key.front() - '0';
      // Reconstruct the tree of this root block: per-path sizes, levels,
      // parents, and joint overlap-tuple counts.
      struct NodeAgg {
        int level = 1;
        std::string parent_path;
        int64_t size = 0;
        std::unordered_map<std::string, int64_t> joint;
      };
      std::unordered_map<std::string, NodeAgg> nodes;
      for (const StatsValue& value : *values) {
        ctx->clock().Charge(kReduceValueCost);
        std::string path;
        std::string parent_path;
        for (size_t level = 1; level <= value.level_keys.size(); ++level) {
          if (level > 1) path.push_back(kPathSeparator);
          path += value.level_keys[level - 1];
          NodeAgg& agg = nodes[path];
          agg.level = static_cast<int>(level);
          agg.parent_path = parent_path;
          ++agg.size;
          if (family > 0) ++agg.joint[value.tuple];
          parent_path = path;
        }
      }
      std::vector<StatsRecord>& sink = sinks.at(ctx->task_id());
      for (auto& [path, agg] : nodes) {
        StatsRecord record;
        record.family = family;
        record.level = agg.level;
        record.path = path;
        record.parent_path = std::move(agg.parent_path);
        record.size = agg.size;
        record.uncov = UncoveredFromJointCounts(agg.joint, family);
        ctx->clock().Charge(kReduceValueCost);
        sink.push_back(std::move(record));
      }
    };

    Job::Result run = job.Run(dataset.entities(), map_fn, reduce_fn,
                              stats_cluster, stage_submit);
    output.timing = run.timing;
    return StageResultFromJob(std::move(run), "statistics job");
  });

  const PipelineResult pipe_result = pipe.Run(submit_time);
  output.counters = pipe_result.counters;
  if (pipe_result.failed) {
    output.failed = true;
    output.error = pipe_result.error;
    return output;
  }

  // ---- Assemble forests from the emitted records ----
  std::vector<StatsRecord> records;
  for (auto& sink : sinks.states()) {
    for (auto& record : sink) records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const StatsRecord& a, const StatsRecord& b) {
              if (a.family != b.family) return a.family < b.family;
              if (a.level != b.level) return a.level < b.level;
              return a.path < b.path;
            });

  output.forests.resize(static_cast<size_t>(config.num_families()));
  for (int f = 0; f < config.num_families(); ++f) {
    output.forests[static_cast<size_t>(f)].family = f;
  }
  for (const StatsRecord& record : records) {
    Forest& forest = output.forests[static_cast<size_t>(record.family)];
    const int index = static_cast<int>(forest.nodes.size());
    forest.by_path.emplace(record.path, index);
    BlockNode node;
    node.id = {record.family, record.level, record.path};
    node.size = record.size;
    node.uncov = record.uncov;
    if (record.level == 1) {
      node.parent = -1;
      forest.roots.push_back(index);
    } else {
      node.parent = forest.by_path.at(record.parent_path);
      forest.nodes[static_cast<size_t>(node.parent)].children.push_back(index);
    }
    forest.nodes.push_back(std::move(node));
  }
  return output;
}

}  // namespace progres
