#include "core/progressive_er.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/er_driver.h"
#include "core/stats_job.h"
#include "mapreduce/job.h"
#include "mapreduce/pipeline.h"
#include "mapreduce/serde.h"
#include "model/pair_set.h"
#include "redundancy/dominance.h"

namespace progres {

namespace {

constexpr double kMapEmitCost = 0.05;
// Cost of checking one buffered entity's membership in a block during
// per-tree regrouping.
constexpr double kRegroupCostPerEntity = 0.01;

// Shuffle value of the resolution job: an entity reference plus its
// dominance list for the target block or tree (Sec. III-B).
struct ResolveValue {
  EntityId id = -1;
  DominanceList list;
};

// Wire size of one shuffled (sequence value, entity + dominance list) pair
// under the serde encoding — the `shuffle.bytes` counter.
int64_t WireSize(int64_t sq, const ResolveValue& value) {
  int64_t bytes = VarintSize(static_cast<uint64_t>(sq));
  bytes += VarintSize(static_cast<uint64_t>(value.id));
  bytes += VarintSize(value.list.values.size());
  for (int32_t v : value.list.values) {
    bytes += VarintSize(ZigZagEncode(v));
  }
  return bytes;
}

// Mutable per-reduce-task state beyond the shared accumulator: the
// incremental bottom-up resolution's resolved-pair memory and the per-tree
// emission buffers.
struct ResolveTaskState : ErTaskState {
  // Already-resolved pairs per tree (keyed by the tree's dominance value):
  // the incremental bottom-up resolution must not repeat child work.
  std::unordered_map<int32_t, PairSet> resolved;
  // Per-tree emission: buffered tree members keyed by tree dominance value,
  // and the position of the next unresolved unit in the task's schedule.
  std::unordered_map<int32_t, std::vector<ResolveValue>> tree_values;
  size_t next_unit = 0;
};

}  // namespace

// Wire form of ResolveValue: the entity id, then the dominance list as a
// counted sequence of ZigZag varints — the layout WireSize describes.
template <>
struct KvCodec<ResolveValue> {
  static void Encode(const ResolveValue& value, std::string* out) {
    PutVarint64(static_cast<uint64_t>(value.id), out);
    PutVarint64(value.list.values.size(), out);
    for (const int32_t v : value.list.values) {
      PutVarint64(ZigZagEncode(v), out);
    }
  }
  static bool Decode(std::string_view in, size_t* offset,
                     ResolveValue* value) {
    uint64_t id = 0;
    if (!GetVarint64(in, offset, &id)) return false;
    value->id = static_cast<EntityId>(id);
    uint64_t count = 0;
    if (!GetVarint64(in, offset, &count)) return false;
    // Each entry costs at least one byte; a larger count is corruption.
    if (count > in.size() - *offset) return false;
    value->list.values.clear();
    value->list.values.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t raw = 0;
      if (!GetVarint64(in, offset, &raw)) return false;
      value->list.values.push_back(
          static_cast<int32_t>(ZigZagDecode(raw)));
    }
    return true;
  }
};

namespace {

// Canonical wire form of a ResolveTaskState snapshot, used by persisted
// checkpoints (CheckpointStore::ConfigurePersistence). Deterministic field
// order — unordered maps are serialized sorted by key, resolved-pair sets
// sorted by value — so equal states encode byte-identically, and a decode
// on the restarted process rebuilds exactly the state the dead process
// snapshotted. Doubles travel as raw IEEE bits (varint-packed) for an
// exact round trip.
std::string EncodeResolveTaskState(const ResolveTaskState& state) {
  std::string out;
  PutVarint64(state.raw_events.size(), &out);
  for (const auto& [cost, pair] : state.raw_events) {
    uint64_t bits = 0;
    std::memcpy(&bits, &cost, sizeof(bits));
    PutVarint64(bits, &out);
    PutVarint64(pair, &out);
  }
  PutVarint64(static_cast<uint64_t>(state.duplicates), &out);
  PutVarint64(static_cast<uint64_t>(state.distinct), &out);
  PutVarint64(static_cast<uint64_t>(state.skipped), &out);

  std::vector<int32_t> keys;
  keys.reserve(state.resolved.size());
  for (const auto& [key, pairs] : state.resolved) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  PutVarint64(keys.size(), &out);
  for (const int32_t key : keys) {
    PutVarint64(ZigZagEncode(key), &out);
    const PairSet& set = state.resolved.at(key);
    std::vector<PairKey> pairs;
    pairs.reserve(set.size());
    set.ForEach([&pairs](PairKey pair) { pairs.push_back(pair); });
    std::sort(pairs.begin(), pairs.end());
    PutVarint64(pairs.size(), &out);
    for (const PairKey pair : pairs) PutVarint64(pair, &out);
  }

  keys.clear();
  for (const auto& [key, values] : state.tree_values) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  PutVarint64(keys.size(), &out);
  for (const int32_t key : keys) {
    PutVarint64(ZigZagEncode(key), &out);
    const auto& values = state.tree_values.at(key);
    PutVarint64(values.size(), &out);
    for (const ResolveValue& value : values) {
      KvCodec<ResolveValue>::Encode(value, &out);
    }
  }
  PutVarint64(state.next_unit, &out);
  return out;
}

bool DecodeResolveTaskState(std::string_view in, ResolveTaskState* state) {
  size_t offset = 0;
  const auto remaining = [&] { return in.size() - offset; };
  uint64_t count = 0;
  if (!GetVarint64(in, &offset, &count) || count > remaining()) return false;
  state->raw_events.clear();
  state->raw_events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t bits = 0;
    uint64_t pair = 0;
    if (!GetVarint64(in, &offset, &bits) ||
        !GetVarint64(in, &offset, &pair)) {
      return false;
    }
    double cost = 0.0;
    std::memcpy(&cost, &bits, sizeof(cost));
    state->raw_events.emplace_back(cost, pair);
  }
  uint64_t duplicates = 0;
  uint64_t distinct = 0;
  uint64_t skipped = 0;
  if (!GetVarint64(in, &offset, &duplicates) ||
      !GetVarint64(in, &offset, &distinct) ||
      !GetVarint64(in, &offset, &skipped)) {
    return false;
  }
  state->duplicates = static_cast<int64_t>(duplicates);
  state->distinct = static_cast<int64_t>(distinct);
  state->skipped = static_cast<int64_t>(skipped);

  if (!GetVarint64(in, &offset, &count) || count > remaining()) return false;
  state->resolved.clear();
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    uint64_t pairs = 0;
    if (!GetVarint64(in, &offset, &raw) ||
        !GetVarint64(in, &offset, &pairs) || pairs > remaining()) {
      return false;
    }
    auto& set =
        state->resolved[static_cast<int32_t>(ZigZagDecode(raw))];
    set.reserve(pairs);
    for (uint64_t p = 0; p < pairs; ++p) {
      uint64_t pair = 0;
      if (!GetVarint64(in, &offset, &pair)) return false;
      set.insert(pair);
    }
  }

  if (!GetVarint64(in, &offset, &count) || count > remaining()) return false;
  state->tree_values.clear();
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    uint64_t values = 0;
    if (!GetVarint64(in, &offset, &raw) ||
        !GetVarint64(in, &offset, &values) || values > remaining()) {
      return false;
    }
    auto& group =
        state->tree_values[static_cast<int32_t>(ZigZagDecode(raw))];
    group.reserve(values);
    for (uint64_t v = 0; v < values; ++v) {
      ResolveValue value;
      if (!KvCodec<ResolveValue>::Decode(in, &offset, &value)) return false;
      group.push_back(std::move(value));
    }
  }
  uint64_t next_unit = 0;
  if (!GetVarint64(in, &offset, &next_unit)) return false;
  state->next_unit = static_cast<size_t>(next_unit);
  return offset == in.size();
}

}  // namespace

ProgressiveEr::ProgressiveEr(const BlockingConfig& blocking,
                             const MatchFunction& match,
                             const ProgressiveMechanism& mechanism,
                             const ProbabilityModel& prob,
                             ProgressiveErOptions options)
    : blocking_(blocking),
      match_(match),
      mechanism_(mechanism),
      prob_(prob),
      options_(std::move(options)) {}

void ProgressiveEr::AddPreprocessStages(const Dataset& dataset,
                                        Pipeline* pipe,
                                        Preprocessed* pre) const {
  const int map_tasks = options_.num_map_tasks > 0
                            ? options_.num_map_tasks
                            : options_.cluster.map_slots();
  const int reduce_tasks = options_.num_reduce_tasks > 0
                               ? options_.num_reduce_tasks
                               : options_.cluster.reduce_slots();

  // The raw forests cross from the stats stage to the schedule stage; a
  // shared buffer keeps the stage closures self-contained.
  auto stats_forests = std::make_shared<std::vector<Forest>>();

  // ---- First MR job: progressive blocking + statistics ----
  pipe->AddStage("statistics job", [this, &dataset, stats_forests, map_tasks,
                                    reduce_tasks](double submit_time) {
    StatsJobOutput stats =
        RunStatisticsJob(dataset, blocking_, options_.cluster, map_tasks,
                         reduce_tasks, submit_time);
    StageResult stage;
    stage.failed = stats.failed;
    stage.error = stats.error;  // already labelled "statistics job: ..."
    stage.end_time = stats.timing.end;
    stage.counters = std::move(stats.counters);
    stage.timing = std::move(stats.timing);
    *stats_forests = std::move(stats.forests);
    return stage;
  });

  // ---- Schedule generation: a computation stage between the two jobs ----
  pipe->AddComputation("schedule generation", [this, &dataset, stats_forests,
                                               pre, reduce_tasks](
                                                  double /*submit_time*/) {
    pre->forests = AnnotateForests(*stats_forests, options_.estimate, prob_,
                                   dataset.size());
    ScheduleParams params;
    params.num_reduce_tasks = reduce_tasks;
    params.cost_vector = options_.cost_vector;
    params.weights = options_.weights;
    params.batch_size = options_.batch_size;
    params.scheduler = options_.scheduler;
    params.per_task_budget = options_.per_task_cost_budget;
    pre->schedule = GenerateSchedule(&pre->forests, params);

    int64_t live_blocks = 0;
    for (const AnnotatedForest& forest : pre->forests) {
      for (int n = 0; n < forest.num_blocks(); ++n) {
        if (!forest.block(n).eliminated) ++live_blocks;
      }
    }
    return options_.schedule_cost_per_block *
           static_cast<double>(live_blocks) *
           options_.cluster.seconds_per_cost_unit;
  });
}

ProgressiveEr::Preprocessed ProgressiveEr::Preprocess(
    const Dataset& dataset) const {
  Preprocessed pre;
  Pipeline pipe;
  pipe.set_trace(options_.cluster.trace);
  AddPreprocessStages(dataset, &pipe, &pre);
  const PipelineResult run = pipe.Run(/*submit_time=*/0.0);
  pre.end_time = run.end;
  if (run.failed) {
    pre.failed = true;
    pre.error = run.error;
  }
  return pre;
}

ErRunResult ProgressiveEr::Run(const Dataset& dataset) const {
  Preprocessed pre;
  ErRunResult result;
  if (RejectInvalidAlpha(options_.alpha, &result)) return result;

  Pipeline pipe;
  pipe.set_trace(options_.cluster.trace);
  AddPreprocessStages(dataset, &pipe, &pre);

  // ---- Second MR job: progressive resolution ----
  pipe.AddStage("resolution job", [&, this](double submit_time) {
    const std::vector<AnnotatedForest>& forests = pre.forests;
    const ProgressiveSchedule& schedule = pre.schedule;
    if (!schedule.error.empty()) {
      StageResult stage;
      stage.failed = true;
      stage.error = "schedule generation: " + schedule.error;
      stage.end_time = submit_time;
      return stage;
    }
    const int map_tasks = options_.num_map_tasks > 0
                              ? options_.num_map_tasks
                              : options_.cluster.map_slots();
    const int reduce_tasks = schedule.num_reduce_tasks;
    const int num_families = blocking_.num_families();
    const bool redundancy = options_.redundancy_elimination;
    // Under the pair-level schedulers a tree's units may sit on different
    // reduce tasks, which per-tree regrouping cannot express — they force
    // per-block emission (documented fallback).
    const bool per_tree = options_.map_emission == MapEmission::kPerTree &&
                          !schedule.pair_level;

    // The tree holding `ref`, as its root's BlockRefKey, and that tree's
    // dominance value.
    const auto tree_of = [&](const BlockRef& ref) {
      return BlockRefKey(
          ref.family,
          forests[static_cast<size_t>(ref.family)].FindTreeRoot(ref.node));
    };
    const auto tree_dom_of = [&](const BlockRef& ref) {
      return schedule.dominance.at(tree_of(ref));
    };

    // Per-tree emission: the shuffle key of a tree is the SQ of its first
    // unit. Trees whose units were all cut by the budget have no key and
    // are never shipped.
    std::unordered_map<uint64_t, int64_t> tree_first_sq;
    if (per_tree) {
      for (const auto& [key, sqs] : schedule.unit_sequences) {
        const auto [it, inserted] = tree_first_sq.emplace(
            tree_of(schedule.UnitOf(sqs.front()).ref), sqs.front());
        if (!inserted) it->second = std::min(it->second, sqs.front());
      }
    }

    // Where the map's block walks can still emit: per family, the blocks
    // with a scheduled unit at or below them — each unit's block and its
    // ancestors. A walk stops at the first block not marked here, exactly
    // in both emission modes: nothing further down its chain has a unit,
    // and an entity reaches a tree's units through the tree's root, which
    // is marked whenever they exist.
    std::vector<std::vector<char>> toward_units(
        static_cast<size_t>(num_families));
    for (int f = 0; f < num_families; ++f) {
      toward_units[static_cast<size_t>(f)].assign(
          static_cast<size_t>(forests[static_cast<size_t>(f)].num_blocks()),
          0);
    }
    for (const std::vector<MatchTask>& units : schedule.task_units) {
      for (const MatchTask& unit : units) {
        const AnnotatedForest& forest =
            forests[static_cast<size_t>(unit.ref.family)];
        std::vector<char>& marked =
            toward_units[static_cast<size_t>(unit.ref.family)];
        for (int n = unit.ref.node; n >= 0 && !marked[static_cast<size_t>(n)];
             n = forest.block(n).parent) {
          marked[static_cast<size_t>(n)] = 1;
        }
      }
    }

    using Job = MapReduceJob<Entity, int64_t, ResolveValue>;
    Job job(map_tasks, reduce_tasks);
    job.set_map_cost_per_record(0.1);
    job.set_partitioner([range = schedule.range_per_task](const int64_t& sq,
                                                          int /*r*/) {
      return static_cast<int>(sq / range);
    });
    // The resolution map runs the match-adjacent user code a poison record
    // crashes; the statistics pre-pass never does, so only this job engages
    // the skip-bad-records machinery.
    job.set_poison_faults(true);

    const auto map_fn = [&, this](const Entity& e, Job::MapContext* ctx) {
      // e's block path in the family being walked, extended one level at a
      // time; one buffer per thread, so no block lookup allocates.
      thread_local std::string path;
      for (int f = 0; f < num_families; ++f) {
        const AnnotatedForest& forest = forests[static_cast<size_t>(f)];
        const std::vector<char>& marked = toward_units[static_cast<size_t>(f)];
        const int levels = blocking_.family(f).levels();
        int previous_node = -1;
        int previous_tree = -1;
        path.clear();
        for (int level = 1; level <= levels; ++level) {
          if (level > 1) path.push_back(kPathSeparator);
          blocking_.AppendKey(f, level, e, &path);
          const int node = forest.Find(path);
          // No live block, or no unit from here down.
          if (node < 0 || !marked[static_cast<size_t>(node)]) break;
          if (node == previous_node) continue;  // equal-size collapse redirect
          previous_node = node;
          // The SQs this block ships e to. Per-tree: one emission per
          // (entity, tree), when the chain enters a new tree; the dominance
          // list is identical for every block of the tree along e's chain.
          // Per-block: every match unit of the block receives the full
          // membership, since sub-block restrictions are over positions in
          // the full block's sorted order (the extra shuffle volume is the
          // price of pair-level balancing).
          std::span<const int64_t> sqs;
          if (per_tree) {
            const int tree = forest.FindTreeRoot(node);
            if (tree == previous_tree) continue;
            previous_tree = tree;
            const auto it = tree_first_sq.find(BlockRefKey(f, tree));
            if (it == tree_first_sq.end()) continue;  // budget-cut tree
            sqs = {&it->second, 1};
          } else {
            const auto it =
                schedule.unit_sequences.find(BlockRefKey(f, node));
            if (it == schedule.unit_sequences.end()) continue;  // budget cut
            sqs = it->second;
          }
          ResolveValue value;
          value.id = e.id;
          if (redundancy) {
            value.list =
                BuildDominanceList(e, f, node, blocking_, forests, schedule);
          }
          for (size_t k = 0; k < sqs.size(); ++k) {
            ctx->clock().Charge(kMapEmitCost);
            ctx->counters().Increment("map.emitted_pairs");
            ctx->counters().Increment("shuffle.bytes", WireSize(sqs[k], value));
            ctx->Emit(sqs[k], value);
          }
        }
      }
    };

    // A failed reduce attempt leaves partial events, resolved-pair sets and
    // buffered tree groups behind. The registry's task-state hook resets
    // the state so the retry replays the task from scratch; with
    // checkpoint_recovery the job instead snapshots the state at each
    // alpha-emission boundary and the retry resumes from the latest
    // snapshot.
    TaskStateRegistry<ResolveTaskState> states(reduce_tasks);
    CheckpointStore checkpoints;
    const bool persist = !options_.checkpoint_dir.empty();
    // Job supervision needs the snapshots too: a deadline cut or
    // quarantine restores the latest alpha-boundary state.
    if (options_.checkpoint_recovery || persist ||
        options_.cluster.control.active()) {
      states.InstallCheckpointRecovery(&job, options_.alpha, &checkpoints,
                                       EncodeResolveTaskState,
                                       DecodeResolveTaskState);
      if (persist) {
        checkpoints.ConfigurePersistence(options_.checkpoint_dir,
                                         "resolution", options_.resume,
                                         options_.crash_after_checkpoints);
      }
    } else {
      states.Install(&job);
    }

    // Resolves one scheduled unit given its block's members (and their
    // dominance lists); shared by both emission modes.
    const auto resolve_unit =
        [&, this](const MatchTask& unit,
                  const std::vector<const Entity*>& members,
                  const std::unordered_map<EntityId, const DominanceList*>&
                      lists,
                  Job::ReduceContext* ctx) {
          if (options_.per_task_cost_budget > 0.0 &&
              ctx->clock().units() >= options_.per_task_cost_budget) {
            ctx->counters().Increment("reduce.blocks_skipped_budget");
            return;
          }
          const BlockRef& ref = unit.ref;
          const AnnotatedBlock& block =
              forests[static_cast<size_t>(ref.family)].block(ref.node);
          ResolveTaskState& state = states.at(ctx->task_id());

          ResolveRequest request;
          request.block = &members;
          request.sort_attribute = blocking_.SortAttribute(ref.family);
          request.match = &match_;
          request.options.window = block.window;
          request.options.termination_distinct =
              block.tree_root ? -1 : block.th;
          if (unit.kind == MatchTask::Kind::kSub) {
            request.options.sub_a_lo = unit.a_lo;
            request.options.sub_a_hi = unit.a_hi;
            request.options.sub_b_lo = unit.b_lo;
            request.options.sub_b_hi = unit.b_hi;
          } else if (unit.kind == MatchTask::Kind::kSlice) {
            request.options.slice_begin = unit.begin;
            request.options.slice_end = unit.end;
          }
          request.clock = &ctx->clock();

          std::function<bool(const Entity&, const Entity&)> predicate;
          if (redundancy) {
            predicate = [&](const Entity& a, const Entity& b) {
              return ShouldResolve(*lists.at(a.id), *lists.at(b.id),
                                   ref.family + 1, num_families);
            };
            request.should_resolve = &predicate;
          }

          request.resolved = &state.resolved[tree_dom_of(ref)];

          request.on_duplicate = EventSink(&state, &ctx->clock());

          const ResolveOutcome outcome = mechanism_.Resolve(request);
          RecordResolveOutcome(outcome, &state, &ctx->counters());
        };

    // Per-tree mode: resolves every pending unit of the task up to position
    // `last` (their trees are guaranteed buffered).
    const auto drain_pending = [&, this](size_t last,
                                         Job::ReduceContext* ctx) {
      ResolveTaskState& state = states.at(ctx->task_id());
      const auto& units =
          schedule.task_units[static_cast<size_t>(ctx->task_id())];
      std::string path;  // a member's path, reused across members and units
      while (state.next_unit < units.size() && state.next_unit <= last) {
        const MatchTask& unit = units[state.next_unit++];
        const AnnotatedBlock& block =
            forests[static_cast<size_t>(unit.ref.family)].block(
                unit.ref.node);
        const auto buffered = state.tree_values.find(tree_dom_of(unit.ref));
        if (buffered == state.tree_values.end()) continue;  // empty tree group

        // Regroup: select the tree members belonging to this block.
        std::vector<const Entity*> members;
        std::unordered_map<EntityId, const DominanceList*> lists;
        for (const ResolveValue& value : buffered->second) {
          ctx->clock().Charge(kRegroupCostPerEntity);
          const Entity& e = dataset.entity(value.id);
          path.clear();
          for (int level = 1; level <= block.id.level; ++level) {
            if (level > 1) path.push_back(kPathSeparator);
            blocking_.AppendKey(unit.ref.family, level, e, &path);
          }
          if (path != block.id.path) continue;
          members.push_back(&e);
          lists.emplace(value.id, &value.list);
        }
        resolve_unit(unit, members, lists, ctx);
      }
    };

    const auto reduce_fn = [&](const int64_t& sq,
                               std::vector<ResolveValue>* values,
                               Job::ReduceContext* ctx) {
      const MatchTask& unit = schedule.UnitOf(sq);
      if (per_tree) {
        states.at(ctx->task_id()).tree_values[tree_dom_of(unit.ref)] =
            std::move(*values);
        drain_pending(static_cast<size_t>(sq % schedule.range_per_task), ctx);
        return;
      }
      std::vector<const Entity*> members;
      members.reserve(values->size());
      std::unordered_map<EntityId, const DominanceList*> lists;
      lists.reserve(values->size());
      for (const ResolveValue& value : *values) {
        members.push_back(&dataset.entity(value.id));
        lists.emplace(value.id, &value.list);
      }
      resolve_unit(unit, members, lists, ctx);
    };

    if (per_tree) {
      job.set_reduce_cleanup([&](Job::ReduceContext* ctx) {
        // Every tree group has arrived; flush the remaining units.
        drain_pending(std::numeric_limits<size_t>::max(), ctx);
      });
    }

    Job::Result run = job.Run(dataset.entities(), map_fn, reduce_fn,
                              options_.cluster, submit_time);
    SurfaceQuarantinedIds(run.quarantined, dataset.entities(), &result);
    result.completeness.MergeFrom(run.completeness);
    if (!run.failed) {
      AccumulateReduceTasks(states.states(), run.timing, run.reduce_stats,
                            options_.cluster.seconds_per_cost_unit,
                            options_.alpha, &result, options_.cluster.trace);
    }
    return StageResultFromJob(std::move(run), "resolution job");
  });

  const PipelineResult pipe_result = pipe.Run(/*submit_time=*/0.0);

  // ErRunResult::counters reports the resolution job only (the statistics
  // job's counters are internal to preprocessing), so read the resolution
  // stage's report rather than the pipeline-wide merge.
  const StageReport* resolution = pipe_result.Find("resolution job");
  if (resolution != nullptr) {
    result.counters = resolution->result.counters;
    result.preprocessing_end = resolution->start;
  } else {
    result.preprocessing_end = pipe_result.end;
  }
  result.total_time = pipe_result.end;
  result.wall_seconds = pipe_result.wall_seconds;
  if (pipe_result.failed) {
    result.failed = true;
    result.error = pipe_result.error;
    return result;
  }
  FinalizeDuplicates(&result);
  return result;
}

}  // namespace progres
