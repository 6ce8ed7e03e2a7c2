#include "core/mrsn_er.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "core/er_driver.h"
#include "mapreduce/job.h"
#include "mapreduce/pipeline.h"
#include "mapreduce/serde.h"

namespace progres {

namespace {

constexpr double kComparisonCost = 1.0;
constexpr double kReplicaSkipCost = 0.01;
constexpr double kReadCost = 0.1;
// Cost units charged per entity for the boundary (sampling) pre-pass.
constexpr double kBoundaryCostPerEntity = 0.05;

// Rank keys are offset by range so that the partitioner is a plain
// division and keys stay globally sorted within a task.
constexpr int64_t kRankStride = int64_t{1} << 32;

struct SlideValue {
  EntityId id = -1;
  // False for the window-replica copies shipped into the next range; pairs
  // between two replicas were already compared in their home range.
  bool owned = true;
};

struct MrsnTaskState : ErTaskState {
  std::deque<SlideValue> window;
};

}  // namespace

// Wire form of SlideValue: the entity id as a varint plus one flag byte.
template <>
struct KvCodec<SlideValue> {
  static void Encode(const SlideValue& value, std::string* out) {
    PutVarint64(static_cast<uint64_t>(value.id), out);
    out->push_back(value.owned ? '\1' : '\0');
  }
  static bool Decode(std::string_view in, size_t* offset, SlideValue* value) {
    uint64_t id = 0;
    if (!GetVarint64(in, offset, &id)) return false;
    if (*offset >= in.size()) return false;
    value->id = static_cast<EntityId>(id);
    value->owned = in[*offset] != '\0';
    ++*offset;
    return true;
  }
};

MrsnEr::MrsnEr(const BlockingConfig& blocking, const MatchFunction& match,
               MrsnOptions options)
    : blocking_(blocking),
      match_(match),
      options_(std::move(options)) {}

ErRunResult MrsnEr::Run(const Dataset& dataset) const {
  const int map_tasks = options_.num_map_tasks > 0
                            ? options_.num_map_tasks
                            : options_.cluster.map_slots();
  const int reduce_tasks = options_.num_reduce_tasks > 0
                               ? options_.num_reduce_tasks
                               : options_.cluster.reduce_slots();
  const int64_t n = dataset.size();
  const double spc = options_.cluster.seconds_per_cost_unit;

  ErRunResult result;

  // Written by each pass's boundary pre-pass, read by the pass's job.
  std::vector<int64_t> rank_of(static_cast<size_t>(n));

  // One boundary pre-pass + one MR job per blocking family, chained on the
  // simulated clock.
  Pipeline pipe;
  pipe.set_trace(options_.cluster.trace);
  for (int pass = 0; pass < blocking_.num_families(); ++pass) {
    // ---- Boundary pre-pass: global sort order and range boundaries ----
    pipe.AddComputation("boundary pre-pass", [&, pass](double /*submit*/) {
      const int attr = blocking_.SortAttribute(pass);
      std::vector<EntityId> order(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        order[static_cast<size_t>(i)] = static_cast<EntityId>(i);
      }
      std::sort(order.begin(), order.end(), [&](EntityId a, EntityId b) {
        const auto va = dataset.entity(a).attribute(static_cast<size_t>(attr));
        const auto vb = dataset.entity(b).attribute(static_cast<size_t>(attr));
        if (va != vb) return va < vb;
        return a < b;
      });
      for (int64_t r = 0; r < n; ++r) {
        rank_of[static_cast<size_t>(order[static_cast<size_t>(r)])] = r;
      }
      return kBoundaryCostPerEntity * static_cast<double>(n) * spc;
    });

    // ---- The pass's MR job ----
    pipe.AddStage("mrsn pass", [&, pass](double submit_time) {
      const auto range_of_rank = [&](int64_t rank) {
        return static_cast<int>(rank * reduce_tasks / std::max<int64_t>(1, n));
      };
      const auto range_end = [&](int range) {
        return static_cast<int64_t>(range + 1) * n / reduce_tasks;
      };

      using Job = MapReduceJob<Entity, int64_t, SlideValue>;
      Job job(map_tasks, reduce_tasks);
      job.set_map_cost_per_record(kReadCost);
      job.set_partitioner([](const int64_t& key, int /*r*/) {
        return static_cast<int>(key / kRankStride);
      });
      // Resolution-side user code: poison records crash its map attempts.
      // SurfaceQuarantinedIds dedups across the per-family passes.
      job.set_poison_faults(true);

      const int window = options_.window;
      const auto map_fn = [&](const Entity& e, Job::MapContext* ctx) {
        const int64_t rank = rank_of[static_cast<size_t>(e.id)];
        const int range = range_of_rank(rank);
        ctx->Emit(static_cast<int64_t>(range) * kRankStride + rank,
                  {e.id, /*owned=*/true});
        // Replicate the range's tail into the next range so the sliding
        // window covers cross-boundary pairs.
        if (range + 1 < reduce_tasks &&
            rank >= range_end(range) - (window - 1)) {
          ctx->clock().Charge(kReadCost);
          ctx->counters().Increment("map.replicas");
          ctx->Emit(static_cast<int64_t>(range + 1) * kRankStride + rank,
                    {e.id, /*owned=*/false});
        }
      };

      // Retried attempts replay the pass's whole partition; the registry's
      // task-state hook clears the task's sliding-window state and events
      // first. Supervised runs snapshot the state at alpha boundaries
      // instead so a deadline cut or quarantine can deliver a checkpointed
      // prefix.
      TaskStateRegistry<MrsnTaskState> states(reduce_tasks);
      CheckpointStore checkpoints;
      if (options_.cluster.control.active()) {
        states.InstallCheckpointRecovery(&job, options_.alpha, &checkpoints);
      } else {
        states.Install(&job);
      }

      const auto reduce_fn = [&](const int64_t& /*key*/,
                                 std::vector<SlideValue>* values,
                                 Job::ReduceContext* ctx) {
        MrsnTaskState& state = states.at(ctx->task_id());
        for (const SlideValue& value : *values) {
          const Entity& e = dataset.entity(value.id);
          for (const SlideValue& previous : state.window) {
            if (!previous.owned && !value.owned) {
              // Both replicas: compared in their home range already.
              ctx->clock().Charge(kReplicaSkipCost);
              ++state.skipped;
              continue;
            }
            ctx->clock().Charge(kComparisonCost);
            if (match_.Resolve(dataset.entity(previous.id), e)) {
              ++state.duplicates;
              state.raw_events.emplace_back(
                  ctx->clock().units(), MakePairKey(previous.id, value.id));
            } else {
              ++state.distinct;
            }
          }
          state.window.push_back(value);
          if (static_cast<int>(state.window.size()) > window - 1) {
            state.window.pop_front();
          }
        }
      };

      Job::Result run = job.Run(dataset.entities(), map_fn, reduce_fn,
                                options_.cluster, submit_time);
      SurfaceQuarantinedIds(run.quarantined, dataset.entities(), &result);
      result.completeness.MergeFrom(run.completeness);
      if (!run.failed) {
        AccumulateReduceTasks(states.states(), run.timing, run.reduce_stats,
                              spc, options_.alpha, &result,
                              options_.cluster.trace);
      }
      return StageResultFromJob(std::move(run), "mrsn pass");
    });
  }

  const PipelineResult pipe_result = pipe.Run(/*submit_time=*/0.0);
  result.counters = pipe_result.counters;
  result.total_time = pipe_result.end;
  result.wall_seconds = pipe_result.wall_seconds;
  if (pipe_result.failed) {
    result.failed = true;
    result.error = pipe_result.error;
  } else {
    result.preprocessing_end = 0.0;
  }
  FinalizeDuplicates(&result);
  return result;
}

}  // namespace progres
