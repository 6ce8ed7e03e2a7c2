#include "core/basic_er.h"

#include <algorithm>
#include <utility>

#include "core/er_driver.h"
#include "mapreduce/job.h"
#include "mapreduce/pipeline.h"
#include "mapreduce/serde.h"
#include "redundancy/kolb.h"

namespace progres {

namespace {

constexpr double kMapEmitCost = 0.05;

}  // namespace

BasicEr::BasicEr(const BlockingConfig& blocking, const MatchFunction& match,
                 const ProgressiveMechanism& mechanism, BasicErOptions options)
    : blocking_(blocking),
      match_(match),
      mechanism_(mechanism),
      options_(std::move(options)) {}

ErRunResult BasicEr::Run(const Dataset& dataset) const {
  const int map_tasks = options_.num_map_tasks > 0
                            ? options_.num_map_tasks
                            : options_.cluster.map_slots();
  const int reduce_tasks = options_.num_reduce_tasks > 0
                               ? options_.num_reduce_tasks
                               : options_.cluster.reduce_slots();
  const int num_families = blocking_.num_families();
  const double spc = options_.cluster.seconds_per_cost_unit;

  ErRunResult result;
  if (RejectInvalidAlpha(options_.alpha, &result)) return result;

  Pipeline pipe;
  pipe.set_trace(options_.cluster.trace);
  pipe.AddStage("basic job", [&, this](double submit_time) {
    using Job = MapReduceJob<Entity, std::string, EntityId>;
    Job job(map_tasks, reduce_tasks);
    job.set_map_cost_per_record(0.1);
    // The default hash partitioner stands; keys are "blocking key value
    // followed by the function ID" (Sec. II-C, footnote 3).
    // Resolution-side user code: poison records crash its map attempts.
    job.set_poison_faults(true);

    const auto map_fn = [&, this](const Entity& e, Job::MapContext* ctx) {
      for (int f = 0; f < num_families; ++f) {
        std::string key = blocking_.Key(f, 1, e);
        key.push_back(kPathSeparator);
        key.push_back(static_cast<char>('0' + f));
        ctx->clock().Charge(kMapEmitCost);
        ctx->counters().Increment("map.emitted_pairs");
        ctx->counters().Increment(
            "shuffle.bytes",
            static_cast<int64_t>(VarintSize(key.size())) +
                static_cast<int64_t>(key.size()) +
                VarintSize(static_cast<uint64_t>(e.id)));
        ctx->Emit(key, e.id);
      }
    };

    TaskStateRegistry<ErTaskState> states(reduce_tasks);
    CheckpointStore checkpoints;
    if (options_.cluster.control.active()) {
      // Supervised runs snapshot task state at alpha boundaries so a
      // deadline cut or quarantine can deliver a checkpointed prefix.
      states.InstallCheckpointRecovery(&job, options_.alpha, &checkpoints);
    } else {
      states.Install(&job);
    }

    const auto reduce_fn = [&, this](const std::string& key,
                                     std::vector<EntityId>* values,
                                     Job::ReduceContext* ctx) {
      const int family = key.back() - '0';
      ErTaskState& state = states.at(ctx->task_id());

      std::vector<const Entity*> members;
      members.reserve(values->size());
      for (EntityId id : *values) members.push_back(&dataset.entity(id));

      ResolveRequest request;
      request.block = &members;
      request.sort_attribute = blocking_.SortAttribute(family);
      request.match = &match_;
      request.options.window = options_.window;
      request.options.termination_distinct = -1;
      request.options.popcorn_threshold = options_.popcorn_threshold;
      request.options.popcorn_window = options_.popcorn_window;
      request.clock = &ctx->clock();

      std::function<bool(const Entity&, const Entity&)> predicate;
      if (options_.kolb_redundancy) {
        predicate = [&, family](const Entity& a, const Entity& b) {
          return KolbShouldResolve(a, b, family, blocking_);
        };
        request.should_resolve = &predicate;
      }

      request.on_duplicate = EventSink(&state, &ctx->clock());

      const ResolveOutcome outcome = mechanism_.Resolve(request);
      RecordResolveOutcome(outcome, &state, &ctx->counters());
    };

    Job::Result run = job.Run(dataset.entities(), map_fn, reduce_fn,
                              options_.cluster, submit_time);
    SurfaceQuarantinedIds(run.quarantined, dataset.entities(), &result);
    result.completeness.MergeFrom(run.completeness);
    if (!run.failed) {
      result.preprocessing_end = run.timing.map_end;
      AccumulateReduceTasks(states.states(), run.timing, run.reduce_stats,
                            spc, options_.alpha, &result,
                            options_.cluster.trace);
    }
    return StageResultFromJob(std::move(run), "basic job");
  });

  const PipelineResult pipe_result = pipe.Run(/*submit_time=*/0.0);
  result.counters = pipe_result.counters;
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
