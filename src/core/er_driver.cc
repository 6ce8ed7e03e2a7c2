#include "core/er_driver.h"

#include <algorithm>
#include <cstdio>

#include "mapreduce/trace.h"

namespace progres {

namespace {

// Appends one reduce task's raw duplicate discoveries ((task-local cost,
// pair), nondecreasing in cost) to `result`, stamping global event times
// (start_time + cost * seconds_per_cost_unit) and cutting `alpha`-sized
// incremental-output chunks.
void AppendTaskEvents(
    int task, double start_time, double task_cost,
    double seconds_per_cost_unit, double alpha,
    const std::vector<std::pair<double, PairKey>>& raw_events,
    ErRunResult* result) {
  ResultChunk chunk;
  chunk.task = task;
  int64_t chunk_index = 0;
  for (const auto& [cost, pair] : raw_events) {
    result->events.push_back({start_time + cost * seconds_per_cost_unit,
                              pair});
    while (cost > static_cast<double>(chunk_index + 1) * alpha) {
      chunk.cost_begin = static_cast<double>(chunk_index) * alpha;
      chunk.cost_end = static_cast<double>(chunk_index + 1) * alpha;
      chunk.flush_time = start_time + chunk.cost_end * seconds_per_cost_unit;
      result->chunks.push_back(std::move(chunk));
      chunk = ResultChunk();
      chunk.task = task;
      ++chunk_index;
    }
    chunk.pairs.push_back(pair);
  }
  chunk.cost_begin = static_cast<double>(chunk_index) * alpha;
  chunk.cost_end = task_cost;
  chunk.flush_time = start_time + task_cost * seconds_per_cost_unit;
  result->chunks.push_back(std::move(chunk));
}

// Records chunks [first_chunk, end) of reduce task `task` as alpha-emission
// trace events, carrying the task-cumulative pair count, on the slot lane
// of the task's winning reduce attempt.
void TraceEmissions(int task, const JobTiming& timing, size_t first_chunk,
                    const ErRunResult& result, TraceRecorder* trace) {
  int slot = -1;
  for (const TaskAttemptTiming& a : timing.reduce_attempts) {
    if (a.won && a.task == task) {
      slot = a.slot;
      break;
    }
  }
  int64_t cumulative = 0;
  for (size_t c = first_chunk; c < result.chunks.size(); ++c) {
    const ResultChunk& chunk = result.chunks[c];
    cumulative += static_cast<int64_t>(chunk.pairs.size());
    AlphaEmission emission;
    emission.pid = trace->current_pid();
    emission.task = task;
    emission.slot = slot;
    emission.time = chunk.flush_time;
    emission.pairs = static_cast<int64_t>(chunk.pairs.size());
    emission.cumulative_pairs = cumulative;
    trace->RecordEmission(emission);
  }
}

}  // namespace

void ResolvingJobBase::Snapshot(JobRuntime* job, bool recovery) {
  if (recovery || cluster_.control.active()) {
    job->set_checkpointing(alpha_, &checkpoints_);
  }
}

StageResult ResolvingJobBase::FoldJob(
    JobReport run, const std::vector<const ErTaskState*>& states,
    const std::string& label, bool emissions, ErRunResult* result) const {
  // Quarantined input records, as entity ids: MRSN's passes surface the
  // same poison record once each, so the list is kept sorted and unique.
  const std::vector<Entity>& entities = dataset_.entities();
  std::vector<EntityId>& ids = result->quarantined_ids;
  for (const QuarantinedRecord& q : run.quarantined) {
    if (q.record >= 0 && q.record < static_cast<int64_t>(entities.size())) {
      ids.push_back(entities[static_cast<size_t>(q.record)].id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  result->completeness.MergeFrom(run.completeness);

  if (!run.failed) {
    if (emissions) {
      // The map's emissions are the pairs that crossed the shuffle. Zero
      // totals stay absent, like every counter nothing incremented.
      const int64_t pairs = run.counters.Get("mr.shuffle.records");
      const int64_t bytes = run.counters.Get("mr.shuffle.bytes");
      if (pairs > 0) run.counters.Increment("map.emitted_pairs", pairs);
      if (bytes > 0) run.counters.Increment("shuffle.bytes", bytes);
    }
    for (size_t t = 0; t < run.reduce_stats.size(); ++t) {
      const ErTaskState& state = *states[t];
      result->duplicate_count += state.duplicates;
      result->distinct_count += state.distinct;
      result->skipped_count += state.skipped;
      result->comparisons += state.duplicates + state.distinct;
      const size_t first_chunk = result->chunks.size();
      AppendTaskEvents(static_cast<int>(t), run.timing.reduce_start[t],
                       run.reduce_stats[t].cost,
                       cluster_.seconds_per_cost_unit, alpha_,
                       state.raw_events, result);
      if (cluster_.trace != nullptr) {
        TraceEmissions(static_cast<int>(t), run.timing, first_chunk, *result,
                       cluster_.trace);
      }
    }
  }
  result->counters.MergeFrom(run.counters);
  return StageResultFromJob(std::move(run), label);
}

void CloseRun(const PipelineResult& pipe, ErRunResult* result) {
  result->total_time = pipe.end;
  result->wall_seconds = pipe.wall_seconds;
  if (pipe.failed) {
    result->failed = true;
    result->error = pipe.error;
    result->events.clear();
    result->chunks.clear();
    result->comparisons = 0;
    result->duplicate_count = 0;
    result->distinct_count = 0;
    result->skipped_count = 0;
    return;
  }
  std::vector<PairKey>& duplicates = result->duplicates;
  duplicates.reserve(result->events.size());
  for (const DuplicateEvent& event : result->events) {
    duplicates.push_back(event.pair);
  }
  std::sort(duplicates.begin(), duplicates.end());
  duplicates.erase(std::unique(duplicates.begin(), duplicates.end()),
                   duplicates.end());
}

bool RejectInvalidAlpha(double alpha, ErRunResult* result) {
  if (alpha > 0.0) return false;
  char error[64];
  std::snprintf(error, sizeof(error),
                "invalid options: alpha must be > 0 (got %g)", alpha);
  result->failed = true;
  result->error = error;
  return true;
}

void RecordResolveOutcome(const ResolveOutcome& outcome, ErTaskState* state,
                          Counters* counters) {
  state->duplicates += outcome.duplicates;
  state->distinct += outcome.distinct;
  state->skipped += outcome.skipped;
  counters->Increment("reduce.blocks_resolved");
  counters->Increment("reduce.duplicates", outcome.duplicates);
  counters->Increment("reduce.comparisons",
                      outcome.duplicates + outcome.distinct);
  counters->Increment("reduce.skipped", outcome.skipped);
  if (outcome.stopped_early) {
    counters->Increment("reduce.blocks_stopped_early");
  }
}

}  // namespace progres
