#include "core/er_result.h"

#include <algorithm>

namespace progres {

std::vector<DuplicateEvent> EventsFromChunks(
    const std::vector<ResultChunk>& chunks) {
  std::vector<DuplicateEvent> events;
  for (const ResultChunk& chunk : chunks) {
    for (PairKey pair : chunk.pairs) {
      events.push_back({chunk.flush_time, pair});
    }
  }
  return events;
}

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

void SurfaceQuarantinedIds(const std::vector<QuarantinedRecord>& quarantined,
                           const std::vector<Entity>& entities,
                           ErRunResult* result) {
  if (quarantined.empty()) return;
  for (const QuarantinedRecord& q : quarantined) {
    if (q.record >= 0 && q.record < static_cast<int64_t>(entities.size())) {
      result->quarantined_ids.push_back(
          entities[static_cast<size_t>(q.record)].id);
    }
  }
  std::sort(result->quarantined_ids.begin(), result->quarantined_ids.end());
  result->quarantined_ids.erase(std::unique(result->quarantined_ids.begin(),
                                            result->quarantined_ids.end()),
                                result->quarantined_ids.end());
}

void FinalizeDuplicates(ErRunResult* result) {
  std::vector<PairKey>& duplicates = result->duplicates;
  duplicates.clear();
  duplicates.reserve(result->events.size());
  for (const DuplicateEvent& event : result->events) {
    duplicates.push_back(event.pair);
  }
  std::sort(duplicates.begin(), duplicates.end());
  duplicates.erase(std::unique(duplicates.begin(), duplicates.end()),
                   duplicates.end());
}

}  // namespace progres
