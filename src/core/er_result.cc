#include "core/er_result.h"

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

}  // namespace progres
