#include "core/er_driver.h"

#include <cstdio>

namespace progres {

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
