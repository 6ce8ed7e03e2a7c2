#ifndef PROGRES_CORE_ER_RESULT_H_
#define PROGRES_CORE_ER_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/recall_curve.h"
#include "mapreduce/counters.h"
#include "mapreduce/supervisor.h"
#include "model/entity.h"

namespace progres {

// One incremental-output file (Sec. III-B): every alpha cost units each
// reduce task closes its current result file and starts a new one, so the
// results available at time t are the union of all chunks with
// flush_time <= t.
struct ResultChunk {
  int task = 0;
  double cost_begin = 0.0;  // task-local cost units
  double cost_end = 0.0;
  double flush_time = 0.0;  // global simulated seconds when the chunk closed
  std::vector<PairKey> pairs;
};

// Outcome of one end-to-end ER run (progressive or basic driver).
struct ErRunResult {
  // Fine-grained duplicate discoveries with global simulated times.
  std::vector<DuplicateEvent> events;
  // Unique duplicate pairs found over the whole run.
  std::vector<PairKey> duplicates;
  // Incremental output files.
  std::vector<ResultChunk> chunks;

  // End of preprocessing (first job + schedule generation); 0 for Basic.
  double preprocessing_end = 0.0;
  // Simulated completion time of the whole run.
  double total_time = 0.0;
  // Measured wall-clock duration of the run (seconds). A real measurement
  // on the driver's clock — varies run to run, excluded from the golden
  // dumps, and never mixed with the simulated times above.
  double wall_seconds = 0.0;

  // Aggregate resolution counters (across all reduce tasks).
  int64_t comparisons = 0;
  int64_t duplicate_count = 0;
  int64_t distinct_count = 0;
  int64_t skipped_count = 0;

  // Named MR counters merged across all tasks of the resolution job
  // (e.g. "map.emitted_pairs", "reduce.blocks_resolved").
  Counters counters;

  // Entities the runtime quarantined as poison records
  // (FaultConfig::skip_bad_records), sorted ascending, duplicates removed.
  // Pairs touching these entities are the only ones a faulty run may miss
  // relative to a fault-free run.
  std::vector<EntityId> quarantined_ids;

  // Job-supervision completeness report, merged across the run's MR jobs
  // (multi-pass drivers fold one report per pass). Inert — degraded=false,
  // covered_fraction=1.0 — unless ClusterConfig::control is active. A
  // degraded run keeps failed=false; this report tells callers what the
  // delivered output covers.
  CompletenessReport completeness;

  // Set when the run failed: invalid options, or an MR job that failed
  // (exhausted max_attempts, missed its deadline, ...). A failed run
  // reports no events, duplicates or chunks and zero comparison tallies.
  bool failed = false;
  std::string error;
};

// Coarsened event stream: each duplicate is visible only when its chunk is
// flushed. Used by the alpha ablation to study the publish granularity.
std::vector<DuplicateEvent> EventsFromChunks(
    const std::vector<ResultChunk>& chunks);

}  // namespace progres

#endif  // PROGRES_CORE_ER_RESULT_H_
