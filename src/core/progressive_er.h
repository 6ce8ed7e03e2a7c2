#ifndef PROGRES_CORE_PROGRESSIVE_ER_H_
#define PROGRES_CORE_PROGRESSIVE_ER_H_

#include <string>
#include <vector>

#include "blocking/blocking_function.h"
#include "core/er_result.h"
#include "estimate/annotated_forest.h"
#include "estimate/prob_model.h"
#include "mapreduce/cluster.h"
#include "mechanism/mechanism.h"
#include "schedule/schedule.h"
#include "similarity/match_function.h"

namespace progres {

class Pipeline;

// How the second job's map phase routes an entity to its blocks
// (footnote 5 of the paper).
enum class MapEmission {
  // Naive: one key-value pair per (entity, block).
  kPerBlock,
  // Optimized: one key-value pair per (entity, tree), keyed by the tree's
  // first scheduled block; the reduce task regroups entities into blocks
  // locally. Cuts shuffle volume by roughly the average tree depth.
  kPerTree,
};

// Options of the full two-job progressive approach (Sec. III).
struct ProgressiveErOptions {
  ClusterConfig cluster;
  EstimateParams estimate;

  // 0 means "all slots", matching the paper's configuration where the
  // number of concurrent tasks equals the slot count.
  int num_map_tasks = 0;
  int num_reduce_tasks = 0;

  // Schedule-generation knobs (Sec. IV-C). Empty cost vector: a uniform
  // 10-point vector over the estimated total cost is used.
  std::vector<double> cost_vector;
  std::vector<double> weights;
  int batch_size = 4;
  TreeScheduler scheduler = TreeScheduler::kOurs;

  // Dominance-list redundancy elimination (Sec. V). Disable only for the
  // ablation bench.
  bool redundancy_elimination = true;

  // Incremental output interval alpha, in cost units (Sec. III-B).
  double alpha = 5000.0;

  // Map-side emission strategy (footnote 5).
  MapEmission map_emission = MapEmission::kPerBlock;

  // Resolution cost budget per reduce task, in cost units (> 0 enables the
  // budgeted variant the extended report describes: generate the highest
  // quality result within a cost budget). The schedule is truncated to the
  // highest-utility blocks fitting the budget and reduce tasks stop once
  // their clock exceeds it.
  double per_task_cost_budget = 0.0;

  // Cost units charged for generating the progressive schedule, per live
  // block (the pipeline's computation stage between the two jobs; the
  // paper runs it in the second job's map-task setup).
  double schedule_cost_per_block = 0.2;

  // Checkpointed progressive recovery (checkpoint.h): reduce tasks of the
  // resolution job snapshot their state at each alpha-emission boundary and
  // a fault-injected re-attempt resumes from the latest snapshot instead of
  // replaying from scratch. Resolved pairs stay byte-identical either way;
  // only the re-executed work (and so the simulated timeline and "mr."
  // bookkeeping) shrinks.
  bool checkpoint_recovery = false;

  // Cross-process restart: a non-empty dir persists the resolution job's
  // checkpoints to disk (CRC-framed, atomically replaced), implying
  // checkpoint_recovery. With `resume`, a fresh process restores each
  // task's surviving snapshot and replays only past it — byte-identical
  // resolved pairs, strictly fewer re-resolved ones. A finished run deletes
  // its snapshot files (a completed job must not be resumed).
  std::string checkpoint_dir;
  bool resume = false;

  // > 0 kills the process (exit code 17, no unwind) after that many
  // persisted checkpoint saves — the deterministic mid-run crash behind the
  // restart tests and progres_cli --crash-after-checkpoints.
  int crash_after_checkpoints = 0;
};

// The paper's parallel progressive ER approach: a statistics job
// (progressive blocking), schedule generation, and a progressive resolution
// job whose reduce tasks resolve blocks bottom-up with mechanism M.
class ProgressiveEr {
 public:
  // `blocking` and `match` are copied. `mechanism` (the progressive
  // mechanism M) and `prob` (the trained duplicate-probability model) are
  // held by reference and must outlive the driver.
  ProgressiveEr(const BlockingConfig& blocking, const MatchFunction& match,
                const ProgressiveMechanism& mechanism,
                const ProbabilityModel& prob, ProgressiveErOptions options);

  // Resolves `dataset` end to end. Deterministic for fixed inputs.
  ErRunResult Run(const Dataset& dataset) const;

  // Introspection for tests/benches: runs only the preprocessing (stats job,
  // annotation, schedule generation), returning the annotated forests and
  // the schedule.
  struct Preprocessed {
    std::vector<AnnotatedForest> forests;
    ProgressiveSchedule schedule;
    double end_time = 0.0;  // simulated end of preprocessing
    // Set when the statistics job exhausted its fault budget.
    bool failed = false;
    std::string error;
  };
  Preprocessed Preprocess(const Dataset& dataset) const;

 private:
  // Appends the preprocessing stages — the statistics job and the
  // schedule-generation computation — to `pipe`. The stages write the
  // annotated forests and the schedule into `pre` as they execute.
  void AddPreprocessStages(const Dataset& dataset, Pipeline* pipe,
                           Preprocessed* pre) const;

  BlockingConfig blocking_;
  MatchFunction match_;
  const ProgressiveMechanism& mechanism_;
  const ProbabilityModel& prob_;
  ProgressiveErOptions options_;
};

}  // namespace progres

#endif  // PROGRES_CORE_PROGRESSIVE_ER_H_
