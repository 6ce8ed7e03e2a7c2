#ifndef PROGRES_CORE_ER_DRIVER_H_
#define PROGRES_CORE_ER_DRIVER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/er_result.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/cluster.h"
#include "mapreduce/cost_clock.h"
#include "mapreduce/counters.h"
#include "mapreduce/job.h"
#include "mapreduce/pipeline.h"
#include "mechanism/mechanism.h"
#include "model/dataset.h"

namespace progres {

// The resolving-job path the ER drivers share (Basic, MRSN, Progressive;
// the statistics job uses only the task-state registry). Every driver
// accumulates external per-reduce-task state alongside its MR job, must
// rewind that state whenever the job rewinds a reduce task (a retried
// attempt, a quarantine, a deadline cut), folds each finished job into one
// ErRunResult, and closes that result from its pipeline. This header holds
// each of those steps once.

// A driver's task count for one phase: `requested`, or one task per slot
// when it is 0 (the paper's configuration).
inline int TaskCount(int requested, int slots) {
  return requested > 0 ? requested : slots;
}

// The per-reduce-task accumulator every resolving driver shares: the raw
// duplicate-discovery events (task-local cost order) plus outcome tallies.
// Drivers with extra per-task state (MRSN's sliding window, the progressive
// driver's tree buffers) derive from it.
struct ErTaskState {
  std::vector<std::pair<double, PairKey>> raw_events;
  int64_t duplicates = 0;
  int64_t distinct = 0;
  int64_t skipped = 0;
};

// Owns one State per reduce task (each task writes only its own slot, so no
// synchronization is needed) and wires the fault-tolerance contract: every
// reduce attempt starts from a default-constructed State (or the restored
// checkpoint's copy), so a retry never double-counts.
template <typename State>
class TaskStateRegistry {
 public:
  explicit TaskStateRegistry(int num_tasks)
      : states_(static_cast<size_t>(std::max(1, num_tasks))) {}

  State& at(int task) { return states_[static_cast<size_t>(task)]; }
  std::vector<State>& states() { return states_; }

  // Installs the job's task-state hooks: `save` copies the task's State,
  // `restore` replaces it with a snapshot, or with a freshly-constructed
  // State when there is none. State must be copyable.
  void Install(JobRuntime* job) {
    job->set_task_state(
        [this](int task_id) -> std::shared_ptr<const void> {
          return std::make_shared<const State>(
              states_[static_cast<size_t>(task_id)]);
        },
        [this](int task_id, const void* snapshot) {
          State& state = states_[static_cast<size_t>(task_id)];
          if (snapshot == nullptr) {
            state = State();
          } else {
            state = *static_cast<const State*>(snapshot);
          }
        });
  }

 private:
  std::vector<State> states_;
};

// The State-independent half of ResolvingJob: the snapshot rule and the
// fold of a finished job into the run's result.
class ResolvingJobBase {
 public:
  // The job keeps the addresses of the task states and checkpoints.
  ResolvingJobBase(const ResolvingJobBase&) = delete;
  ResolvingJobBase& operator=(const ResolvingJobBase&) = delete;

 protected:
  // `dataset` and `cluster` must outlive the job.
  ResolvingJobBase(const Dataset& dataset, const ClusterConfig& cluster,
                   double alpha)
      : dataset_(dataset), cluster_(cluster), alpha_(alpha) {}

  // The snapshot rule: `job` snapshots its reduce tasks at each alpha
  // boundary in a supervised run, where a deadline cut or a quarantine
  // delivers the latest snapshot, and when the caller asked for
  // `recovery`, where a re-attempt resumes from it instead of replaying.
  void Snapshot(JobRuntime* job, bool recovery);

  // ResolvingJob::Fold over the tasks' shared accumulators.
  StageResult FoldJob(JobReport run,
                      const std::vector<const ErTaskState*>& states,
                      const std::string& label, bool emissions,
                      ErRunResult* result) const;

  CheckpointStore checkpoints_;

 private:
  const Dataset& dataset_;
  const ClusterConfig& cluster_;
  double alpha_;
};

// The driver side of one resolving MR job: its per-task States, their
// snapshots, and the fold of the finished job into the run's ErRunResult.
template <typename State>
class ResolvingJob : public ResolvingJobBase {
 public:
  ResolvingJob(int num_tasks, const Dataset& dataset,
               const ClusterConfig& cluster, double alpha)
      : ResolvingJobBase(dataset, cluster, alpha), states_(num_tasks) {}

  State& at(int task) { return states_.at(task); }

  // Installs the task-state hooks on `job` and applies the snapshot rule.
  void Install(JobRuntime* job, bool recovery = false) {
    states_.Install(job);
    Snapshot(job, recovery);
  }

  // Persists the snapshots to disk (CheckpointStore::ConfigurePersistence
  // with `dir`, `tag`, `resume` and `crash_after_saves`), each State as
  // its `encode` blob, from which a restarted process rebuilds it with
  // `decode`; false from `decode` marks the snapshot corrupt. Needs
  // Install with `recovery` set.
  void Persist(const std::string& dir, const std::string& tag, bool resume,
               int crash_after_saves, std::string (*encode)(const State&),
               bool (*decode)(std::string_view, State*)) {
    checkpoints_.SetStateCodec(
        [encode](const std::shared_ptr<const void>& state) {
          return state == nullptr
                     ? std::string()
                     : encode(*static_cast<const State*>(state.get()));
        },
        [decode](std::string_view blob) -> std::shared_ptr<const void> {
          auto state = std::make_shared<State>();
          if (!decode(blob, state.get())) return nullptr;
          return state;
        });
    checkpoints_.ConfigurePersistence(dir, tag, resume, crash_after_saves);
  }

  // Folds the finished `run` into `result` and returns the pipeline stage
  // it ends, its error labelled "<label>: ...". Every run surfaces its
  // quarantined entity ids, completeness report and counters. A run that
  // succeeded also appends each reduce task's tallies, timed events and
  // alpha chunks (recorded as alpha-emission trace events with a trace
  // attached), and, with `emissions`, reports its shuffle as the map's
  // "map.emitted_pairs" and "shuffle.bytes".
  StageResult Fold(JobReport run, const std::string& label, bool emissions,
                   ErRunResult* result) {
    std::vector<const ErTaskState*> states;
    for (const State& state : states_.states()) states.push_back(&state);
    return FoldJob(std::move(run), states, label, emissions, result);
  }

 private:
  TaskStateRegistry<State> states_;
};

// Closes a resolving driver's run from its pipeline: the simulated end,
// the measured wall time, and either the sorted unique duplicates of a run
// that succeeded or the pipeline's failure. A failed run reports no
// events, duplicates or chunks and zero comparison tallies, whatever an
// earlier job of the run (an MRSN pass) had folded.
void CloseRun(const PipelineResult& pipe, ErRunResult* result);

// The on_duplicate callback the drivers hand to the mechanism: records one
// discovery as (task-local cost now, pair) into the task's event stream.
inline std::function<void(EntityId, EntityId)> EventSink(ErTaskState* state,
                                                         CostClock* clock) {
  return [state, clock](EntityId a, EntityId b) {
    state->raw_events.emplace_back(clock->units(), MakePairKey(a, b));
  };
}

// Fails `result` with a labelled error unless alpha > 0, and returns
// whether it did. Result chunks close every alpha cost units, so a
// non-positive (or NaN) alpha would never close one.
bool RejectInvalidAlpha(double alpha, ErRunResult* result);

// Tallies one resolved block's outcome into the task state and the standard
// "reduce.*" counters (shared by the basic and progressive drivers).
void RecordResolveOutcome(const ResolveOutcome& outcome, ErTaskState* state,
                          Counters* counters);

}  // namespace progres

#endif  // PROGRES_CORE_ER_DRIVER_H_
