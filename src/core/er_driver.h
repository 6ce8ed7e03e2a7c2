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
#include "mapreduce/trace.h"
#include "mechanism/mechanism.h"
#include "model/entity.h"

namespace progres {

// Shared scaffolding of the ER drivers (Basic, MRSN, Progressive, and the
// statistics job): every driver accumulates external per-reduce-task state
// alongside its MR job, must rewind that state whenever the job rewinds a
// reduce task (a retried attempt, a quarantine, a deadline cut), and
// assembles the same ErRunResult shape from per-task events. This header
// factors those three concerns out of the drivers.

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
  const State& at(int task) const { return states_[static_cast<size_t>(task)]; }
  size_t size() const { return states_.size(); }
  std::vector<State>& states() { return states_; }
  const std::vector<State>& states() const { return states_; }

  // Installs the job's task-state hooks: `save` copies the task's State,
  // `restore` replaces it with a snapshot, or with a freshly-constructed
  // State when there is none. State must be copyable.
  template <typename Job>
  void Install(Job* job) {
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

  // Installs the task-state hooks plus checkpointed recovery
  // (checkpoint.h): the job snapshots a copy of the task's State at each
  // alpha-emission boundary and a re-attempt restores the latest snapshot
  // (or a fresh State when none exists) rather than replaying from scratch.
  // `store` must outlive the job's Run.
  //
  // With `encode`/`decode` supplied, they are installed on the store as its
  // type-erased driver-state codec, which persisted snapshots need
  // (CheckpointStore::ConfigurePersistence): a restarted process rebuilds
  // the State from the serialized blob instead of the dead process's
  // pointer. `decode` returning false marks the snapshot corrupt.
  template <typename Job>
  void InstallCheckpointRecovery(
      Job* job, double alpha, CheckpointStore* store,
      std::function<std::string(const State&)> encode = nullptr,
      std::function<bool(std::string_view, State*)> decode = nullptr) {
    Install(job);
    if (encode != nullptr && decode != nullptr) {
      store->SetStateCodec(
          [encode = std::move(encode)](
              const std::shared_ptr<const void>& state) -> std::string {
            return state == nullptr
                       ? std::string()
                       : encode(*static_cast<const State*>(state.get()));
          },
          [decode = std::move(decode)](
              std::string_view blob) -> std::shared_ptr<const void> {
            auto state = std::make_shared<State>();
            if (!decode(blob, state.get())) return nullptr;
            return state;
          });
    }
    job->set_checkpointing(alpha, store);
  }

 private:
  std::vector<State> states_;
};

// The on_duplicate callback the drivers hand to the mechanism: records one
// discovery as (task-local cost now, pair) into the task's event stream.
inline std::function<void(EntityId, EntityId)> EventSink(ErTaskState* state,
                                                         CostClock* clock) {
  return [state, clock](EntityId a, EntityId b) {
    state->raw_events.emplace_back(clock->units(), MakePairKey(a, b));
  };
}

// Tallies one resolved block's outcome into the task state and the standard
// "reduce.*" counters (shared by the basic and progressive drivers).
void RecordResolveOutcome(const ResolveOutcome& outcome, ErTaskState* state,
                          Counters* counters);

// Assembles the per-task portion of an ErRunResult after a successful
// resolution job: aggregate tallies plus the globally-timed event stream
// and incremental-output chunks of every reduce task, in task order. With a
// `trace` attached, every incremental-output chunk is also recorded as an
// alpha-emission trace event (carrying the task-cumulative pair count), on
// the slot lane of the task's winning reduce attempt.
template <typename State>
void AccumulateReduceTasks(const std::vector<State>& states,
                           const JobTiming& timing,
                           const std::vector<TaskStats>& reduce_stats,
                           double seconds_per_cost_unit, double alpha,
                           ErRunResult* result,
                           TraceRecorder* trace = nullptr) {
  for (size_t t = 0; t < reduce_stats.size(); ++t) {
    const ErTaskState& state = states[t];
    result->duplicate_count += state.duplicates;
    result->distinct_count += state.distinct;
    result->skipped_count += state.skipped;
    result->comparisons += state.duplicates + state.distinct;
    const size_t first_chunk = result->chunks.size();
    AppendTaskEvents(static_cast<int>(t), timing.reduce_start[t],
                     reduce_stats[t].cost, seconds_per_cost_unit, alpha,
                     state.raw_events, result);
    if (trace == nullptr) continue;
    int slot = -1;
    for (const TaskAttemptTiming& a : timing.reduce_attempts) {
      if (a.won && a.task == static_cast<int>(t)) {
        slot = a.slot;
        break;
      }
    }
    int64_t cumulative = 0;
    for (size_t c = first_chunk; c < result->chunks.size(); ++c) {
      const ResultChunk& chunk = result->chunks[c];
      cumulative += static_cast<int64_t>(chunk.pairs.size());
      AlphaEmission emission;
      emission.pid = trace->current_pid();
      emission.task = static_cast<int>(t);
      emission.slot = slot;
      emission.time = chunk.flush_time;
      emission.pairs = static_cast<int64_t>(chunk.pairs.size());
      emission.cumulative_pairs = cumulative;
      trace->RecordEmission(emission);
    }
  }
}

}  // namespace progres

#endif  // PROGRES_CORE_ER_DRIVER_H_
