#ifndef PROGRES_MAPREDUCE_CHECKPOINT_H_
#define PROGRES_MAPREDUCE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/counters.h"

namespace progres {

// Checkpointed progressive recovery for reduce tasks.
//
// A progressive reduce task emits its results every alpha cost units; a
// checkpoint snapshots the task's progress at exactly those emission
// boundaries — the point of the paper's progressiveness is that everything
// before the boundary has already been delivered, so a re-attempt that
// restores the snapshot and resumes mid-schedule loses nothing and repeats
// only the work since the last boundary. Without checkpoints a re-attempt
// replays the task from scratch, its driver state reset by the job's
// task-state hook (MapReduceJob::set_task_state).
//
// A snapshot captures both halves of a task's state:
//   * the job-side context — cost clock, user counters, emitted outputs and
//     input-progress watermarks (group index / records consumed);
//   * the driver-side state — an opaque, type-erased copy produced by the
//     driver's task-state save hook (for the progressive driver: the
//     resolved-block watermark, per-tree resolved-pair sets and buffered
//     tree groups).
//
// The store also remembers every boundary's cost ("recovery points"): the
// timing model consults them to cost the replacement of an attempt killed
// by a machine failure (cluster.h, AttemptScheduleOptions::recovery_points).
//
// Each reduce task touches only its own slot, so the store needs no
// synchronization beyond the job's task barrier.

// One saved snapshot of a reduce task at an emission boundary.
struct TaskCheckpoint {
  double cost = 0.0;        // task clock (cost units) at the boundary
  int64_t groups = 0;       // reduce groups fully processed
  int64_t records_in = 0;   // input values consumed
  int64_t pairs_out = 0;    // pairs emitted
  size_t output_bytes = 0;  // length of the task's encoded outputs
  Counters counters;        // user counters at the boundary
  std::shared_ptr<const void> driver_state;  // driver save-hook snapshot
  // Copy of the task's encoded outputs at the boundary. Filled only when
  // the store persists to disk (an in-process restore truncates the live
  // outputs); a resumed *process* takes over the persisted copy.
  std::string encoded_outputs;
};

// Per-job checkpoint store: the latest snapshot plus the boundary-cost
// history of every reduce task, and the save/restore tallies exported as
// "mr.checkpoint.saved" / "mr.checkpoint.restored".
class CheckpointStore {
 public:
  // Type-erased codec for the driver-state half of a snapshot. Installed by
  // the driver alongside its save/restore hooks; without one, persisted
  // snapshots carry an empty driver blob (jobs whose reduce state lives
  // entirely in the job-side context need none).
  using StateEncodeFn =
      std::function<std::string(const std::shared_ptr<const void>&)>;
  using StateDecodeFn =
      std::function<std::shared_ptr<const void>(std::string_view)>;

  CheckpointStore() = default;

  // Arms disk persistence: every accepted Save is also written atomically
  // (temp file + rename) to `dir`/`tag`-task<N>.ckpt, CRC-framed. With
  // `resume`, the next Reset loads the surviving files back — a process
  // killed mid-job can restart and replay only past the last persisted
  // boundary. Snapshots failing validation on load are ignored (and
  // tallied); the task simply replays from scratch. `crash_after_saves`
  // > 0 kills the process (std::_Exit) after that many persisted saves —
  // the deterministic crash hook behind the restart tests and the CLI's
  // --crash-after-checkpoints. Empty `dir` disarms persistence.
  void ConfigurePersistence(std::string dir, std::string tag, bool resume,
                            int crash_after_saves = 0);

  // Installs the driver-state codec used by persisted saves/loads.
  void SetStateCodec(StateEncodeFn encode, StateDecodeFn decode);

  bool persistent() const { return !dir_.empty(); }

  // Drops all snapshots and tallies and resizes to `num_tasks` slots.
  // MapReduceJob::Run calls this at submission, so a store can be reused
  // across runs. Persistence config survives; with resume armed, each
  // task's persisted snapshot (if any, and valid) is loaded back and
  // marked preloaded.
  void Reset(int num_tasks);

  int num_tasks() const { return static_cast<int>(slots_.size()); }

  // Latest snapshot of task `t`, or nullptr if none was saved yet.
  const TaskCheckpoint* Latest(int t) const;

  // Arms boundary-history retention: every accepted Save also keeps a copy
  // of the snapshot, so LatestAtOrBelow can cut a task back to *any*
  // crossed boundary — what deadline enforcement needs. Off by default
  // (only the latest snapshot is kept, the historical memory footprint).
  // Armed by MapReduceJob when job supervision is active; survives Reset.
  void set_keep_history(bool keep) { keep_history_ = keep; }

  // Highest-cost retained snapshot of task `t` with cost <= `cost`, or
  // nullptr if no crossed boundary qualifies. Requires set_keep_history;
  // without it only the latest snapshot is consulted.
  const TaskCheckpoint* LatestAtOrBelow(int t, double cost) const;

  // Saves a snapshot of task `t`, replacing the previous one and appending
  // the boundary's cost to the task's recovery points. Snapshots must
  // advance: a save at or below the latest cost is ignored (a resumed
  // attempt re-crossing an already-saved boundary).
  void Save(int t, TaskCheckpoint checkpoint);

  // Records that a re-attempt of task `t` restored the latest snapshot.
  void NoteRestore(int t);

  // Ascending boundary costs of task `t` — the timing model's recovery
  // points for machine-killed attempts.
  const std::vector<double>& RecoveryPoints(int t) const;

  // True while task `t`'s latest snapshot is one loaded from disk by a
  // resume (no save from this process has replaced it yet) — the signal
  // job.h turns into "mr.restart.restored_tasks" and kRestartRestore spans.
  bool Preloaded(int t) const;

  // Job-wide tallies.
  int64_t saved() const;
  int64_t restored() const;
  // Persisted snapshots that failed validation on a resume load.
  int64_t corrupt_checkpoints() const { return corrupt_checkpoints_; }

  // Deletes this store's persisted files (called after a successful job —
  // a finished job must not be "resumed").
  void CleanupPersisted();

 private:
  struct Slot {
    std::unique_ptr<TaskCheckpoint> latest;
    // Every accepted snapshot in ascending cost order (keep_history only).
    std::vector<std::unique_ptr<TaskCheckpoint>> history;
    std::vector<double> points;
    int64_t saved = 0;
    int64_t restored = 0;
    bool preloaded = false;
  };

  std::string PersistPath(int t) const;
  void PersistSave(int t, const TaskCheckpoint& checkpoint);
  bool LoadPersisted(int t, TaskCheckpoint* checkpoint);

  std::vector<Slot> slots_;
  std::string dir_;
  std::string tag_;
  bool keep_history_ = false;
  bool resume_ = false;
  int crash_after_saves_ = 0;
  int64_t persisted_saves_ = 0;
  int64_t corrupt_checkpoints_ = 0;
  StateEncodeFn encode_state_;
  StateDecodeFn decode_state_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_CHECKPOINT_H_
