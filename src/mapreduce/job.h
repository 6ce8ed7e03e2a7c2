#ifndef PROGRES_MAPREDUCE_JOB_H_
#define PROGRES_MAPREDUCE_JOB_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mapreduce/cluster.h"
#include "mapreduce/cost_clock.h"
#include "mapreduce/counters.h"
#include "mapreduce/fault.h"
#include "mapreduce/serde.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/supervisor.h"

namespace progres {

class CheckpointStore;
class ExecutionSeam;

// In-process MapReduce runtime, layered out of three components:
//   * Shuffle (shuffle.h) — the memory-budgeted map-side KV block buffers
//     with their sorted spill runs (ClusterConfig::shuffle_budget), the
//     reduce-side merge and data-plane accounting ("mr.shuffle.*" and
//     "mr.spill.*");
//   * TaskAttemptRunner (job.cc) — the retry bookkeeping of
//     fault-injected task attempts, per phase;
//   * the attempt-aware timing model (cluster.h) — converts per-attempt
//     costs into a deterministic simulated timeline, including retry delays
//     and speculative backup copies of stragglers.
//
// MapReduceJob composes them and honours the Hadoop contract the paper's
// algorithms rely on:
//   * the input is split into contiguous chunks, one per map task;
//   * map tasks emit (key, value) pairs that a partition function routes to
//     reduce tasks;
//   * each reduce task sorts its pairs by key and invokes the reduce function
//     once per distinct key, in key order (so sequence-value keys yield the
//     paper's per-task block resolution order);
//   * a reduce cleanup hook runs after each reduce task's last group (the
//     progressive driver's per-tree emission flushes there);
//   * task attempts that fail are retried up to FaultConfig::max_attempts
//     times. Every attempt starts from a reset context (and, for reduce
//     tasks, reset external per-task state via set_task_state), so a
//     failed attempt's partial buckets/outputs/counters are discarded and
//     job output is byte-identical to a fault-free run. Exhausting
//     max_attempts fails the job cleanly (Result::failed + Result::error);
//   * with checkpointing enabled (set_checkpointing), a reduce re-attempt
//     instead restores the task's last alpha-boundary snapshot and resumes
//     mid-schedule — same byte-identical outputs, but only the progress
//     since the snapshot is re-executed;
//   * machine-level failures (FaultConfig::machine_failures) play out in
//     the timing model: a dying machine kills the attempts on its slots and
//     leaves the cluster, orphaned tasks re-queue (with exponential
//     backoff) on the survivors, and the replacement attempt is costed from
//     the task's best recovery point. Losing every machine fails the job
//     cleanly;
//   * with job supervision (ClusterConfig::control, supervisor.h) the
//     fail-fast rules above soften into deadline-driven graceful
//     degradation: a retry-budget ledger caps per-task attempts, permanent
//     task failures are quarantined instead of failing the job, the
//     simulated deadline cuts late reduce tasks back to their last
//     checkpointed prefix, and Result::completeness reports exactly what
//     was delivered. All of it is opt-in — an inactive JobControl leaves
//     every run byte- and timing-identical to the unsupervised runtime.
//
// The cluster configuration is validated at submission
// (ValidateClusterConfig); an invalid config fails the job with a labelled
// error instead of running with silently corrected parameters.
//
// Two execution backends share this contract (ClusterConfig::backend):
// the simulated backend runs attempts serially on the submitting thread —
// the deterministic reference — while the threaded backend runs them
// concurrently on a thread pool (executor.h) and measures wall-clock time
// alongside (JobTiming::wall, wall-stamped trace spans). All algorithmic
// cost is charged to deterministic per-task CostClocks and all cross-task
// state merges after the phase barriers, so results are bit-identical
// across backends and regardless of real thread interleaving; the simulated
// timeline stays the results clock under both.
//
// The type boundary sits where the data plane has it: MapContext::Emit
// encodes each pair, the reduce side decodes each record for its reduce
// call, and Result::outputs is decoded once when Run returns. All between
// is JobRuntime, which never sees a record, key or value type and compiles
// once (job.cc, shuffle.cc).

// A task's state in the runtime, which its typed context views. A map
// task's also holds its shuffle output; a reduce task's its emitted pairs,
// KvCodec-encoded back to back (stats.pairs_out of them).
struct TaskData {
  int task_id = 0;
  CostClock clock;
  Counters counters;
  TaskStats stats;
};
struct MapTaskData : TaskData {
  Shuffle::MapOutput output;
};
struct ReduceTaskData : TaskData {
  std::string outputs;
};

// What both typed contexts expose of their task.
template <typename Data>
class TaskContext {
 public:
  int task_id() const { return task_->task_id; }
  CostClock& clock() { return task_->clock; }
  Counters& counters() { return task_->counters; }

 protected:
  explicit TaskContext(Data* task) : task_(task) {}
  Data* task_;
};

// What a run reports beside its outputs.
struct JobReport {
  std::vector<TaskStats> map_stats;
  std::vector<TaskStats> reduce_stats;
  // Named counters merged across every map and reduce task, plus the
  // runtime's own bookkeeping under the reserved "mr." prefix (see
  // counters.h). Everything outside "mr." is byte-identical to a
  // fault-free run.
  Counters counters;
  JobTiming timing;
  // Input records quarantined by the skip-bad-records machinery
  // (FaultConfig::skip_bad_records), in map-task order. Quarantined
  // records were *not* processed — their absence from the outputs is the
  // only permitted divergence from a fault-free run.
  std::vector<QuarantinedRecord> quarantined;
  // Job-supervision completeness report (supervisor.h). Inert — default
  // values — unless ClusterConfig::control is active. `degraded` set
  // means some task delivered less than its full output while `failed`
  // stayed false (degraded success).
  CompletenessReport completeness;
  // Set when some task exhausted FaultConfig::max_attempts. Outputs,
  // stats and non-"mr." counters are empty/unspecified in that case.
  bool failed = false;
  std::string error;
};

// One reduce attempt as the runtime hands it to the typed half.
struct ReduceAttempt {
  ReduceTaskData& task;
  // Partition task.task_id's merge. When it spilled(), ForEachGroup
  // streams it; otherwise the typed half decodes the partition's blocks of
  // `maps`, in task order (FailCorruptBlock when one does not decode).
  Shuffle::Merge& merge;
  const std::vector<Shuffle::MapOutput*>& maps;
  // The cutoff of a failing or hanging attempt, which also skips cleanup:
  // groups whose first record sits at or past `limit` are not visited.
  size_t limit;
  bool cut;
  // Groups the restored checkpoint covers: re-read, not reduced again.
  int64_t skip_groups;
  const ExecutionSeam& seam;
};

// The untyped runtime of one job: validation and the shuffle budget, the
// map and reduce phases with their attempt chains, the map barrier's
// checks, checkpoints, the simulated timeline, supervision and the trace.
// MapReduceJob is this runtime with typed edges.
class JobRuntime {
 public:
  // The typed half of a job: the work inside the attempts the runtime
  // schedules. MapReduceJob implements it for each Run.
  class Tasks {
   public:
    // Runs the map function over input records [begin, end) in `task`.
    virtual void Map(MapTaskData* task, size_t begin, size_t end) = 0;
    // Runs one reduce attempt: its groups, in key order, through the
    // reduce function, then the cleanup hook unless the attempt is cut.
    virtual void Reduce(const ReduceAttempt& attempt) = 0;

   protected:
    ~Tasks() = default;
  };

  // Hooks over external per-reduce-task state (see set_task_state).
  using SaveStateFn = std::function<std::shared_ptr<const void>(int task_id)>;
  using RestoreStateFn =
      std::function<void(int task_id, const void* snapshot)>;

  JobRuntime(int num_map_tasks, int num_reduce_tasks, KeyFormat key_format)
      : num_map_tasks_(std::max(1, num_map_tasks)),
        num_reduce_tasks_(std::max(1, num_reduce_tasks)),
        shuffle_(num_reduce_tasks, key_format) {}

  int num_reduce_tasks() const { return num_reduce_tasks_; }

  // Marks this job's map function as poison-sensitive: the records listed
  // in FaultConfig::poison_records crash its map attempts, engaging the
  // skip-bad-records machinery. Off by default — jobs whose map function
  // never runs the user code a bad record would crash (e.g. a statistics
  // pre-pass) stay immune, exactly like a Hadoop job without skipping.
  void set_poison_faults(bool sensitive) { poison_faults_ = sensitive; }

  // Hooks for jobs that keep external per-reduce-task state (sinks indexed
  // by task_id) beside their outputs. `restore(t, snapshot)` rewinds task
  // t's state to a snapshot `save` returned, or to freshly constructed when
  // the snapshot is null. Run calls it before every reduce attempt and on
  // every quarantine or deadline rewind, so a failed attempt's partial
  // state never reaches the retry or the results. `save` runs only under
  // set_checkpointing, at each alpha boundary.
  void set_task_state(SaveStateFn save, RestoreStateFn restore) {
    save_state_ = std::move(save);
    restore_state_ = std::move(restore);
  }

  // Enables checkpointed progressive recovery of reduce tasks: after each
  // group, when the task's cost clock crosses a multiple of `alpha` (the
  // progressive emission boundary), its context and driver state are
  // snapshotted into `store`; a re-attempt restores the latest snapshot and
  // resumes instead of replaying from scratch. `store` must outlive Run,
  // which resets it at submission. Outputs stay byte-identical to a
  // fault-free run; only the "mr." bookkeeping and the simulated timeline
  // change.
  void set_checkpointing(double alpha, CheckpointStore* store) {
    checkpoint_alpha_ = alpha;
    checkpoint_store_ = store;
  }

 protected:
  // Runs the job on `input_size` records, `tasks` doing the typed work.
  // The run is a fixed sequence of stages over one RunState: a stage that
  // fails the job stops the sequence, and every run that got past set-up
  // leaves through its Finish stage. A successful run leaves reduce task
  // t's encoded outputs in (*outputs)[t].
  JobReport Run(size_t input_size, Tasks& tasks, const ClusterConfig& cluster,
                double submit_time, std::vector<std::string>* outputs);

  // Follows the reduce call that completed the attempt's `groups_done`-th
  // group: snapshots the task when its clock crossed an alpha boundary
  // (set_checkpointing).
  void MaybeCheckpoint(const ReduceAttempt& attempt,
                       int64_t groups_done) const;

 private:
  struct RunState;

  std::string SetUp(const ClusterConfig& cluster);
  bool checkpointing() const;

  int num_map_tasks_;
  int num_reduce_tasks_;
  Shuffle shuffle_;
  bool poison_faults_ = false;
  SaveStateFn save_state_;
  RestoreStateFn restore_state_;
  double checkpoint_alpha_ = 0.0;
  CheckpointStore* checkpoint_store_ = nullptr;
};

template <typename Record, typename K, typename V>
class MapReduceJob : public JobRuntime {
  static_assert(SerdeEncodable<K>,
                "MapReduceJob key type has no KvCodec specialization "
                "(serde.h); the encoded data plane cannot carry it");
  static_assert(SerdeEncodable<V>,
                "MapReduceJob value type has no KvCodec specialization "
                "(serde.h); the encoded data plane cannot carry it");

 public:
  class MapContext : public TaskContext<MapTaskData> {
   public:
    // Emits a pair routed to partition `partition(key, num_reduce_tasks)`,
    // by default FNV-1a over the encoded key: stable across standard
    // libraries and platforms, unlike std::hash. The pair is encoded on
    // the spot, so the caller may reuse its key and value buffers for the
    // next one.
    void Emit(const K& key, const V& value) {
      record_.clear();
      KvCodec<K>::Encode(key, &record_);
      const int partitions = job_.num_reduce_tasks();
      const int r =
          job_.partition_
              ? job_.partition_(key, partitions)
              : static_cast<int>(Fnv1a64(record_) %
                                 static_cast<uint64_t>(partitions));
      KvCodec<V>::Encode(value, &record_);
      task_->output.Add(r, record_);
      ++task_->stats.pairs_out;
    }

   private:
    friend class MapReduceJob;
    MapContext(const MapReduceJob& job, MapTaskData* task)
        : TaskContext<MapTaskData>(task), job_(job) {}

    const MapReduceJob& job_;
    std::string record_;  // the pair being encoded
  };

  class ReduceContext : public TaskContext<ReduceTaskData> {
   public:
    void Emit(const K& key, const V& value) {
      KvCodec<K>::Encode(key, &task_->outputs);
      KvCodec<V>::Encode(value, &task_->outputs);
      ++task_->stats.pairs_out;
    }

   private:
    friend class MapReduceJob;
    using TaskContext<ReduceTaskData>::TaskContext;
  };

  using MapFn = std::function<void(const Record&, MapContext*)>;
  using ReduceFn =
      std::function<void(const K&, std::vector<V>*, ReduceContext*)>;
  using PartitionFn = std::function<int(const K&, int num_partitions)>;
  // Cleanup hook run after a reduce task's last group (Hadoop's cleanup()).
  using ReduceCleanupFn = std::function<void(ReduceContext*)>;

  struct Result : JobReport {
    // Reduce outputs concatenated in reduce-task order (within a task, in
    // emission order).
    std::vector<std::pair<K, V>> outputs;
  };

  MapReduceJob(int num_map_tasks, int num_reduce_tasks)
      : JobRuntime(num_map_tasks, num_reduce_tasks, KeyFormatOf<K>()) {}

  // Overrides the default hash partitioner.
  void set_partitioner(PartitionFn fn) { partition_ = std::move(fn); }

  // Cost units auto-charged per map input record (models record read +
  // key-extraction work).
  void set_map_cost_per_record(double cost) { map_cost_per_record_ = cost; }

  // Optional cleanup run at the end of each reduce task, after its last
  // group (may still charge cost and emit). Runs only on attempts that
  // complete — never on failed ones.
  void set_reduce_cleanup(ReduceCleanupFn fn) {
    reduce_cleanup_ = std::move(fn);
  }

  // Runs the job on `input` using `cluster` for both real thread parallelism
  // and the simulated time model. `submit_time` is when the job starts on
  // the simulated clock.
  Result Run(const std::vector<Record>& input, const MapFn& map_fn,
             const ReduceFn& reduce_fn, const ClusterConfig& cluster,
             double submit_time = 0.0) {
    Tasks tasks(*this, input, map_fn, reduce_fn);
    std::vector<std::string> encoded;
    Result result;
    static_cast<JobReport&>(result) = JobRuntime::Run(
        input.size(), tasks, cluster, submit_time, &encoded);
    for (const std::string& task_outputs : encoded) {
      DecodePairs(task_outputs, &result.outputs);
    }
    return result;
  }

 private:
  // Appends the (key, value) pairs encoded back to back in `bytes`. False
  // on bytes that do not decode — unreachable, since Emit wrote them.
  static bool DecodePairs(std::string_view bytes,
                          std::vector<std::pair<K, V>>* pairs) {
    for (size_t offset = 0; offset < bytes.size();) {
      std::pair<K, V>& kv = pairs->emplace_back();
      if (!KvCodec<K>::Decode(bytes, &offset, &kv.first) ||
          !KvCodec<V>::Decode(bytes, &offset, &kv.second)) {
        pairs->pop_back();
        return false;
      }
    }
    return true;
  }

  // Delivers a reduce attempt's groups: every group past the restored
  // checkpoint goes to the reduce call, then to the checkpoint hook. As the
  // merge's sink it also decodes a spilled partition's records, collecting
  // each key's values.
  class Groups final : public Shuffle::MergeSink {
   public:
    Groups(const MapReduceJob& job, const ReduceFn& reduce_fn,
           const ReduceAttempt& attempt, ReduceContext* ctx)
        : job_(job), reduce_fn_(reduce_fn), attempt_(attempt), ctx_(ctx) {}

    void Deliver(const K& key, std::vector<V>* values) {
      const int64_t group = next_group_++;
      if (group < attempt_.skip_groups) return;
      attempt_.task.stats.records_in += static_cast<int64_t>(values->size());
      reduce_fn_(key, values, ctx_);
      job_.MaybeCheckpoint(attempt_, group + 1);
    }

    bool Take(std::string_view in, size_t key_size, bool opens,
              size_t* size) override {
      size_t offset = key_size;
      if (opens) {
        offset = 0;
        if (!KvCodec<K>::Decode(in, &offset, &next_key_)) return false;
      }
      if (!KvCodec<V>::Decode(in, &offset, &value_)) return false;
      *size = offset;
      if (opens) {
        if (open_) Deliver(key_, &values_);
        std::swap(key_, next_key_);
        values_.clear();
        open_ = true;
      }
      values_.push_back(std::move(value_));
      return true;
    }

    void Finish() override { if (open_) Deliver(key_, &values_); }

   private:
    const MapReduceJob& job_;
    const ReduceFn& reduce_fn_;
    const ReduceAttempt& attempt_;
    ReduceContext* ctx_;
    int64_t next_group_ = 0;
    // The spilled partition's group being collected, and the record being
    // decoded.
    bool open_ = false;
    K key_{};
    std::vector<V> values_;
    K next_key_{};
    V value_{};
  };

  class Tasks final : public JobRuntime::Tasks {
   public:
    Tasks(const MapReduceJob& job, const std::vector<Record>& input,
          const MapFn& map_fn, const ReduceFn& reduce_fn)
        : job_(job), input_(input), map_fn_(map_fn), reduce_fn_(reduce_fn) {}

    void Map(MapTaskData* task, size_t begin, size_t end) override {
      MapContext ctx(job_, task);
      for (size_t i = begin; i < end; ++i) {
        task->clock.Charge(job_.map_cost_per_record_);
        map_fn_(input_[i], &ctx);
        ++task->stats.records_in;
      }
    }

    void Reduce(const ReduceAttempt& attempt) override {
      ReduceContext ctx(&attempt.task);
      Groups groups(job_, reduce_fn_, attempt, &ctx);
      if (attempt.merge.spilled()) {
        attempt.merge.ForEachGroup(attempt.limit, groups);
      } else if (!GroupInMemory(attempt, groups)) {
        attempt.merge.FailCorruptBlock();
      }
      if (!attempt.cut && job_.reduce_cleanup_) job_.reduce_cleanup_(&ctx);
    }

   private:
    // A partition with nothing spilled: decodes its blocks in task order
    // and stable-sorts the pairs, which is their merge, then groups them
    // in place, moving each value out once. For small records, sequential
    // decoding and moving decoded pairs beat an index sort followed by
    // decoding in scattered order. False on an undecodable block — a
    // logic error, since Emit wrote the bytes.
    static bool GroupInMemory(const ReduceAttempt& attempt, Groups& groups) {
      std::vector<std::pair<K, V>> pairs;
      pairs.reserve(attempt.merge.records());
      for (const Shuffle::MapOutput* m : attempt.maps) {
        for (const std::string& block : m->blocks(attempt.task.task_id)) {
          if (!DecodePairs(block, &pairs)) return false;
        }
      }
      std::stable_sort(pairs.begin(), pairs.end(),
                       [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
                         return a.first < b.first;
                       });
      for (size_t i = 0; i < pairs.size() && i < attempt.limit;) {
        size_t j = i + 1;
        while (j < pairs.size() && !(pairs[i].first < pairs[j].first)) ++j;
        std::vector<V> values;
        values.reserve(j - i);
        for (size_t k = i; k < j; ++k) {
          values.push_back(std::move(pairs[k].second));
        }
        groups.Deliver(pairs[i].first, &values);
        i = j;
      }
      return true;
    }

    const MapReduceJob& job_;
    const std::vector<Record>& input_;
    const MapFn& map_fn_;
    const ReduceFn& reduce_fn_;
  };

  PartitionFn partition_;
  double map_cost_per_record_ = 1.0;
  ReduceCleanupFn reduce_cleanup_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_JOB_H_
