#ifndef PROGRES_MAPREDUCE_SHUFFLE_H_
#define PROGRES_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mapreduce/fault.h"
#include "mapreduce/serde.h"
#include "mapreduce/spill.h"

namespace progres {

// The shuffle of one MapReduce job as a first-class component: the
// map-side KV block buffers (one chain per reduce partition), the
// spill-to-disk path that keeps a map task inside its memory budget, and
// the reduce-side merge. MapReduceJob composes a Shuffle with the
// task-attempt runner and the timing model; tests can exercise the shuffle
// in isolation.
//
// The shuffle never sees a key or value type. Records arrive encoded
// (MapContext::Emit in job.h runs the KvCodecs of serde.h and picks the
// partition) and stay encoded up to the reduce side. A spill never
// decodes: when a map task's buffered bytes cross its budget share, each
// partition's records are stable-sorted by the raw key order of the job's
// KeyFormat (serde.h), which equals decode-then-operator<, and appended
// as one run to the task's spill file (spill.h). The codecs are canonical,
// so a run holds exactly the bytes a decode/sort/re-encode would write.
//
// The component also *accounts* for the data crossing it: MeasureVolume
// reports the record count and the encoded bytes of a map task's output.
// The runtime exports these under the reserved "mr.shuffle.records" and
// "mr.shuffle.bytes" counters, and the spill machinery under "mr.spill.*"
// (see counters.h).
class Shuffle {
 public:
  // Memory policy of the map-side buffers, set by MapReduceJob::Run from
  // ClusterConfig::shuffle_budget. Disabled (the default) means buffers
  // grow without spilling — the reference in-memory behaviour.
  struct SpillConfig {
    bool enabled = false;
    // One map task's in-memory bound: the job-wide budget divided across
    // map tasks, floored at one block.
    int64_t task_buffer_bytes = 0;
    int64_t block_bytes = 256 * 1024;
    std::string dir;  // resolved, writable spill directory
    // Optional secondary spill directory (resolved). A map task whose
    // primary dir becomes unusable — planned ENOSPC, or a write-retry
    // budget exhausted — fails over here for the rest of the attempt
    // instead of failing the job. Empty means no fallback.
    std::string fallback_dir;
  };

  // Accounting of one reduce-side merge, reconciled against the
  // "mr.spill.merge_passes" counter and kSpillMerge trace spans.
  struct GatherStats {
    int64_t runs_merged = 0;      // spill-run segments fed into the merge
    int64_t spilled_records = 0;  // records read back from those segments
    int64_t spilled_bytes = 0;    // their encoded bytes
    std::string error;            // non-empty on spill read/decode failure
  };

  // Records and encoded bytes of one map task's output — what crosses the
  // map/reduce boundary, spilled runs included.
  struct Volume {
    int64_t records = 0;
    int64_t bytes = 0;
  };

  Shuffle(int num_partitions, KeyFormat key_format)
      : num_partitions_(std::max(1, num_partitions)),
        key_format_(key_format) {}

  void set_spill(SpillConfig config) { spill_ = std::move(config); }
  const SpillConfig& spill_config() const { return spill_; }

  // Map-side buffer of one map task: per-partition chains of encoded KV
  // blocks, spilled as sorted runs to one file per execution and directory
  // when the task's budget share fills. Reset discards a failed attempt's
  // records — and unlinks its spill files — so the retry starts from
  // scratch; the destructor unlinks the rest (winning outputs live until
  // the job's map tasks die).
  class MapOutput {
   public:
    // Storage-fault tallies of one map attempt's spill writes, merged into
    // the "mr.disk.*" counters from winning attempts only (Reset discards a
    // failed attempt's, like every other per-attempt artifact).
    struct DiskStats {
      int64_t write_errors = 0;     // failed write tries (injected or real)
      int64_t retries = 0;          // retried tries (== kSpillRetry spans)
      int64_t enospc = 0;           // planned full-disk discoveries
      int64_t torn_writes = 0;      // runs truncated after a "success"
      int64_t dir_failovers = 0;    // primary -> fallback switches
      double backoff_seconds = 0;   // modeled retry backoff, accumulated

      DiskStats& operator+=(const DiskStats& other) {
        write_errors += other.write_errors;
        retries += other.retries;
        enospc += other.enospc;
        torn_writes += other.torn_writes;
        dir_failovers += other.dir_failovers;
        backoff_seconds += other.backoff_seconds;
        return *this;
      }
    };

    MapOutput() = default;
    MapOutput(const MapOutput&) = delete;
    MapOutput& operator=(const MapOutput&) = delete;

    void Reset(const Shuffle& shuffle, int task);

    // Arms (or, with a null plan, disarms) storage-fault injection for the
    // attempt about to run. `generation` numbers this execution of the task
    // — attempt retries and barrier-triggered re-runs each bump it — so
    // every execution draws fresh fault decisions and names its spill files
    // uniquely (no collision with a stale file from a killed attempt).
    // Call after Reset: Reset clears the fault context.
    void ConfigureSpill(const FaultPlan* plan, int generation);

    // Starts this execution directly on the fallback spill dir — the disk
    // circuit breaker's global failover (supervisor.h): once one task has
    // discovered the primary dir full, later tasks skip the per-task
    // ENOSPC discovery and go straight to the fallback. Counts as a
    // dir_failover like the discovery path (false with no fallback
    // configured, leaving the sticky spill_error_). Call after
    // ConfigureSpill; only meaningful under job supervision.
    bool StartOnFallback() { return use_fallback_ || FailOver(); }

    // Appends one encoded (key, value) record to partition `partition`'s
    // block chain. Crossing the task's budget share triggers a spill.
    void Add(int partition, std::string_view record) {
      Bucket& bucket = buckets_[static_cast<size_t>(partition)];
      const SpillConfig& spill = shuffle_->spill_;
      const size_t cap =
          static_cast<size_t>(std::max<int64_t>(1, spill.block_bytes));
      if (bucket.blocks.empty() ||
          bucket.blocks.back().size() + record.size() > cap) {
        bucket.blocks.emplace_back();
        bucket.blocks.back().reserve(std::min(cap, record.size() + cap / 2));
      }
      bucket.blocks.back().append(record.data(), record.size());
      ++bucket.records;
      mem_bytes_ += static_cast<int64_t>(record.size());
      if (!spill.enabled) return;
      bucket.sizes.push_back(static_cast<uint32_t>(record.size()));
      if (spill_error_.empty() && mem_bytes_ >= spill.task_buffer_bytes) {
        Spill();
      }
    }

    // Partition `r`'s buffered blocks, in emission order; records never
    // straddle blocks.
    const std::vector<std::string>& blocks(int r) const {
      return buckets_[static_cast<size_t>(r)].blocks;
    }
    // The sorted runs this task has spilled so far (winning attempts only —
    // Reset removed any failed attempt's).
    const std::vector<SpillRun>& spill_runs() const { return runs_; }
    // Whether spill run `i` still reads back as written (ValidateSpillRun;
    // the last run of a file also checks the file's size).
    bool SpillRunIntact(size_t i) const;
    // Non-empty after a spill write failed; the job fails with it at the
    // map barrier (the buffered data stayed in memory, but the budget
    // contract is broken and the configuration needs fixing, not retrying).
    const std::string& spill_error() const { return spill_error_; }
    // Storage-fault tallies of this attempt's spill writes so far.
    const DiskStats& disk_stats() const { return disk_stats_; }

   private:
    friend class Shuffle;

    // One partition's buffered records: sealed blocks of at most
    // block_bytes each, their count, and, when spilling is enabled, each
    // record's encoded length in emission order — what a sort index walks
    // the blocks by.
    struct Bucket {
      std::vector<std::string> blocks;
      int64_t records = 0;
      std::vector<uint32_t> sizes;
    };

    void Spill();
    bool WriteRunWithFaults(std::string_view bytes,
                            const std::vector<SpillSegment>& segments,
                            SpillRun* run);
    bool AppendRun(std::string_view bytes,
                   const std::vector<SpillSegment>& segments, SpillRun* run);
    bool FailOver();
    const std::string& dir() const;

    const Shuffle* shuffle_ = nullptr;
    int task_ = 0;
    std::vector<Bucket> buckets_;
    std::vector<SpillRun> runs_;
    // The file the next run appends to; null before the first write and
    // after a torn write or a fail-over.
    std::shared_ptr<SpillFile> file_;
    int64_t mem_bytes_ = 0;
    Volume spilled_volume_;
    std::string spill_error_;
    // Storage-fault context of the current execution (see ConfigureSpill).
    const FaultPlan* fault_plan_ = nullptr;
    int generation_ = 0;
    bool use_fallback_ = false;
    DiskStats disk_stats_;
  };

  // The typed end of a merge: it decodes each record the merge hands it
  // and collects each key's records into one group for the reduce call.
  class MergeSink {
   public:
    // Decodes the record at the front of `in`, whose key takes its first
    // `key_size` bytes, and sets `*size` to the record's length. `opens`
    // marks the first record of a key: its key is decoded too, and only
    // then does the group collected so far go to the reduce call. False,
    // with nothing changed, when `in` ends inside the record.
    virtual bool Take(std::string_view in, size_t key_size, bool opens,
                      size_t* size) = 0;
    // The merge ended cleanly: the last group goes to the reduce call.
    virtual void Finish() = 0;

   protected:
    ~MergeSink() = default;
  };

  // Shuffle volume of one map task's output, spilled runs included.
  Volume MeasureVolume(const MapOutput& out) const;

  // Records of partition `r` across `maps`: the buffered counts plus the
  // spilled segments', read without decoding — what an intact merge of the
  // partition yields.
  static int64_t PartitionRecords(const std::vector<MapOutput*>& maps, int r);

  // Reduce-side merge of partition `r` from every map output. When part of
  // the partition was spilled, ForEachGroup streams its records in key
  // order from one source per non-empty spilled segment and one per task's
  // in-memory tail (its records copied in sorted order), all read through
  // chunked windows and numbered in (map task, run order, memory last)
  // order. A loser tree over the sources picks the next record: the
  // smallest raw key and, among equal keys, the lowest-numbered source.
  // That is the stable order of all-in-memory decoded pairs — equal keys
  // keep (map task, emission order) — because a task's runs hold earlier
  // emissions than its memory tail. A partition with nothing spilled has
  // no sources: the typed side decodes its blocks in task order and
  // stable-sorts them instead, the same order. Reading never consumes the
  // blocks or files, so a failed attempt's retry simply merges again.
  class Merge {
   public:
    Merge(const Shuffle& shuffle, const std::vector<MapOutput*>& maps, int r);
    Merge(const Merge&) = delete;
    Merge& operator=(const Merge&) = delete;

    // Whether any of the partition was spilled: ForEachGroup's case.
    bool spilled() const { return spilled_; }
    // Records an intact input yields: the sources' record counts.
    size_t records() const { return records_; }
    // Spill accounting of the merge; `error` labels a corrupt or unreadable
    // spill once ForEachGroup has run into it.
    const GatherStats& stats() const { return stats_; }
    // Labels the partition's in-memory blocks corrupt (the typed side's
    // decode of an unspilled partition failed).
    void FailCorruptBlock();

    // Streams the spilled partition into `sink`, one key's records at a
    // time, in key order. Groups whose first record sits at or past
    // position `limit` are not visited — the injected-failure cutoff of a
    // failing reduce attempt. Only whole groups reach the reduce call: when
    // the merge fails (stats().error), the group being collected may lack
    // records and never goes out, like every group after it.
    void ForEachGroup(size_t limit, MergeSink& sink);

   private:
    // One sorted stream: a spilled segment, or a task's in-memory tail
    // copied in sorted order, behind one chunked window. `key` is the raw
    // key of its next record and `key_size` that key's encoded length;
    // `done` marks the stream's end.
    struct Source {
      explicit Source(SpillSegmentReader segment)
          : reader(std::move(segment)) {}

      SpillSegmentReader reader;
      RawKey key;
      size_t key_size = 0;
      bool done = false;
    };

    bool Before(uint32_t a, uint32_t b) const;
    void BuildTree();
    void Replay(uint32_t s);
    void Peek(size_t s);
    bool Take(Source* source, bool opens, MergeSink& sink);

    KeyFormat key_format_;
    bool spilled_ = false;
    std::vector<Source> sources_;
    // Each source's head: the prefix of its next key, kExhausted at its
    // end. One contiguous array, so a match reads no reader buffer.
    std::vector<uint64_t> heads_;
    std::vector<uint32_t> tree_;  // see BuildTree
    size_t records_ = 0;
    GatherStats stats_;
  };

 private:
  using Bucket = MapOutput::Bucket;

  // Appends `bucket`'s records to `*out` stably sorted by raw key. False
  // when a key does not parse — a logic error, since Add wrote the bytes.
  bool AppendSorted(const Bucket& bucket, std::string* out) const;

  int num_partitions_;
  KeyFormat key_format_;
  SpillConfig spill_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_SHUFFLE_H_
