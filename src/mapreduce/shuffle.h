#ifndef PROGRES_MAPREDUCE_SHUFFLE_H_
#define PROGRES_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/fault.h"
#include "mapreduce/serde.h"
#include "mapreduce/spill.h"

namespace progres {

// The shuffle of one MapReduce job as a first-class component: it owns the
// partition function, the map-side KV block buffers (one chain per reduce
// partition), the spill-to-disk path that keeps a map task inside its
// memory budget, and the reduce-side gather/merge.
// MapReduceJob composes a Shuffle with the task-attempt runner and the
// timing model; tests can exercise the shuffle in isolation.
//
// Records are stored *encoded*: Emit serializes (key, value) through the
// KvCodec for K and V (serde.h) into fixed-size blocks, replacing the old
// per-partition std::vector<std::pair<K, V>>. When SpillConfig::enabled and
// a map task's buffered bytes cross its budget share, every partition is
// decoded, sorted (stably, by key), re-encoded and appended to a spill-run
// file (spill.h); GatherSorted then k-way merges the runs with the sorted
// in-memory tail. The merge's tie-break — (map task, run order, memory
// last) — reproduces exactly the stable_sort order of the all-in-memory
// path, so outputs are byte-identical with spilling off or forced on.
//
// The component also *accounts* for the data crossing it: MeasureVolume
// reports the record count and the encoded bytes of a map task's output.
// The runtime exports these under the reserved "mr.shuffle.records" and
// "mr.shuffle.bytes" counters, and the spill machinery under "mr.spill.*"
// (see counters.h).
template <typename K, typename V>
class Shuffle {
  static_assert(SerdeEncodable<K>,
                "Shuffle key type has no KvCodec specialization (serde.h); "
                "the encoded data plane cannot carry it");
  static_assert(SerdeEncodable<V>,
                "Shuffle value type has no KvCodec specialization (serde.h); "
                "the encoded data plane cannot carry it");

 public:
  using KV = std::pair<K, V>;
  using PartitionFn = std::function<int(const K&, int num_partitions)>;

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

  // Merge accounting of one GatherSorted call, reconciled against the
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

  explicit Shuffle(int num_partitions)
      : num_partitions_(std::max(1, num_partitions)),
        partition_([](const K& key, int r) {
          // FNV-1a over the encoded key: stable across standard libraries
          // and platforms, unlike std::hash. (MapOutput::Add hashes the
          // already-encoded key bytes instead of calling this, skipping
          // the second Encode; this lambda serves direct callers.)
          std::string encoded;
          KvCodec<K>::Encode(key, &encoded);
          return static_cast<int>(Fnv1a64(encoded) %
                                  static_cast<uint64_t>(r));
        }) {}

  void set_partitioner(PartitionFn fn) {
    partition_ = std::move(fn);
    default_partitioner_ = false;
  }
  void set_spill(SpillConfig config) { spill_ = std::move(config); }
  const SpillConfig& spill_config() const { return spill_; }

  // Map-side buffer of one map task: per-partition chains of encoded KV
  // blocks, spilled to sorted runs when the task's budget share fills.
  // Reset discards a failed attempt's pairs — and deletes its spill files —
  // so the retry starts from scratch. The destructor removes any remaining
  // run files (winning outputs live until the job's map contexts die).
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
    ~MapOutput() { DeleteSpillFiles(); }

    void Reset(const Shuffle& shuffle, int task) {
      shuffle_ = &shuffle;
      task_ = task;
      DeleteSpillFiles();
      runs_.clear();
      buckets_.clear();
      buckets_.resize(static_cast<size_t>(shuffle.num_partitions_));
      spill_crc_.assign(static_cast<size_t>(shuffle.num_partitions_), 0);
      mem_bytes_ = 0;
      spilled_volume_ = {};
      spill_error_.clear();
      fault_plan_ = nullptr;
      generation_ = 0;
      use_fallback_ = false;
      disk_stats_ = {};
    }

    // Arms (or, with a null plan, disarms) storage-fault injection for the
    // attempt about to run. `generation` numbers this execution of the task
    // — attempt retries and barrier-triggered re-runs each bump it — so
    // every execution draws fresh fault decisions and names its run files
    // uniquely (no collision with a stale file from a killed attempt).
    // Call after Reset: Reset clears the fault context.
    void ConfigureSpill(const FaultPlan* plan, int generation) {
      fault_plan_ = plan != nullptr && plan->HasDiskFaults() ? plan : nullptr;
      generation_ = generation;
    }

    // Starts this execution directly on the fallback spill dir — the disk
    // circuit breaker's global failover (supervisor.h): once one task has
    // discovered the primary dir full, later tasks skip the per-task
    // ENOSPC discovery and go straight to the fallback. Counts as a
    // dir_failover like the discovery path (false with no fallback
    // configured, leaving the sticky spill_error_). Call after
    // ConfigureSpill; only meaningful under job supervision.
    bool StartOnFallback() {
      if (use_fallback_) return true;
      return FailOver();
    }

    // Routes one pair to its partition's block chain, encoded. Crossing the
    // task's budget share triggers a spill.
    void Add(K key, V value) {
      scratch_.clear();
      KvCodec<K>::Encode(key, &scratch_);
      // The default partitioner is FNV-1a over the encoded key — hash the
      // bytes just written instead of encoding the key a second time.
      const int r =
          shuffle_->default_partitioner_
              ? static_cast<int>(
                    Fnv1a64(scratch_) %
                    static_cast<uint64_t>(shuffle_->num_partitions_))
              : shuffle_->partition_(key, shuffle_->num_partitions_);
      Bucket& bucket = buckets_[static_cast<size_t>(r)];
      KvCodec<V>::Encode(value, &scratch_);
      AppendEncoded(&bucket, scratch_);
      ++bucket.records;
      if (shuffle_->spill_.enabled && spill_error_.empty() &&
          mem_bytes_ >= shuffle_->spill_.task_buffer_bytes) {
        Spill();
      }
    }

    // The sorted runs this task has spilled so far (winning attempts only —
    // Reset removed any failed attempt's).
    const std::vector<SpillRun>& spill_runs() const { return runs_; }
    // Non-empty after a spill write failed; the job fails with it at the
    // map barrier (the buffered data stayed in memory, but the budget
    // contract is broken and the configuration needs fixing, not retrying).
    const std::string& spill_error() const { return spill_error_; }
    // Storage-fault tallies of this attempt's spill writes so far.
    const DiskStats& disk_stats() const { return disk_stats_; }

   private:
    friend class Shuffle;

    // One partition's buffered records: sealed blocks of at most
    // block_bytes each (records never straddle blocks) and their count.
    struct Bucket {
      std::vector<std::string> blocks;
      int64_t records = 0;
    };

    void AppendEncoded(Bucket* bucket, std::string_view record) {
      const size_t cap = static_cast<size_t>(
          std::max<int64_t>(1, shuffle_->spill_.block_bytes));
      if (bucket->blocks.empty() ||
          bucket->blocks.back().size() + record.size() > cap) {
        bucket->blocks.emplace_back();
        bucket->blocks.back().reserve(std::min(cap, record.size() + cap / 2));
      }
      bucket->blocks.back().append(record.data(), record.size());
      mem_bytes_ += static_cast<int64_t>(record.size());
    }

    // Sorts and writes every partition's buffered records as one spill
    // run, then resets the in-memory chains. On I/O failure the run is
    // dropped, the buffers stay, and spill_error_ carries the label.
    void Spill() {
      std::vector<std::string> payloads(
          static_cast<size_t>(shuffle_->num_partitions_));
      std::vector<int64_t> records(
          static_cast<size_t>(shuffle_->num_partitions_), 0);
      for (int r = 0; r < shuffle_->num_partitions_; ++r) {
        Bucket& bucket = buckets_[static_cast<size_t>(r)];
        std::vector<KV> pairs;
        std::string error;
        shuffle_->DecodeBucket(bucket, &pairs, &error);
        if (!error.empty()) {
          spill_error_ = error;
          return;
        }
        SortByKey(&pairs);
        std::string& payload = payloads[static_cast<size_t>(r)];
        for (const KV& kv : pairs) {
          KvCodec<K>::Encode(kv.first, &payload);
          KvCodec<V>::Encode(kv.second, &payload);
        }
        records[static_cast<size_t>(r)] = static_cast<int64_t>(pairs.size());
      }
      SpillRun run;
      if (!WriteRunWithFaults(payloads, records, &run)) return;
      for (int r = 0; r < shuffle_->num_partitions_; ++r) {
        const std::string& payload = payloads[static_cast<size_t>(r)];
        spill_crc_[static_cast<size_t>(r)] =
            Crc32(payload, spill_crc_[static_cast<size_t>(r)]);
        spilled_volume_.records += records[static_cast<size_t>(r)];
        spilled_volume_.bytes += static_cast<int64_t>(payload.size());
      }
      runs_.push_back(std::move(run));
      buckets_.clear();
      buckets_.resize(static_cast<size_t>(shuffle_->num_partitions_));
      mem_bytes_ = 0;
    }

    // Writes the run under the storage-fault discipline: a planned ENOSPC
    // on the task's first primary write fails the whole attempt over to the
    // fallback dir; transient write errors (injected by the plan, or real)
    // are retried with modeled backoff up to the plan's budget, exhaustion
    // failing over too; with no fallback available the attempt keeps the
    // existing sticky spill_error_ behaviour. After a successful *primary*
    // write the plan may materialize a torn write (truncated tail) or a
    // flipped byte — silent here, caught by ValidateSpillRun at the map
    // barrier. Fallback-dir writes are injection-free, so re-runs converge.
    // False when spill_error_ was set (the run is dropped, buffers stay).
    bool WriteRunWithFaults(const std::vector<std::string>& payloads,
                            const std::vector<int64_t>& records,
                            SpillRun* run) {
      const int run_index = static_cast<int>(runs_.size());
      const FaultPlan* plan = fault_plan_;
      if (!use_fallback_ && plan != nullptr &&
          plan->SpillPrimaryFull(task_)) {
        ++disk_stats_.enospc;
        if (!FailOver()) return false;
      }
      const int max_retries =
          plan != nullptr ? plan->max_spill_retries() : 0;
      int tries = 0;
      for (;;) {
        const bool injected_error =
            !use_fallback_ && plan != nullptr &&
            plan->SpillWriteError(task_, run_index, generation_, tries);
        const bool ok =
            !injected_error &&
            WriteSpillRun(NextSpillPath(dir(), task_, generation_), payloads,
                          records, run);
        if (ok) break;
        ++disk_stats_.write_errors;
        if (tries < max_retries) {
          ++tries;
          ++disk_stats_.retries;
          if (plan != nullptr) {
            disk_stats_.backoff_seconds += plan->spill_retry_backoff_seconds();
          }
          continue;
        }
        // Retry budget exhausted: this directory is unusable.
        if (!use_fallback_ && plan != nullptr) {
          if (!FailOver()) return false;
          tries = 0;
          continue;
        }
        spill_error_ = "spill write failed in " + dir() + " (map task " +
                       std::to_string(task_) + ")";
        return false;
      }
      if (!use_fallback_ && plan != nullptr && run->bytes > 0) {
        if (plan->SpillTornWrite(task_, run_index, generation_)) {
          if (TruncateSpillFile(run->path, run->bytes - 1)) {
            ++disk_stats_.torn_writes;
          }
        } else if (plan->SpillCorrupted(task_, run_index, generation_)) {
          CorruptSpillByte(
              run->path,
              static_cast<int64_t>(plan->SpillCorruptOffset(
                  task_, run_index, generation_,
                  static_cast<uint64_t>(run->bytes))));
        }
      }
      return true;
    }

    // Switches this attempt's remaining spill writes to the fallback dir.
    // Without one configured, sets the labelled sticky spill_error_.
    bool FailOver() {
      if (shuffle_->spill_.fallback_dir.empty()) {
        spill_error_ = "spill dir " + shuffle_->spill_.dir +
                       " unusable and no fallback spill dir configured "
                       "(map task " + std::to_string(task_) + ")";
        return false;
      }
      use_fallback_ = true;
      ++disk_stats_.dir_failovers;
      return true;
    }

    // The directory this attempt's next spill write targets.
    const std::string& dir() const {
      return use_fallback_ ? shuffle_->spill_.fallback_dir
                           : shuffle_->spill_.dir;
    }

    void DeleteSpillFiles() {
      for (const SpillRun& run : runs_) RemoveSpillFile(run.path);
      runs_.clear();
    }

    const Shuffle* shuffle_ = nullptr;
    int task_ = 0;
    std::vector<Bucket> buckets_;
    std::vector<SpillRun> runs_;
    // Per-partition CRC32 chained over the spilled segments, in run order;
    // PartitionChecksum continues it over the in-memory blocks.
    std::vector<uint32_t> spill_crc_;
    int64_t mem_bytes_ = 0;
    Volume spilled_volume_;
    std::string spill_error_;
    std::string scratch_;
    // Storage-fault context of the current execution (see ConfigureSpill).
    const FaultPlan* fault_plan_ = nullptr;
    int generation_ = 0;
    bool use_fallback_ = false;
    DiskStats disk_stats_;
  };

  // Shuffle volume of one map task's output, spilled runs included.
  Volume MeasureVolume(const MapOutput& out) const {
    Volume volume = out.spilled_volume_;
    for (const auto& bucket : out.buckets_) {
      volume.records += bucket.records;
      volume.bytes += BucketBytes(bucket);
    }
    return volume;
  }

  // CRC32 of partition `r` of a finished map output — the checksum shipped
  // alongside the partition so the consuming reduce task can verify its
  // fetch. With the encoded data plane the checksum covers the partition's
  // actual byte stream: the spilled segments (chained in write order) and
  // then the buffered blocks — exactly what a length-prefixed transfer
  // would put on the wire, detecting flipped payload bytes the same way
  // Hadoop's IFile checksum does.
  uint32_t PartitionChecksum(const MapOutput& out, int r) const {
    uint32_t crc = out.spill_crc_[static_cast<size_t>(r)];
    for (const std::string& block :
         out.buckets_[static_cast<size_t>(r)].blocks) {
      crc = Crc32(block, crc);
    }
    return crc;
  }

  // Reduce-side merge: partition `r` from every map output, sorted by key.
  // Without spills this decodes the buffered blocks in map-task order and
  // stable_sorts — the reference order, where equal keys keep (map task,
  // emission order). With spills it k-way merges each task's runs (in run
  // order, each already sorted and internally stable) with its sorted
  // in-memory tail, tie-breaking on source order — which reproduces the
  // reference order bit for bit, because a task's runs hold earlier
  // emissions than its memory tail. Decoding never consumes the underlying
  // blocks or files, so a failed attempt's retry simply gathers again —
  // move-only payloads included (the old copying gather silently returned
  // empty for those; the codec path has no copy to refuse).
  std::vector<KV> GatherSorted(const std::vector<MapOutput*>& maps, int r,
                               GatherStats* stats = nullptr) const {
    GatherStats local;
    GatherStats& gs = stats != nullptr ? *stats : local;
    gs = GatherStats{};
    bool any_runs = false;
    for (const MapOutput* m : maps) {
      if (!m->runs_.empty()) any_runs = true;
    }
    std::vector<KV> pairs;
    if (!any_runs) {
      // Fast path: the all-in-memory reference merge.
      size_t total = 0;
      for (const MapOutput* m : maps) {
        total += static_cast<size_t>(
            m->buckets_[static_cast<size_t>(r)].records);
      }
      pairs.reserve(total);
      for (const MapOutput* m : maps) {
        DecodeBucket(m->buckets_[static_cast<size_t>(r)], &pairs, &gs.error);
        if (!gs.error.empty()) return {};
      }
      SortByKey(&pairs);
      return pairs;
    }

    // External merge: one source per non-empty spill segment plus one per
    // task's in-memory tail, in (map task, run order, memory last) order.
    std::vector<std::unique_ptr<MergeSource>> sources;
    size_t total = 0;
    for (const MapOutput* m : maps) {
      for (const SpillRun& run : m->runs_) {
        const SpillSegment& segment = run.segments[static_cast<size_t>(r)];
        if (segment.bytes == 0) continue;
        auto source = std::make_unique<MergeSource>();
        source->reader = std::make_unique<SpillSegmentReader>(
            run.path, segment,
            static_cast<size_t>(std::max<int64_t>(1, spill_.block_bytes)));
        sources.push_back(std::move(source));
        total += static_cast<size_t>(segment.records);
        ++gs.runs_merged;
        gs.spilled_records += segment.records;
        gs.spilled_bytes += segment.bytes;
      }
      const auto& bucket = m->buckets_[static_cast<size_t>(r)];
      if (bucket.records > 0) {
        auto source = std::make_unique<MergeSource>();
        DecodeBucket(bucket, &source->mem, &gs.error);
        if (!gs.error.empty()) return {};
        SortByKey(&source->mem);
        sources.push_back(std::move(source));
        total += static_cast<size_t>(bucket.records);
      }
    }
    for (size_t i = 0; i < sources.size(); ++i) {
      sources[i]->index = i;
      if (!AdvanceSource(sources[i].get(), &gs.error)) {
        if (!gs.error.empty()) return {};
      }
    }
    const auto after = [](const MergeSource* a, const MergeSource* b) {
      // True when `a` pops after `b`: larger key, or equal key from a later
      // source (the stability tie-break).
      if (b->current.first < a->current.first) return true;
      if (a->current.first < b->current.first) return false;
      return a->index > b->index;
    };
    std::priority_queue<MergeSource*, std::vector<MergeSource*>,
                        decltype(after)>
        heap(after);
    for (const auto& source : sources) {
      if (source->has) heap.push(source.get());
    }
    pairs.reserve(total);
    while (!heap.empty()) {
      MergeSource* source = heap.top();
      heap.pop();
      pairs.push_back(std::move(source->current));
      if (AdvanceSource(source, &gs.error)) {
        heap.push(source);
      } else if (!gs.error.empty()) {
        return {};
      }
    }
    return pairs;
  }

  // Invokes fn(key, &values) once per distinct key of the sorted `pairs`,
  // in key order, moving values out. Groups whose first pair sits at or
  // past `limit` are not visited — the injected-failure cutoff of a
  // failing reduce attempt.
  template <typename Fn>
  static void ForEachGroup(std::vector<KV>* pairs, size_t limit, Fn&& fn) {
    size_t i = 0;
    while (i < pairs->size()) {
      if (i >= limit) break;
      size_t j = i;
      while (j < pairs->size() &&
             !((*pairs)[i].first < (*pairs)[j].first)) {
        ++j;
      }
      std::vector<V> values;
      values.reserve(j - i);
      for (size_t k = i; k < j; ++k) {
        values.push_back(std::move((*pairs)[k].second));
      }
      fn((*pairs)[i].first, &values);
      i = j;
    }
  }

 private:
  // One sorted stream feeding the k-way merge: a spill segment (buffered
  // file reads) or a task's decoded in-memory tail.
  struct MergeSource {
    std::unique_ptr<SpillSegmentReader> reader;
    std::vector<KV> mem;
    size_t mem_pos = 0;
    size_t index = 0;
    KV current;
    bool has = false;
  };

  // Pulls the next record into source->current. False at end of stream or
  // on error (`*error` then labels the corrupt/unreadable spill).
  static bool AdvanceSource(MergeSource* source, std::string* error) {
    if (source->reader == nullptr) {
      if (source->mem_pos >= source->mem.size()) {
        source->has = false;
        return false;
      }
      source->current = std::move(source->mem[source->mem_pos++]);
      source->has = true;
      return true;
    }
    SpillSegmentReader& reader = *source->reader;
    for (;;) {
      const std::string_view window = reader.window();
      size_t offset = 0;
      K key;
      V value;
      if (KvCodec<K>::Decode(window, &offset, &key) &&
          KvCodec<V>::Decode(window, &offset, &value)) {
        reader.Consume(offset);
        source->current = KV(std::move(key), std::move(value));
        source->has = true;
        return true;
      }
      // A failed decode mid-window means the record straddles the chunk
      // boundary: refill and retry. At end of segment, leftover bytes (or
      // an I/O error) mean corruption.
      if (!reader.Refill()) {
        source->has = false;
        if (!reader.ok()) {
          *error = "spill read failed";
        } else if (!reader.window().empty()) {
          *error = "corrupt spill record";
        }
        return false;
      }
    }
  }

  // Decodes every record of a bucket's block chain, appending to `*pairs`.
  // Blocks end at record boundaries, so a failed decode is a logic error
  // surfaced through `*error` rather than silently dropped data.
  void DecodeBucket(const typename MapOutput::Bucket& bucket,
                    std::vector<KV>* pairs, std::string* error) const {
    pairs->reserve(pairs->size() + static_cast<size_t>(bucket.records));
    for (const std::string& block : bucket.blocks) {
      const std::string_view view(block);
      size_t offset = 0;
      while (offset < view.size()) {
        K key;
        V value;
        if (!KvCodec<K>::Decode(view, &offset, &key) ||
            !KvCodec<V>::Decode(view, &offset, &value)) {
          *error = "corrupt in-memory shuffle block";
          return;
        }
        pairs->emplace_back(std::move(key), std::move(value));
      }
    }
  }

  // Stable sort by key: equal keys keep their emission order. Shared by
  // the spill writer and the reduce-side gather.
  static void SortByKey(std::vector<KV>* pairs) {
    std::stable_sort(pairs->begin(), pairs->end(),
                     [](const KV& a, const KV& b) {
                       return a.first < b.first;
                     });
  }

  static int64_t BucketBytes(const typename MapOutput::Bucket& bucket) {
    int64_t bytes = 0;
    for (const std::string& block : bucket.blocks) {
      bytes += static_cast<int64_t>(block.size());
    }
    return bytes;
  }

  int num_partitions_;
  PartitionFn partition_;
  // True until set_partitioner replaces the FNV-1a default; lets Add hash
  // the encoded key bytes it just wrote rather than re-encoding the key.
  bool default_partitioner_ = true;
  SpillConfig spill_;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_SHUFFLE_H_
