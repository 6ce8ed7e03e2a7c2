#ifndef PROGRES_MAPREDUCE_SHUFFLE_H_
#define PROGRES_MAPREDUCE_SHUFFLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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
// Records stay *encoded* from Emit to the reduce side. Emit serializes
// (key, value) through the KvCodecs of K and V (serde.h) into fixed-size
// blocks and, when SpillConfig::enabled, notes the record's length. A
// spill never decodes: an index of (raw key, record bytes) entries is
// stable-sorted by the key codec's raw order, which equals
// decode-then-operator<. When a map task's buffered bytes cross its budget
// share, each partition's index is sorted and its record bytes are
// appended, in that order, as one run to the task's spill file (spill.h);
// the codecs are canonical, so a run holds exactly the bytes a
// decode/sort/re-encode would write. Merge k-way merges, on raw keys,
// every task's spilled segments (chunked positioned reads) and sorted
// in-memory tail, tie-breaking on source order — (map task, run order,
// memory last) — which reproduces the stable_sort order of decoded pairs
// exactly, so outputs are byte-identical with spilling off or forced on.
// Each record is decoded once, on its way to the reduce call.
//
// The component also *accounts* for the data crossing it: MeasureVolume
// reports the record count and the encoded bytes of a map task's output.
// The runtime exports these under the reserved "mr.shuffle.records" and
// "mr.shuffle.bytes" counters, and the spill machinery under "mr.spill.*"
// (see counters.h).
template <typename K, typename V>
class Shuffle {
  static_assert(RawOrderedKey<K>,
                "Shuffle key type has no raw-ordered KvCodec specialization "
                "(serde.h); the encoded data plane cannot sort it");
  static_assert(SerdeEncodable<V>,
                "Shuffle value type has no KvCodec specialization (serde.h); "
                "the encoded data plane cannot carry it");
  using RawKey = typename KvCodec<K>::RawKey;

  // One buffered record in a sort index: its raw key and its bytes.
  struct IndexEntry {
    RawKey key;
    const char* data;
    uint32_t size;
  };

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
  // blocks, spilled as sorted runs to one file per execution and directory
  // when the task's budget share fills. Reset discards a failed attempt's
  // pairs — and unlinks its spill files — so the retry starts from scratch;
  // the destructor unlinks the rest (winning outputs live until the job's
  // map contexts die).
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

    void Reset(const Shuffle& shuffle, int task) {
      shuffle_ = &shuffle;
      task_ = task;
      runs_.clear();
      file_.reset();
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
    // every execution draws fresh fault decisions and names its spill files
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
    void Add(const K& key, const V& value) {
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
      KvCodec<V>::Encode(value, &scratch_);
      AppendEncoded(&buckets_[static_cast<size_t>(r)], scratch_);
      if (shuffle_->spill_.enabled && spill_error_.empty() &&
          mem_bytes_ >= shuffle_->spill_.task_buffer_bytes) {
        Spill();
      }
    }

    // The sorted runs this task has spilled so far (winning attempts only —
    // Reset removed any failed attempt's).
    const std::vector<SpillRun>& spill_runs() const { return runs_; }
    // Whether spill run `i` still reads back as written (ValidateSpillRun;
    // the last run of a file also checks the file's size).
    bool SpillRunIntact(size_t i) const {
      const bool last_in_file =
          i + 1 == runs_.size() || runs_[i + 1].file != runs_[i].file;
      return ValidateSpillRun(runs_[i], last_in_file);
    }
    // Non-empty after a spill write failed; the job fails with it at the
    // map barrier (the buffered data stayed in memory, but the budget
    // contract is broken and the configuration needs fixing, not retrying).
    const std::string& spill_error() const { return spill_error_; }
    // Storage-fault tallies of this attempt's spill writes so far.
    const DiskStats& disk_stats() const { return disk_stats_; }

   private:
    friend class Shuffle;

    // One partition's buffered records: sealed blocks of at most
    // block_bytes each (records never straddle blocks), their count, and,
    // when spilling is enabled, each record's encoded length in emission
    // order — what a sort index walks the blocks by.
    struct Bucket {
      std::vector<std::string> blocks;
      int64_t records = 0;
      std::vector<uint32_t> sizes;
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
      ++bucket->records;
      if (shuffle_->spill_.enabled) {
        bucket->sizes.push_back(static_cast<uint32_t>(record.size()));
      }
      mem_bytes_ += static_cast<int64_t>(record.size());
    }

    // Appends every partition's buffered records, sorted by raw key, as
    // one spill run, then resets the in-memory chains. On I/O failure the
    // run is dropped, the buffers stay, and spill_error_ carries the label.
    void Spill() {
      const size_t partitions = buckets_.size();
      std::string bytes;
      std::vector<SpillSegment> segments(partitions);
      std::vector<IndexEntry> index;
      for (size_t r = 0; r < partitions; ++r) {
        index.clear();
        if (!IndexBucket(buckets_[r], &index)) {
          spill_error_ = "corrupt in-memory shuffle block";
          return;
        }
        SortIndex(&index);
        segments[r].offset = static_cast<int64_t>(bytes.size());
        for (const IndexEntry& entry : index) {
          bytes.append(entry.data, entry.size);
        }
        segments[r].bytes =
            static_cast<int64_t>(bytes.size()) - segments[r].offset;
        segments[r].records = static_cast<int64_t>(index.size());
      }
      SpillRun run;
      if (!WriteRunWithFaults(bytes, segments, &run)) return;
      for (size_t r = 0; r < partitions; ++r) {
        spill_crc_[r] = Crc32(
            std::string_view(bytes).substr(
                static_cast<size_t>(segments[r].offset),
                static_cast<size_t>(segments[r].bytes)),
            spill_crc_[r]);
      }
      spilled_volume_.records += run.records;
      spilled_volume_.bytes += run.bytes;
      runs_.push_back(std::move(run));
      buckets_.clear();
      buckets_.resize(partitions);
      mem_bytes_ = 0;
    }

    // Writes the run under the storage-fault discipline: a planned ENOSPC
    // on the task's first primary write fails the whole attempt over to the
    // fallback dir; transient write errors (injected by the plan, or real)
    // are retried with modeled backoff up to the plan's budget, exhaustion
    // failing over too; with no fallback available the attempt keeps the
    // existing sticky spill_error_ behaviour. After a successful *primary*
    // write the plan may materialize a torn write (truncated tail), which
    // ends the file, or a flipped byte — silent here, caught by
    // ValidateSpillRun at the map barrier. Fallback-dir writes are
    // injection-free, so re-runs converge. False when spill_error_ was set
    // (the run is dropped, buffers stay).
    bool WriteRunWithFaults(std::string_view bytes,
                            const std::vector<SpillSegment>& segments,
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
        if (!injected_error && AppendRun(bytes, segments, run)) break;
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
          if (file_->Truncate(run->offset + run->bytes - 1)) {
            ++disk_stats_.torn_writes;
          }
          file_.reset();  // the next run starts a new file
        } else if (plan->SpillCorrupted(task_, run_index, generation_)) {
          file_->FlipByte(
              run->offset +
              static_cast<int64_t>(plan->SpillCorruptOffset(
                  task_, run_index, generation_,
                  static_cast<uint64_t>(run->bytes))));
        }
      }
      return true;
    }

    // Appends the run to this execution's file in the current directory,
    // creating the file on first use.
    bool AppendRun(std::string_view bytes,
                   const std::vector<SpillSegment>& segments, SpillRun* run) {
      if (file_ == nullptr) {
        auto file = std::make_shared<SpillFile>(
            NextSpillPath(dir(), task_, generation_));
        if (!file->ok()) return false;
        file_ = std::move(file);
      }
      return AppendSpillRun(file_, bytes, segments, run);
    }

    // Switches this attempt's remaining spill writes to a new file in the
    // fallback dir. Without one configured, sets the labelled sticky
    // spill_error_.
    bool FailOver() {
      if (shuffle_->spill_.fallback_dir.empty()) {
        spill_error_ = "spill dir " + shuffle_->spill_.dir +
                       " unusable and no fallback spill dir configured "
                       "(map task " + std::to_string(task_) + ")";
        return false;
      }
      use_fallback_ = true;
      file_.reset();
      ++disk_stats_.dir_failovers;
      return true;
    }

    // The directory this attempt's next spill write targets.
    const std::string& dir() const {
      return use_fallback_ ? shuffle_->spill_.fallback_dir
                           : shuffle_->spill_.dir;
    }

    const Shuffle* shuffle_ = nullptr;
    int task_ = 0;
    std::vector<Bucket> buckets_;
    std::vector<SpillRun> runs_;
    // The file the next run appends to; null before the first write and
    // after a torn write or a fail-over.
    std::shared_ptr<SpillFile> file_;
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
      for (const std::string& block : bucket.blocks) {
        volume.bytes += static_cast<int64_t>(block.size());
      }
    }
    return volume;
  }

  // Records of partition `r` across `maps`: the buffered counts plus the
  // spilled segments', read without decoding — what an intact merge of the
  // partition yields.
  static int64_t PartitionRecords(const std::vector<MapOutput*>& maps,
                                  int r) {
    int64_t records = 0;
    for (const MapOutput* m : maps) {
      records += m->buckets_[static_cast<size_t>(r)].records;
      for (const SpillRun& run : m->runs_) {
        records += run.segments[static_cast<size_t>(r)].records;
      }
    }
    return records;
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

  // Reduce-side merge of partition `r` from every map output: its records
  // in key order, each decoded once. When part of the partition was
  // spilled, records are decoded as the reduce loop asks for them: one
  // source per non-empty spilled segment, read in chunks of at most
  // block_bytes, and one per task's in-memory tail, sorted through its
  // index, numbered in (map task, run order, memory last) order. A loser
  // tree over the sources picks the next record: the smallest raw key and,
  // among equal keys, the lowest-numbered source. That is the stable order
  // of all-in-memory decoded pairs — equal keys keep (map task, emission
  // order) — because a task's runs hold earlier emissions than its memory
  // tail, and such a merge holds encoded bytes and indexes, never the
  // decoded partition. A partition with nothing spilled is decoded in task
  // order and stable-sorted instead, the same order. Reading never
  // consumes the blocks or files, so a failed attempt's retry simply
  // merges again.
  class Merge {
   public:
    Merge(const Shuffle& shuffle, const std::vector<MapOutput*>& maps,
          int r)
        : records_(static_cast<size_t>(PartitionRecords(maps, r))) {
      const size_t chunk = static_cast<size_t>(
          std::max<int64_t>(1, shuffle.spill_.block_bytes));
      bool spilled = false;
      for (const MapOutput* m : maps) {
        for (const SpillRun& run : m->runs_) {
          spilled = spilled || run.segments[static_cast<size_t>(r)].bytes > 0;
        }
      }
      if (!spilled) {
        // Nothing of the partition left memory: decode the tails in task
        // order and stable-sort the pairs, which is their merge. For small
        // records, sequential decoding and moving decoded pairs beat an
        // index sort followed by decoding in scattered order.
        memory_.reserve(records_);
        for (const MapOutput* m : maps) {
          if (!DecodeBucket(m->buckets_[static_cast<size_t>(r)], &memory_)) {
            stats_.error = "corrupt in-memory shuffle block";
            return;
          }
        }
        std::stable_sort(memory_.begin(), memory_.end(),
                         [](const KV& a, const KV& b) {
                           return a.first < b.first;
                         });
        return;
      }
      for (const MapOutput* m : maps) {
        for (const SpillRun& run : m->runs_) {
          const SpillSegment& segment = run.segments[static_cast<size_t>(r)];
          if (segment.bytes == 0) continue;
          MergeSource& source = sources_.emplace_back();
          source.reader =
              std::make_unique<SpillSegmentReader>(*run.file, segment, chunk);
          ++stats_.runs_merged;
          stats_.spilled_records += segment.records;
          stats_.spilled_bytes += segment.bytes;
        }
        const Bucket& bucket = m->buckets_[static_cast<size_t>(r)];
        if (bucket.records == 0) continue;
        MergeSource& source = sources_.emplace_back();
        source.index.reserve(bucket.sizes.size());
        if (!IndexBucket(bucket, &source.index)) {
          stats_.error = "corrupt in-memory shuffle block";
          return;
        }
        SortIndex(&source.index);
      }
      heads_.resize(sources_.size());
      for (size_t i = 0; i < sources_.size(); ++i) {
        Peek(i);
        if (!stats_.error.empty()) return;
      }
      BuildTree();
    }
    Merge(const Merge&) = delete;
    Merge& operator=(const Merge&) = delete;

    // Records an intact input yields: the sources' record counts.
    size_t records() const { return records_; }
    // Spill accounting of the merge; `error` labels a corrupt or unreadable
    // spill once ForEachGroup has run into it.
    const GatherStats& stats() const { return stats_; }

    // Invokes fn(key, &values) once per distinct key of the merge, in key
    // order. Groups whose first record sits at or past position `limit`
    // are not visited — the injected-failure cutoff of a failing reduce
    // attempt. Only whole groups reach `fn`: when the merge fails
    // (stats().error), the group it was collecting may lack records and is
    // dropped, like every group after it.
    template <typename Fn>
    void ForEachGroup(size_t limit, Fn&& fn) {
      if (!stats_.error.empty()) return;
      if (sources_.empty()) {
        // The sorted in-memory partition: group it in place, moving each
        // value out once.
        for (size_t i = 0; i < memory_.size() && i < limit;) {
          size_t j = i + 1;
          while (j < memory_.size() &&
                 !(memory_[i].first < memory_[j].first)) {
            ++j;
          }
          std::vector<V> values;
          values.reserve(j - i);
          for (size_t k = i; k < j; ++k) {
            values.push_back(std::move(memory_[k].second));
          }
          fn(memory_[i].first, &values);
          i = j;
        }
        return;
      }
      KV next;
      bool more = Next(&next);
      for (size_t i = 0; more && i < limit;) {
        K key = std::move(next.first);
        std::vector<V> values;
        values.push_back(std::move(next.second));
        ++i;
        while ((more = Next(&next)) && !(key < next.first)) {
          values.push_back(std::move(next.second));
          ++i;
        }
        if (!stats_.error.empty()) return;
        fn(key, &values);
      }
    }

   private:
    // One sorted stream: a spilled segment (chunked positioned reads) or a
    // task's in-memory records under their sorted index. `key` is the raw
    // key of the stream's next record; `done` marks the stream's end.
    struct MergeSource {
      std::unique_ptr<SpillSegmentReader> reader;
      std::vector<IndexEntry> index;
      size_t next = 0;
      RawKey key{};
      bool done = false;
    };

    // The head prefix of an exhausted source. A live key can share it (the
    // largest integers), so Before checks `done` on a tie at this value.
    static constexpr uint64_t kExhausted = ~uint64_t{0};

    // True when source `a`'s next record merges before source `b`'s: by
    // raw key, then by source number; exhausted sources lose every match.
    // The cached prefixes decide unless they are equal. Equal prefixes
    // that hold their whole keys go to the lower-numbered source without
    // reading any key; only keys that share a prefix and run past it are
    // compared with RawLess.
    bool Before(uint32_t a, uint32_t b) const {
      const uint64_t prefix = heads_[a];
      if (prefix != heads_[b]) return prefix < heads_[b];
      const MergeSource& x = sources_[a];
      const MergeSource& y = sources_[b];
      if (prefix == kExhausted && (x.done || y.done)) {
        return x.done == y.done ? a < b : y.done;
      }
      if (!KvCodec<K>::PrefixIsKey(prefix)) {
        if (KvCodec<K>::RawLess(x.key, y.key)) return true;
        if (KvCodec<K>::RawLess(y.key, x.key)) return false;
      }
      return a < b;
    }

    // Builds the loser tree over the sources' heads: source i is leaf
    // k + i of a heap-shaped tree with k leaves; internal node n (1 <= n <
    // k) keeps the loser of the match between its children's winners, and
    // tree_[0] the overall winner.
    void BuildTree() {
      const size_t k = sources_.size();
      tree_.assign(k, 0);
      if (k == 0) return;
      std::vector<uint32_t> winner(k, 0);
      const auto winner_of = [&](size_t node) {
        return node >= k ? static_cast<uint32_t>(node - k) : winner[node];
      };
      for (size_t n = k - 1; n >= 1; --n) {
        const uint32_t left = winner_of(2 * n);
        const uint32_t right = winner_of(2 * n + 1);
        const bool right_wins = Before(right, left);
        winner[n] = right_wins ? right : left;
        tree_[n] = right_wins ? left : right;
      }
      tree_[0] = winner_of(1);
    }

    // Replays source `s`'s matches on its path to the root after its head
    // changed: at each node the stored loser and the climbing winner meet
    // again, and the new winner climbs on.
    void Replay(uint32_t s) {
      uint32_t winner = s;
      for (size_t n = (sources_.size() + s) / 2; n >= 1; n /= 2) {
        if (Before(tree_[n], winner)) std::swap(tree_[n], winner);
      }
      tree_[0] = winner;
    }

    // Decodes the tree winner's next record into `*out`. False at the end,
    // or on error.
    bool Next(KV* out) {
      if (!stats_.error.empty() || sources_.empty()) return false;
      const uint32_t s = tree_[0];
      MergeSource& source = sources_[s];
      if (source.done) return false;
      if (!Take(&source, out)) return false;
      // `*out` is whole even when the source's next key fails to parse;
      // that error ends the merge at the next call.
      Peek(s);
      Replay(s);
      return true;
    }

    // Points source `s`'s key and cached head prefix at its next record,
    // or marks it done at the end of the stream or on error.
    void Peek(size_t s) {
      MergeSource& source = sources_[s];
      if (ParseNextKey(&source)) {
        heads_[s] = KvCodec<K>::RawPrefix(source.key);
      } else {
        source.done = true;
        heads_[s] = kExhausted;
      }
    }

    // Points source->key at the raw key of the next record. False at the
    // end of the stream, or on error.
    bool ParseNextKey(MergeSource* source) {
      if (source->reader == nullptr) {
        if (source->next == source->index.size()) return false;
        source->key = source->index[source->next].key;
        return true;
      }
      SpillSegmentReader& reader = *source->reader;
      for (;;) {
        size_t offset = 0;
        if (KvCodec<K>::ParseRaw(reader.window(), &offset, &source->key)) {
          return true;
        }
        // A key cut by the chunk boundary: refill and retry. At the end of
        // the segment, leftover bytes (or an I/O error) mean corruption.
        if (!reader.Refill()) {
          if (!reader.ok()) {
            stats_.error = "spill read failed";
          } else if (!reader.window().empty()) {
            stats_.error = "corrupt spill record";
          }
          return false;
        }
      }
    }

    // Decodes the record Peek found into `*out` — its one decode — and
    // moves past it. False on error.
    bool Take(MergeSource* source, KV* out) {
      if (source->reader == nullptr) {
        const IndexEntry& entry = source->index[source->next++];
        const std::string_view record(entry.data, entry.size);
        size_t offset = 0;
        if (KvCodec<K>::Decode(record, &offset, &out->first) &&
            KvCodec<V>::Decode(record, &offset, &out->second) &&
            offset == record.size()) {
          return true;
        }
        stats_.error = "corrupt in-memory shuffle block";
        return false;
      }
      SpillSegmentReader& reader = *source->reader;
      for (;;) {
        const std::string_view window = reader.window();
        size_t offset = 0;
        if (KvCodec<K>::Decode(window, &offset, &out->first) &&
            KvCodec<V>::Decode(window, &offset, &out->second)) {
          reader.Consume(offset);
          return true;
        }
        // The value runs past the chunk: refill and retry.
        if (!reader.Refill()) {
          stats_.error =
              reader.ok() ? "corrupt spill record" : "spill read failed";
          return false;
        }
      }
    }

    std::vector<MergeSource> sources_;
    // Each source's head: RawPrefix of its next key, kExhausted at its end.
    // One contiguous array, so a match reads no reader buffer.
    std::vector<uint64_t> heads_;
    std::vector<uint32_t> tree_;  // see BuildTree
    // The decoded, sorted partition when nothing of it was spilled.
    std::vector<KV> memory_;
    size_t records_ = 0;
    GatherStats stats_;
  };

 private:
  using Bucket = typename MapOutput::Bucket;

  // Decodes every record of `bucket`, appending to `*pairs`. Blocks end at
  // record boundaries, so a failed decode is a logic error.
  static bool DecodeBucket(const Bucket& bucket, std::vector<KV>* pairs) {
    for (const std::string& block : bucket.blocks) {
      const std::string_view view(block);
      size_t offset = 0;
      while (offset < view.size()) {
        KV& kv = pairs->emplace_back();
        if (!KvCodec<K>::Decode(view, &offset, &kv.first) ||
            !KvCodec<V>::Decode(view, &offset, &kv.second)) {
          return false;
        }
      }
    }
    return true;
  }

  // Appends one index entry per record of `bucket`, in emission order.
  // False when a key does not parse — a logic error, since Add wrote the
  // bytes.
  static bool IndexBucket(const Bucket& bucket,
                          std::vector<IndexEntry>* index) {
    size_t block = 0;
    size_t offset = 0;
    for (const uint32_t size : bucket.sizes) {
      if (offset == bucket.blocks[block].size()) {
        ++block;
        offset = 0;
      }
      const std::string_view record(bucket.blocks[block].data() + offset,
                                    size);
      IndexEntry entry{RawKey{}, record.data(), size};
      size_t at = 0;
      if (!KvCodec<K>::ParseRaw(record, &at, &entry.key)) return false;
      index->push_back(entry);
      offset += size;
    }
    return true;
  }

  // Stable sort by raw key: equal keys keep their emission order. Shared by
  // the spill writer and the reduce-side merge.
  static void SortIndex(std::vector<IndexEntry>* index) {
    std::stable_sort(index->begin(), index->end(),
                     [](const IndexEntry& a, const IndexEntry& b) {
                       return KvCodec<K>::RawLess(a.key, b.key);
                     });
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
