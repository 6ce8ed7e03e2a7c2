#include "mapreduce/shuffle.h"

#include <algorithm>
#include <utility>

namespace progres {

namespace {

// One buffered record in a sort index: its raw key and its bytes.
struct IndexEntry {
  RawKey key;
  const char* data;
  uint32_t size;
};

// The head prefix of an exhausted merge source. A live key can share it
// (the largest integers), so Before checks `done` on a tie at this value.
constexpr uint64_t kExhausted = ~uint64_t{0};

constexpr const char* kCorruptBlock = "corrupt in-memory shuffle block";

}  // namespace

void Shuffle::MapOutput::Reset(const Shuffle& shuffle, int task) {
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

void Shuffle::MapOutput::ConfigureSpill(const FaultPlan* plan,
                                        int generation) {
  fault_plan_ = plan != nullptr && plan->HasDiskFaults() ? plan : nullptr;
  generation_ = generation;
}

bool Shuffle::MapOutput::SpillRunIntact(size_t i) const {
  const bool last_in_file =
      i + 1 == runs_.size() || runs_[i + 1].file != runs_[i].file;
  return ValidateSpillRun(runs_[i], last_in_file);
}

// Appends every partition's buffered records, sorted by raw key, as one
// spill run, then resets the in-memory chains. On I/O failure the run is
// dropped, the buffers stay, and spill_error_ carries the label.
void Shuffle::MapOutput::Spill() {
  const size_t partitions = buckets_.size();
  std::string bytes;
  std::vector<SpillSegment> segments(partitions);
  for (size_t r = 0; r < partitions; ++r) {
    segments[r].offset = static_cast<int64_t>(bytes.size());
    if (!shuffle_->AppendSorted(buckets_[r], &bytes)) {
      spill_error_ = kCorruptBlock;
      return;
    }
    segments[r].bytes =
        static_cast<int64_t>(bytes.size()) - segments[r].offset;
    segments[r].records = buckets_[r].records;
  }
  SpillRun run;
  if (!WriteRunWithFaults(bytes, segments, &run)) return;
  for (size_t r = 0; r < partitions; ++r) {
    spill_crc_[r] = Crc32(std::string_view(bytes).substr(
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

// Writes the run under the storage-fault discipline: a planned ENOSPC on
// the task's first primary write fails the whole attempt over to the
// fallback dir; transient write errors (injected by the plan, or real) are
// retried with modeled backoff up to the plan's budget, exhaustion failing
// over too; with no fallback available the attempt keeps the existing
// sticky spill_error_ behaviour. After a successful *primary* write the
// plan may materialize a torn write (truncated tail), which ends the file,
// or a flipped byte — silent here, caught by ValidateSpillRun at the map
// barrier. Fallback-dir writes are injection-free, so re-runs converge.
// False when spill_error_ was set (the run is dropped, buffers stay).
bool Shuffle::MapOutput::WriteRunWithFaults(
    std::string_view bytes, const std::vector<SpillSegment>& segments,
    SpillRun* run) {
  const int run_index = static_cast<int>(runs_.size());
  const FaultPlan* plan = fault_plan_;
  if (!use_fallback_ && plan != nullptr && plan->SpillPrimaryFull(task_)) {
    ++disk_stats_.enospc;
    if (!FailOver()) return false;
  }
  const int max_retries = plan != nullptr ? plan->max_spill_retries() : 0;
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
      file_->FlipByte(run->offset +
                      static_cast<int64_t>(plan->SpillCorruptOffset(
                          task_, run_index, generation_,
                          static_cast<uint64_t>(run->bytes))));
    }
  }
  return true;
}

// Appends the run to this execution's file in the current directory,
// creating the file on first use.
bool Shuffle::MapOutput::AppendRun(std::string_view bytes,
                                   const std::vector<SpillSegment>& segments,
                                   SpillRun* run) {
  if (file_ == nullptr) {
    auto file =
        std::make_shared<SpillFile>(NextSpillPath(dir(), task_, generation_));
    if (!file->ok()) return false;
    file_ = std::move(file);
  }
  return AppendSpillRun(file_, bytes, segments, run);
}

// Switches this attempt's remaining spill writes to a new file in the
// fallback dir. Without one configured, sets the labelled sticky
// spill_error_.
bool Shuffle::MapOutput::FailOver() {
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
const std::string& Shuffle::MapOutput::dir() const {
  return use_fallback_ ? shuffle_->spill_.fallback_dir : shuffle_->spill_.dir;
}

Shuffle::Volume Shuffle::MeasureVolume(const MapOutput& out) const {
  Volume volume = out.spilled_volume_;
  for (const Bucket& bucket : out.buckets_) {
    volume.records += bucket.records;
    for (const std::string& block : bucket.blocks) {
      volume.bytes += static_cast<int64_t>(block.size());
    }
  }
  return volume;
}

int64_t Shuffle::PartitionRecords(const std::vector<MapOutput*>& maps,
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

uint32_t Shuffle::PartitionChecksum(const MapOutput& out, int r) const {
  uint32_t crc = out.spill_crc_[static_cast<size_t>(r)];
  for (const std::string& block : out.buckets_[static_cast<size_t>(r)].blocks) {
    crc = Crc32(block, crc);
  }
  return crc;
}

// Indexes `bucket`'s records in emission order, stable-sorts the index by
// raw key, so equal keys keep their emission order, and copies the record
// bytes in that order: what a spill run and a merge's memory tail hold.
bool Shuffle::AppendSorted(const Bucket& bucket, std::string* out) const {
  std::vector<IndexEntry> index;
  index.reserve(bucket.sizes.size());
  size_t block = 0;
  size_t offset = 0;
  for (const uint32_t size : bucket.sizes) {
    if (offset == bucket.blocks[block].size()) {
      ++block;
      offset = 0;
    }
    IndexEntry& entry = index.emplace_back();
    entry.data = bucket.blocks[block].data() + offset;
    entry.size = size;
    size_t end = 0;
    if (!ParseRawKey(key_format_, std::string_view(entry.data, size), &end,
                     &entry.key)) {
      return false;
    }
    offset += size;
  }
  std::stable_sort(
      index.begin(), index.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.key < b.key; });
  for (const IndexEntry& entry : index) out->append(entry.data, entry.size);
  return true;
}

Shuffle::Merge::Merge(const Shuffle& shuffle,
                      const std::vector<MapOutput*>& maps, int r)
    : key_format_(shuffle.key_format_),
      records_(static_cast<size_t>(PartitionRecords(maps, r))) {
  const size_t partition = static_cast<size_t>(r);
  for (const MapOutput* m : maps) {
    for (const SpillRun& run : m->runs_) {
      spilled_ = spilled_ || run.segments[partition].bytes > 0;
    }
  }
  if (!spilled_) return;
  const size_t chunk =
      static_cast<size_t>(std::max<int64_t>(1, shuffle.spill_.block_bytes));
  for (const MapOutput* m : maps) {
    for (const SpillRun& run : m->runs_) {
      const SpillSegment& segment = run.segments[partition];
      if (segment.bytes == 0) continue;
      sources_.emplace_back(SpillSegmentReader(*run.file, segment, chunk));
      ++stats_.runs_merged;
      stats_.spilled_records += segment.records;
      stats_.spilled_bytes += segment.bytes;
    }
    const Bucket& bucket = m->buckets_[partition];
    if (bucket.records == 0) continue;
    std::string tail;
    if (!shuffle.AppendSorted(bucket, &tail)) {
      stats_.error = kCorruptBlock;
      return;
    }
    sources_.emplace_back(SpillSegmentReader(std::move(tail)));
  }
  heads_.resize(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    Peek(i);
    if (!stats_.error.empty()) return;
  }
  BuildTree();
}

void Shuffle::Merge::FailCorruptBlock() { stats_.error = kCorruptBlock; }

void Shuffle::Merge::ForEachGroup(size_t limit, MergeSink& sink) {
  if (sources_.empty()) return;
  // The raw key of the group being collected, owned: a source's key views
  // its window, which the next refill moves.
  uint64_t group_prefix = 0;
  std::string group_rest;
  bool open = false;
  for (size_t i = 0;; ++i) {
    if (!stats_.error.empty()) return;
    const uint32_t s = tree_[0];
    Source& source = sources_[s];
    if (source.done) break;
    const bool opens = !open || source.key.prefix != group_prefix ||
                       source.key.rest != std::string_view(group_rest);
    if (opens) {
      group_prefix = source.key.prefix;
      group_rest.assign(source.key.rest);
    }
    if (!Take(&source, opens, sink)) return;
    if (opens) {
      if (i >= limit) return;
      open = true;
    }
    // The record is whole even when the source's next key fails to parse;
    // that error ends the merge before its group goes out.
    Peek(s);
    Replay(s);
  }
  if (open) sink.Finish();
}

// True when source `a`'s next record merges before source `b`'s: by raw
// key, then by source number; exhausted sources lose every match. The
// cached prefixes decide unless they are equal; equal prefixes compare the
// rests, which are empty (and equal) unless both keys are strings of 8
// bytes or more.
bool Shuffle::Merge::Before(uint32_t a, uint32_t b) const {
  const uint64_t prefix = heads_[a];
  if (prefix != heads_[b]) return prefix < heads_[b];
  const Source& x = sources_[a];
  const Source& y = sources_[b];
  if (prefix == kExhausted && (x.done || y.done)) {
    return x.done == y.done ? a < b : y.done;
  }
  const int rest = x.key.rest.compare(y.key.rest);
  return rest != 0 ? rest < 0 : a < b;
}

// Builds the loser tree over the sources' heads: source i is leaf k + i of
// a heap-shaped tree with k leaves; internal node n (1 <= n < k) keeps the
// loser of the match between its children's winners, and tree_[0] the
// overall winner.
void Shuffle::Merge::BuildTree() {
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
void Shuffle::Merge::Replay(uint32_t s) {
  uint32_t winner = s;
  for (size_t n = (sources_.size() + s) / 2; n >= 1; n /= 2) {
    if (Before(tree_[n], winner)) std::swap(tree_[n], winner);
  }
  tree_[0] = winner;
}

// Points source `s`'s key and cached head prefix at its next record, or
// marks it done at the end of the stream or on error. A key cut by the
// chunk boundary refills and retries; at the end of the segment, leftover
// bytes (or an I/O error) mean corruption.
void Shuffle::Merge::Peek(size_t s) {
  Source& source = sources_[s];
  SpillSegmentReader& reader = source.reader;
  for (;;) {
    size_t offset = 0;
    if (ParseRawKey(key_format_, reader.window(), &offset, &source.key)) {
      source.key_size = offset;
      heads_[s] = source.key.prefix;
      return;
    }
    if (!reader.Refill()) break;
  }
  if (!reader.ok()) {
    stats_.error = "spill read failed";
  } else if (!reader.window().empty()) {
    stats_.error = "corrupt spill record";
  }
  source.done = true;
  heads_[s] = kExhausted;
}

// Hands the record Peek found to the sink — its one decode — and moves
// past it. A record that runs past the chunk refills and retries. False on
// error.
bool Shuffle::Merge::Take(Source* source, bool opens, MergeSink& sink) {
  SpillSegmentReader& reader = source->reader;
  for (;;) {
    size_t size = 0;
    if (sink.Take(reader.window(), source->key_size, opens, &size)) {
      reader.Consume(size);
      return true;
    }
    if (!reader.Refill()) {
      stats_.error = reader.ok() ? "corrupt spill record" : "spill read failed";
      return false;
    }
  }
}

}  // namespace progres
