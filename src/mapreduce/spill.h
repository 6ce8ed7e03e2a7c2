#ifndef PROGRES_MAPREDUCE_SPILL_H_
#define PROGRES_MAPREDUCE_SPILL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace progres {

// File plumbing of the out-of-core shuffle (see shuffle.h). A map task
// whose in-memory KV blocks cross the task's share of the shuffle budget
// writes a *spill run*: one private file holding every partition's sorted
// records back to back, with the per-partition byte ranges kept in
// memory. The reduce-side gather then k-way merges the runs with
// the in-memory tail through buffered segment readers, so peak memory stays
// bounded by the budget, not the data.

// Byte range of one partition inside a spill-run file.
struct SpillSegment {
  int64_t offset = 0;
  int64_t bytes = 0;
  int64_t records = 0;
};

// One spill run: the file plus its partition index and totals. `crc` is
// the CRC32 of the whole file as written; ValidateSpillRun re-reads the
// file against it to catch torn writes and at-rest corruption before the
// reduce-side merge trusts the bytes.
struct SpillRun {
  std::string path;
  std::vector<SpillSegment> segments;
  int64_t records = 0;  // across all partitions
  int64_t bytes = 0;    // file size as written
  uint32_t crc = 0;     // CRC32 over the file as written
};

// Resolves and prepares the spill directory: `dir` itself, or the system
// temporary directory when empty. Creates it if missing and probes
// writability with a throwaway file. On failure returns an empty string and
// sets `*error` to a labelled description; MapReduceJob::Run fails the job
// with it instead of discovering the problem mid-spill.
std::string ResolveSpillDir(const std::string& dir, std::string* error);

// A collision-free path for the next spill run of map task `task`'s
// execution `attempt`, under `dir`. Uniqueness combines the process id with
// a process-wide counter, so concurrent jobs (and map tasks on pool
// workers) never reuse a name; the attempt id keeps a re-run or speculative
// execution of the task from ever resolving to a stale run file left by a
// killed attempt.
std::string NextSpillPath(const std::string& dir, int task, int attempt = 0);

// Writes `partitions` (one encoded payload per partition, concatenated in
// partition order) to `path` and fills `*run` with the path, segment index
// and totals. `records_per_partition[r]` is the record count of payload r.
// False on I/O failure (the file is removed; `*run` is unspecified).
bool WriteSpillRun(const std::string& path,
                   const std::vector<std::string>& partitions,
                   const std::vector<int64_t>& records_per_partition,
                   SpillRun* run);

// Removes a spill-run file, ignoring errors (cleanup paths must not throw).
void RemoveSpillFile(const std::string& path);

// Re-reads the run's file and checks it against the size and CRC32 recorded
// at write time. False on a short/overlong file, a CRC mismatch, or any
// read error — the run cannot be trusted and its producer must re-run.
bool ValidateSpillRun(const SpillRun& run);

// Deterministic storage-fault materializers (spill fault injection).
// TruncateSpillFile shortens the file to `bytes` (a torn write: the writer
// saw success, the tail never hit the platter). CorruptSpillByte flips one
// bit of the byte at `offset` (at-rest corruption). Both return false when
// the file cannot be rewritten.
bool TruncateSpillFile(const std::string& path, int64_t bytes);
bool CorruptSpillByte(const std::string& path, int64_t offset);

// Buffered sequential reader over one segment of a spill-run file. The
// caller decodes records from window() and Consume()s them; when a decode
// fails because the window ends mid-record, Refill() appends the next chunk
// (false once the segment is fully buffered or on I/O error — see ok()).
class SpillSegmentReader {
 public:
  SpillSegmentReader(const std::string& path, const SpillSegment& segment,
                     size_t chunk_bytes);

  // False after an open/seek/read failure; the window is then unspecified.
  bool ok() const { return ok_; }

  // The unconsumed buffered bytes of the segment.
  std::string_view window() const {
    return std::string_view(buffer_).substr(pos_);
  }

  // Drops `n` decoded bytes from the front of the window.
  void Consume(size_t n) { pos_ += n; }

  // True when the window is empty and no segment bytes remain unread.
  bool exhausted() const { return pos_ >= buffer_.size() && remaining_ == 0; }

  // Reads the next chunk of the segment into the window. Returns false when
  // nothing more can be added (segment end, or an I/O error — check ok()).
  bool Refill();

 private:
  std::ifstream file_;
  std::string buffer_;
  size_t pos_ = 0;         // consumed prefix of buffer_
  int64_t remaining_ = 0;  // unread segment bytes past the buffer
  size_t chunk_bytes_;
  bool ok_ = true;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_SPILL_H_
