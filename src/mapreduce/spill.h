#ifndef PROGRES_MAPREDUCE_SPILL_H_
#define PROGRES_MAPREDUCE_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace progres {

// File plumbing of the out-of-core shuffle (see shuffle.h). A map task
// whose in-memory KV blocks cross the task's share of the shuffle budget
// writes a *spill run*: every partition's records, sorted by raw key and
// back to back, appended to the one spill file of the task's current
// execution, with the run's offset and per-partition byte ranges kept in
// memory (Hadoop's map-output file plus partition index). The reduce-side
// gather k-way merges the runs with the in-memory tail through chunked
// positioned-read segment readers, so peak memory stays bounded by the
// budget, not the data, and no segment opens a file.

// One spill file: created once per map-task execution and directory, runs
// appended at its end, read back with positioned reads (pread), which
// concurrent readers may share. The destructor closes and unlinks it, so a
// file lives exactly as long as the runs that point into it.
class SpillFile {
 public:
  // Creates (truncating) `path` for reading and writing; see ok().
  explicit SpillFile(std::string path);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // False when the file could not be created.
  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  // End of the last run appended: where the next one goes.
  int64_t end() const { return end_; }

  // Writes `bytes` at end() and advances it. On failure the file is cut
  // back to the old end (best effort) and end() does not move.
  bool Append(std::string_view bytes);
  // Reads exactly `n` bytes at `offset`; false on a short read or error.
  bool ReadAt(int64_t offset, char* out, size_t n) const;
  // The file's current size on disk, or -1 when it cannot be read.
  int64_t SizeOnDisk() const;

  // Deterministic storage-fault materializers (spill fault injection).
  // Truncate shortens the file to `bytes` (a torn write: the writer saw
  // success, the tail never hit the platter). FlipByte flips one bit of the
  // byte at `offset` (at-rest corruption). Both return false when the file
  // cannot be rewritten.
  bool Truncate(int64_t bytes);
  bool FlipByte(int64_t offset);

 private:
  std::string path_;
  int fd_ = -1;
  int64_t end_ = 0;
};

// Byte range of one partition inside a spill file.
struct SpillSegment {
  int64_t offset = 0;
  int64_t bytes = 0;
  int64_t records = 0;
};

// One spill run: its byte range in a spill file, its partition index and
// totals. `crc` is the CRC32 of the run's bytes as written; ValidateSpillRun
// re-reads the range against it to catch torn writes and at-rest
// corruption before the reduce-side merge trusts the bytes.
struct SpillRun {
  std::shared_ptr<const SpillFile> file;
  int64_t offset = 0;  // of the run's first byte in the file
  std::vector<SpillSegment> segments;  // file offsets
  int64_t records = 0;  // across all partitions
  int64_t bytes = 0;    // run length as written
  uint32_t crc = 0;     // CRC32 over the run as written
};

// Resolves and prepares the spill directory: `dir` itself, or the system
// temporary directory when empty. Creates it if missing and probes
// writability with a throwaway file. On failure returns an empty string and
// sets `*error` to a labelled description; MapReduceJob::Run fails the job
// with it instead of discovering the problem mid-spill.
std::string ResolveSpillDir(const std::string& dir, std::string* error);

// A collision-free path for a spill file of map task `task`'s execution
// `attempt`, under `dir`. Uniqueness combines the process id with a
// process-wide counter, so concurrent jobs (and map tasks on pool workers)
// never reuse a name; the attempt id keeps a re-run or speculative
// execution of the task from ever resolving to a stale file left by a
// killed attempt.
std::string NextSpillPath(const std::string& dir, int task, int attempt = 0);

// Appends one run to `file`: `bytes` holds every partition's records back
// to back as `segments` describes, with offsets relative to the run. Fills
// `*run` with the file, the run's offset, file-relative segments, totals
// and CRC. False on I/O failure (`*run` is then unspecified).
bool AppendSpillRun(const std::shared_ptr<SpillFile>& file,
                    std::string_view bytes,
                    std::vector<SpillSegment> segments, SpillRun* run);

// Re-reads the run's byte range and checks it against the CRC32 recorded
// at write time. A run that is the last in its file must also end where
// the file does (`last_in_file`): an overlong file is not what was
// written. False on a short range, a CRC or size mismatch, or a read
// error — the run cannot be trusted and its producer must re-run.
bool ValidateSpillRun(const SpillRun& run, bool last_in_file);

// Chunked sequential reader over one segment of a spill file. The caller
// decodes records from window() and Consume()s them; when a decode fails
// because the window ends mid-record, Refill() appends the next chunk
// (false once the segment is fully buffered or on I/O error — see ok()).
// The buffer holds the unconsumed tail plus at most one chunk.
class SpillSegmentReader {
 public:
  SpillSegmentReader(const SpillFile& file, const SpillSegment& segment,
                     size_t chunk_bytes);
  // A segment already in memory: the window holds all of `bytes`, and
  // Refill has nothing to add.
  explicit SpillSegmentReader(std::string bytes);

  // False after a read failure; the window is then unspecified.
  bool ok() const { return ok_; }

  // The unconsumed buffered bytes of the segment.
  std::string_view window() const {
    return std::string_view(buffer_).substr(pos_);
  }

  // Drops `n` decoded bytes from the front of the window.
  void Consume(size_t n) { pos_ += n; }

  // Reads the next chunk of the segment into the window. Returns false when
  // nothing more can be added (segment end, or an I/O error — check ok()).
  bool Refill();

 private:
  const SpillFile* file_ = nullptr;
  std::string buffer_;
  size_t pos_ = 0;         // consumed prefix of buffer_
  int64_t next_ = 0;       // file offset of the first unread segment byte
  int64_t remaining_ = 0;  // unread segment bytes past the buffer
  size_t chunk_bytes_ = 1;
  bool ok_ = true;
};

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_SPILL_H_
