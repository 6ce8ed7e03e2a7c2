#include "mapreduce/spill.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "mapreduce/serde.h"

namespace progres {

namespace fs = std::filesystem;

SpillFile::SpillFile(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
}

SpillFile::~SpillFile() {
  if (fd_ < 0) return;
  ::close(fd_);
  ::unlink(path_.c_str());
}

bool SpillFile::Append(std::string_view bytes) {
  const char* data = bytes.data();
  size_t left = bytes.size();
  int64_t at = end_;
  while (left > 0) {
    const ssize_t wrote = ::pwrite(fd_, data, left, static_cast<off_t>(at));
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      // Drop the partial tail so a retry appends at the same offset.
      (void)::ftruncate(fd_, static_cast<off_t>(end_));
      return false;
    }
    data += wrote;
    left -= static_cast<size_t>(wrote);
    at += wrote;
  }
  end_ = at;
  return true;
}

bool SpillFile::ReadAt(int64_t offset, char* out, size_t n) const {
  while (n > 0) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;  // error, or end of file before n bytes
    out += got;
    n -= static_cast<size_t>(got);
    offset += got;
  }
  return true;
}

int64_t SpillFile::SizeOnDisk() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

bool SpillFile::Truncate(int64_t bytes) {
  return ::ftruncate(fd_, static_cast<off_t>(std::max<int64_t>(0, bytes))) ==
         0;
}

bool SpillFile::FlipByte(int64_t offset) {
  char byte = 0;
  if (!ReadAt(offset, &byte, 1)) return false;
  byte = static_cast<char>(byte ^ 0x40);
  return ::pwrite(fd_, &byte, 1, static_cast<off_t>(offset)) == 1;
}

std::string ResolveSpillDir(const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::path path;
  if (dir.empty()) {
    path = fs::temp_directory_path(ec);
    if (ec) {
      *error = "no temporary directory available: " + ec.message();
      return std::string();
    }
  } else {
    path = dir;
  }
  fs::create_directories(path, ec);
  if (ec) {
    *error = "cannot create spill dir " + path.string() + ": " + ec.message();
    return std::string();
  }
  // Probe writability now, with a throwaway file, so a read-only directory
  // fails the job at submission instead of mid-spill.
  const fs::path probe = path / NextSpillPath(".", -1).substr(2);
  {
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    if (!out || !(out << 'x')) {
      *error = "spill dir " + path.string() + " is not writable";
      fs::remove(probe, ec);
      return std::string();
    }
  }
  fs::remove(probe, ec);
  return path.string();
}

std::string NextSpillPath(const std::string& dir, int task, int attempt) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return (fs::path(dir) /
          ("progres-spill-" + std::to_string(::getpid()) + "-" +
           std::to_string(n) + "-map" + std::to_string(task) + "-a" +
           std::to_string(attempt) + ".spill"))
      .string();
}

bool AppendSpillRun(const std::shared_ptr<SpillFile>& file,
                    std::string_view bytes,
                    std::vector<SpillSegment> segments, SpillRun* run) {
  run->file = file;
  run->offset = file->end();
  run->records = 0;
  for (SpillSegment& segment : segments) {
    segment.offset += run->offset;
    run->records += segment.records;
  }
  run->segments = std::move(segments);
  run->bytes = static_cast<int64_t>(bytes.size());
  run->crc = Crc32(bytes);
  return file->Append(bytes);
}

bool ValidateSpillRun(const SpillRun& run, bool last_in_file) {
  const SpillFile& file = *run.file;
  uint32_t crc = 0;
  char buffer[1 << 16];
  for (int64_t done = 0; done < run.bytes;) {
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(run.bytes - done, sizeof(buffer)));
    if (!file.ReadAt(run.offset + done, buffer, n)) return false;
    crc = Crc32(std::string_view(buffer, n), crc);
    done += static_cast<int64_t>(n);
  }
  if (crc != run.crc) return false;
  return !last_in_file || file.SizeOnDisk() == run.offset + run.bytes;
}

SpillSegmentReader::SpillSegmentReader(const SpillFile& file,
                                       const SpillSegment& segment,
                                       size_t chunk_bytes)
    : file_(&file),
      next_(segment.offset),
      remaining_(segment.bytes),
      chunk_bytes_(chunk_bytes > 0 ? chunk_bytes : 1) {}

SpillSegmentReader::SpillSegmentReader(std::string bytes)
    : buffer_(std::move(bytes)) {}

bool SpillSegmentReader::Refill() {
  if (!ok_ || remaining_ == 0) return false;
  // Compact the consumed prefix before growing, keeping the buffer bounded
  // by the unconsumed tail plus one chunk.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t want = static_cast<size_t>(
      std::min<int64_t>(remaining_, static_cast<int64_t>(chunk_bytes_)));
  const size_t old_size = buffer_.size();
  buffer_.resize(old_size + want);
  if (!file_->ReadAt(next_, buffer_.data() + old_size, want)) {
    buffer_.resize(old_size);
    ok_ = false;
    remaining_ = 0;
    return false;
  }
  next_ += static_cast<int64_t>(want);
  remaining_ -= static_cast<int64_t>(want);
  return true;
}

}  // namespace progres
