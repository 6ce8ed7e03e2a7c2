#include "mapreduce/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "mapreduce/serde.h"

namespace progres {

namespace {

namespace fs = std::filesystem;

// Binary framing of one persisted snapshot: "PRGC" magic, a version word,
// the fixed fields (doubles as raw IEEE bits, so the round trip is exact),
// the counters, the encoded-outputs blob and the driver-state blob, then a
// CRC32 trailer over everything before it. Little-endian fixed-width
// fields; a reader that runs off the end or fails the CRC rejects the file.
constexpr char kMagic[4] = {'P', 'R', 'G', 'C'};
constexpr uint32_t kVersion = 1;

void AppendU32(std::string* out, uint32_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out->append(raw, sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out->append(raw, sizeof(v));
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendBlob(std::string* out, std::string_view blob) {
  AppendU64(out, blob.size());
  out->append(blob.data(), blob.size());
}

// Bounds-checked sequential reader over a loaded snapshot file.
struct FrameReader {
  std::string_view data;
  size_t pos = 0;
  bool ok = true;

  bool Raw(void* into, size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    std::memcpy(into, data.data() + pos, n);
    pos += n;
    return true;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double Double() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string_view Blob() {
    const uint64_t n = U64();
    if (!ok || data.size() - pos < n) {
      ok = false;
      return {};
    }
    const std::string_view blob = data.substr(pos, n);
    pos += n;
    return blob;
  }
};

}  // namespace

void CheckpointStore::ConfigurePersistence(std::string dir, std::string tag,
                                           bool resume,
                                           int crash_after_saves) {
  dir_ = std::move(dir);
  tag_ = std::move(tag);
  resume_ = resume;
  crash_after_saves_ = crash_after_saves;
}

void CheckpointStore::SetStateCodec(StateEncodeFn encode,
                                    StateDecodeFn decode) {
  encode_state_ = std::move(encode);
  decode_state_ = std::move(decode);
}

void CheckpointStore::Reset(int num_tasks) {
  slots_.clear();
  slots_.resize(static_cast<size_t>(std::max(0, num_tasks)));
  persisted_saves_ = 0;
  corrupt_checkpoints_ = 0;
  if (!persistent() || !resume_) return;
  for (int t = 0; t < num_tasks; ++t) {
    TaskCheckpoint checkpoint;
    if (!LoadPersisted(t, &checkpoint)) continue;
    Slot& slot = slots_[static_cast<size_t>(t)];
    // Only the latest boundary survives a process death; it is the one
    // recovery point the resumed timing model can rely on.
    slot.points.push_back(checkpoint.cost);
    slot.latest = std::make_unique<TaskCheckpoint>(std::move(checkpoint));
    slot.preloaded = true;
    if (keep_history_) {
      slot.history.push_back(std::make_unique<TaskCheckpoint>(*slot.latest));
    }
  }
}

const TaskCheckpoint* CheckpointStore::Latest(int t) const {
  if (t < 0 || t >= num_tasks()) return nullptr;
  return slots_[static_cast<size_t>(t)].latest.get();
}

void CheckpointStore::Save(int t, TaskCheckpoint checkpoint) {
  if (t < 0 || t >= num_tasks()) return;
  Slot& slot = slots_[static_cast<size_t>(t)];
  if (slot.latest != nullptr && checkpoint.cost <= slot.latest->cost) {
    return;  // re-crossing an already-saved boundary on a resumed attempt
  }
  slot.points.push_back(checkpoint.cost);
  slot.latest = std::make_unique<TaskCheckpoint>(std::move(checkpoint));
  slot.preloaded = false;
  ++slot.saved;
  if (keep_history_) {
    slot.history.push_back(std::make_unique<TaskCheckpoint>(*slot.latest));
  }
  if (persistent()) PersistSave(t, *slot.latest);
}

const TaskCheckpoint* CheckpointStore::LatestAtOrBelow(int t,
                                                       double cost) const {
  if (t < 0 || t >= num_tasks()) return nullptr;
  const Slot& slot = slots_[static_cast<size_t>(t)];
  // History is ascending by cost (Save rejects non-advancing snapshots),
  // so the first qualifying entry from the back is the highest one.
  for (auto it = slot.history.rbegin(); it != slot.history.rend(); ++it) {
    if ((*it)->cost <= cost) return it->get();
  }
  if (slot.latest != nullptr && slot.latest->cost <= cost) {
    return slot.latest.get();
  }
  return nullptr;
}

void CheckpointStore::NoteRestore(int t) {
  if (t < 0 || t >= num_tasks()) return;
  ++slots_[static_cast<size_t>(t)].restored;
}

bool CheckpointStore::Preloaded(int t) const {
  if (t < 0 || t >= num_tasks()) return false;
  return slots_[static_cast<size_t>(t)].preloaded;
}

const std::vector<double>& CheckpointStore::RecoveryPoints(int t) const {
  static const std::vector<double> kEmpty;
  if (t < 0 || t >= num_tasks()) return kEmpty;
  return slots_[static_cast<size_t>(t)].points;
}

int64_t CheckpointStore::saved() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) total += slot.saved;
  return total;
}

int64_t CheckpointStore::restored() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) total += slot.restored;
  return total;
}

void CheckpointStore::CleanupPersisted() {
  if (!persistent()) return;
  std::error_code ec;
  for (int t = 0; t < num_tasks(); ++t) {
    fs::remove(PersistPath(t), ec);
  }
}

std::string CheckpointStore::PersistPath(int t) const {
  return (fs::path(dir_) / (tag_ + "-task" + std::to_string(t) + ".ckpt"))
      .string();
}

void CheckpointStore::PersistSave(int t, const TaskCheckpoint& checkpoint) {
  std::string frame(kMagic, sizeof(kMagic));
  AppendU32(&frame, kVersion);
  AppendU32(&frame, static_cast<uint32_t>(t));
  AppendDouble(&frame, checkpoint.cost);
  AppendU64(&frame, static_cast<uint64_t>(checkpoint.groups));
  AppendU64(&frame, static_cast<uint64_t>(checkpoint.records_in));
  AppendU64(&frame, static_cast<uint64_t>(checkpoint.pairs_out));
  // The frame's pair-count slot: a second copy of pairs_out.
  AppendU64(&frame, static_cast<uint64_t>(checkpoint.pairs_out));
  AppendU64(&frame, checkpoint.counters.values().size());
  for (const auto& [name, value] : checkpoint.counters.values()) {
    AppendBlob(&frame, name);
    AppendU64(&frame, static_cast<uint64_t>(value));
  }
  AppendBlob(&frame, checkpoint.encoded_outputs);
  AppendBlob(&frame, encode_state_ && checkpoint.driver_state != nullptr
                         ? encode_state_(checkpoint.driver_state)
                         : std::string());
  AppendU32(&frame, Crc32(frame));

  // Atomic replace: a crash mid-write leaves either the previous snapshot
  // or none, never a torn one.
  const std::string path = PersistPath(t);
  const std::string temp = path + ".tmp";
  std::error_code ec;
  fs::create_directories(dir_, ec);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(frame.data(),
                           static_cast<std::streamsize>(frame.size()))) {
      fs::remove(temp, ec);
      return;  // persistence is best-effort; the in-memory snapshot stands
    }
    out.flush();
    if (!out) {
      fs::remove(temp, ec);
      return;
    }
  }
  fs::rename(temp, path, ec);
  if (ec) {
    fs::remove(temp, ec);
    return;
  }
  ++persisted_saves_;
  if (crash_after_saves_ > 0 && persisted_saves_ >= crash_after_saves_) {
    // The deterministic mid-job kill behind the restart tests: no unwind,
    // no atexit — the closest portable stand-in for a machine power-off.
    std::_Exit(17);
  }
}

bool CheckpointStore::LoadPersisted(int t, TaskCheckpoint* checkpoint) {
  std::ifstream in(PersistPath(t), std::ios::binary);
  if (!in) return false;  // no snapshot for this task: not an error
  std::string frame((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto corrupt = [this]() {
    ++corrupt_checkpoints_;
    return false;
  };
  if (frame.size() < sizeof(kMagic) + 2 * sizeof(uint32_t)) return corrupt();
  const size_t body = frame.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, frame.data() + body, sizeof(stored_crc));
  if (Crc32(std::string_view(frame).substr(0, body)) != stored_crc) {
    return corrupt();
  }
  FrameReader reader{std::string_view(frame).substr(0, body)};
  char magic[sizeof(kMagic)];
  if (!reader.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return corrupt();
  }
  if (reader.U32() != kVersion) return corrupt();
  if (reader.U32() != static_cast<uint32_t>(t)) return corrupt();
  checkpoint->cost = reader.Double();
  checkpoint->groups = static_cast<int64_t>(reader.U64());
  checkpoint->records_in = static_cast<int64_t>(reader.U64());
  checkpoint->pairs_out = static_cast<int64_t>(reader.U64());
  reader.U64();  // the pair-count slot, a copy of pairs_out
  const uint64_t num_counters = reader.U64();
  for (uint64_t i = 0; reader.ok && i < num_counters; ++i) {
    const std::string_view name = reader.Blob();
    const int64_t value = static_cast<int64_t>(reader.U64());
    if (reader.ok) checkpoint->counters.Increment(name, value);
  }
  checkpoint->encoded_outputs = std::string(reader.Blob());
  checkpoint->output_bytes = checkpoint->encoded_outputs.size();
  const std::string_view state = reader.Blob();
  if (!reader.ok || reader.pos != reader.data.size()) return corrupt();
  checkpoint->driver_state =
      decode_state_ && !state.empty() ? decode_state_(state) : nullptr;
  if (!state.empty() && checkpoint->driver_state == nullptr) {
    return corrupt();  // the codec rejected the blob
  }
  return true;
}

}  // namespace progres
