#include "mapreduce/serde.h"

namespace progres {

void PutVarint64(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint64(std::string_view in, size_t* offset, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t i = *offset;
  while (i < in.size() && shift < 64) {
    const uint8_t byte = static_cast<uint8_t>(in[i]);
    // The 10th byte holds only bit 63: anything above is an overlong
    // encoding PutVarint64 never writes, not a wrapped value.
    if (shift == 63 && (byte & 0x7e) != 0) return false;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    ++i;
    if ((byte & 0x80) == 0) {
      *offset = i;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or over-long
}

void PutString(std::string_view value, std::string* out) {
  PutVarint64(value.size(), out);
  out->append(value);
}

bool GetStringView(std::string_view in, size_t* offset,
                   std::string_view* value) {
  uint64_t length = 0;
  if (!GetVarint64(in, offset, &length)) return false;
  // Compare against the remaining bytes, not `*offset + length`: a huge
  // claimed length must fail cleanly instead of overflowing the offset.
  if (length > in.size() - *offset) return false;
  *value = in.substr(*offset, length);
  *offset += length;
  return true;
}

bool GetString(std::string_view in, size_t* offset, std::string* value) {
  std::string_view view;
  if (!GetStringView(in, offset, &view)) return false;
  value->assign(view);
  return true;
}

namespace {

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// table[0] is the classic byte-at-a-time table, and table[k][b] is the CRC
// of byte b followed by k zero bytes, so one step folds eight input bytes.
struct Crc32Tables {
  uint32_t table[8][256];

  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = table[k - 1][i];
        table[k][i] = table[0][prev & 0xffu] ^ (prev >> 8);
      }
    }
  }
};

// Little-endian 32-bit load, byte by byte so the result does not depend on
// the host's byte order or on alignment.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  static const Crc32Tables tables;
  const auto& t = tables.table;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace progres
