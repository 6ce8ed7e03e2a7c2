#ifndef PROGRES_MAPREDUCE_SERDE_H_
#define PROGRES_MAPREDUCE_SERDE_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace progres {

// Minimal Hadoop-Writable-style wire encoding. The shuffle's KV blocks and
// spill runs store records in this form (see shuffle.h), so the codecs are
// load-bearing: a map output is encoded once on Emit, sorted and merged as
// bytes under the raw key order below, and decoded once for the reduce
// call. The same helpers also account for shuffle byte volumes (the
// `shuffle.bytes` counters in the drivers).

// Appends `value` to `out` as a base-128 varint (LEB128).
void PutVarint64(uint64_t value, std::string* out);

// Reads a varint from `in` at `*offset`, advancing it. Returns false on
// truncated or malformed input: more than 10 bytes, or a 10th byte carrying
// bits past bit 63 (an encoding PutVarint64 never produces).
bool GetVarint64(std::string_view in, size_t* offset, uint64_t* value);

// ZigZag mapping so small negative integers stay small on the wire.
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

// Appends `value` length-prefixed.
void PutString(std::string_view value, std::string* out);

// Reads a length-prefixed string written by PutString. Returns false on a
// truncated prefix or when the prefix claims more bytes than `in` holds
// (including lengths that would overflow the offset).
bool GetString(std::string_view in, size_t* offset, std::string* value);

// GetString without the copy: `*value` views the string's bytes inside `in`.
bool GetStringView(std::string_view in, size_t* offset,
                   std::string_view* value);

// CRC-32 (IEEE, reflected polynomial 0xEDB88320 — the zlib/Hadoop checksum)
// of `data`, continuing from `crc` so multi-buffer streams can chain calls.
// Crc32("123456789") == 0xCBF43926. Spill runs and persisted checkpoint
// frames carry it. Computed slicing-by-8 (eight table lookups per eight
// input bytes, bytewise for the tail).
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

// FNV-1a over `data`, continuing from `hash` for multi-buffer streams. The
// shuffle's default partitioner hashes the *encoded* key with this: unlike
// std::hash, the function is pinned by this header, so partition assignment
// (and every golden fixture downstream of it) is identical across standard
// libraries and platforms.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1aPrime = 0x00000100000001b3ull;
inline uint64_t Fnv1a64(std::string_view data,
                        uint64_t hash = kFnv1aOffsetBasis) {
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

// ---- KV codecs ----
//
// KvCodec<T> is the serde of one shuffle key or value type: Encode appends
// T's wire form to a buffer, Decode reads it back from `in` at `*offset`
// (advancing it; false on truncated/malformed bytes). The primary template
// is intentionally undefined — a type crossing the shuffle must either be
// one of the built-ins below (integers, bool, std::string) or provide an
// explicit specialization next to its definition (see the driver .cc files
// for StatsValue/SlideValue/ResolveValue).
template <typename T, typename Enable = void>
struct KvCodec;

// Integers travel as varints of their two's-complement bit pattern.
// Callers with many small negatives should ZigZag inside their own codec.
template <typename T>
struct KvCodec<
    T, std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>>> {
  static void Encode(const T& value, std::string* out) {
    PutVarint64(static_cast<uint64_t>(value), out);
  }
  static bool Decode(std::string_view in, size_t* offset, T* value) {
    uint64_t raw = 0;
    if (!GetVarint64(in, offset, &raw)) return false;
    *value = static_cast<T>(raw);
    return true;
  }
};

template <>
struct KvCodec<bool> {
  static void Encode(const bool& value, std::string* out) {
    out->push_back(value ? '\1' : '\0');
  }
  static bool Decode(std::string_view in, size_t* offset, bool* value) {
    if (*offset >= in.size()) return false;
    *value = in[*offset] != '\0';
    ++*offset;
    return true;
  }
};

template <>
struct KvCodec<std::string> {
  static void Encode(const std::string& value, std::string* out) {
    PutString(value, out);
  }
  static bool Decode(std::string_view in, size_t* offset, std::string* value) {
    return GetString(in, offset, value);
  }
};

// True when KvCodec<T> provides the Encode/Decode pair the shuffle needs.
// MapReduceJob static_asserts this for its key and value types, so a
// missing codec is a named compile-time error instead of a silently
// degraded data plane.
template <typename T>
concept SerdeEncodable = requires(const T& value, std::string* out,
                                  std::string_view in, size_t* offset,
                                  T* slot) {
  { KvCodec<T>::Encode(value, out) };
  { KvCodec<T>::Decode(in, offset, slot) } -> std::convertible_to<bool>;
};

// The raw key order. The shuffle sorts and merges records as bytes, so it
// orders *encoded* keys. A shuffle key is a signed integer or a
// std::string; the job names its key's KeyFormat, and ParseRawKey reads
// one encoded key of that format into a RawKey. Two RawKeys compare as
// decode-then-operator< compares their keys, and are equal exactly when
// those keys are.
enum class KeyFormat { kInteger, kString };

template <typename K>
constexpr KeyFormat KeyFormatOf() {
  if constexpr (std::is_same_v<K, std::string>) {
    return KeyFormat::kString;
  } else {
    static_assert(std::is_integral_v<K> && std::is_signed_v<K>,
                  "a shuffle key is a signed integer or a std::string");
    return KeyFormat::kInteger;
  }
}

// `prefix` summarizes the key in 64 bits that preserve its order; `rest`
// views the key bytes it does not hold. An integer's prefix is its value
// with the sign bit flipped, its rest empty. A string's prefix holds its
// first 7 bytes, big-endian and zero-padded, above a low byte of
// min(size, 8): a string under 8 bytes is wholly in its prefix (the size
// byte tells "a" from "a\0"), and a longer one's rest is its bytes from
// the 8th on. Equal prefixes and equal rests mean equal keys.
struct RawKey {
  uint64_t prefix = 0;
  std::string_view rest;
};

inline bool operator==(const RawKey& a, const RawKey& b) {
  return a.prefix == b.prefix && a.rest == b.rest;
}
inline bool operator<(const RawKey& a, const RawKey& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  return a.rest < b.rest;  // string_view compares bytes as unsigned chars
}

// Reads one encoded key of `format` from `in` at `*offset` into `*key`,
// advancing past it. Fails exactly where KvCodec<K>::Decode would.
inline bool ParseRawKey(KeyFormat format, std::string_view in, size_t* offset,
                        RawKey* key) {
  if (format == KeyFormat::kInteger) {
    uint64_t value = 0;
    if (!GetVarint64(in, offset, &value)) return false;
    key->prefix = value ^ (uint64_t{1} << 63);
    key->rest = {};
    return true;
  }
  std::string_view bytes;
  if (!GetStringView(in, offset, &bytes)) return false;
  const size_t head = bytes.size() < 7 ? bytes.size() : 7;
  uint64_t prefix = 0;
  for (size_t i = 0; i < head; ++i) {
    prefix |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i]))
              << (56 - 8 * i);
  }
  key->prefix = prefix | (bytes.size() < 8 ? bytes.size() : 8);
  key->rest = bytes.size() < 8 ? std::string_view() : bytes.substr(7);
  return true;
}

}  // namespace progres

#endif  // PROGRES_MAPREDUCE_SERDE_H_
