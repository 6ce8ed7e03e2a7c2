#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mapreduce/serde.h"

namespace progres {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  // Each value with its wire size: one byte per started 7 bits.
  const std::pair<uint64_t, size_t> cases[] = {
      {0, 1},          {1, 1},          {0x7f, 1},
      {0x80, 2},       {0x3fff, 2},     {0x4000, 3},
      {1234567890, 5}, {std::numeric_limits<uint64_t>::max(), 10}};
  for (const auto& [value, size] : cases) {
    std::string buffer;
    PutVarint64(value, &buffer);
    EXPECT_EQ(buffer.size(), size) << value;
    size_t offset = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buffer, &offset, &decoded)) << value;
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(offset, buffer.size());
  }
}

TEST(VarintTest, RandomRoundTrip) {
  Rng rng(160);
  std::string buffer;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t value = rng.NextU64() >> rng.UniformU64(64);
    values.push_back(value);
    PutVarint64(value, &buffer);
  }
  size_t offset = 0;
  for (uint64_t expected : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buffer, &offset, &decoded));
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buffer;
  PutVarint64(1234567890123ULL, &buffer);
  buffer.pop_back();
  size_t offset = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buffer, &offset, &decoded));
}

TEST(VarintTest, TenByteBoundary) {
  // The maximum uint64 needs the full ten wire bytes; the ninth byte must
  // still set its continuation bit.
  std::string buffer;
  PutVarint64(std::numeric_limits<uint64_t>::max(), &buffer);
  ASSERT_EQ(buffer.size(), 10u);
  EXPECT_NE(buffer[8] & 0x80, 0);
  EXPECT_EQ(buffer[9], '\1');
  size_t offset = 0;
  uint64_t decoded = 0;
  ASSERT_TRUE(GetVarint64(buffer, &offset, &decoded));
  EXPECT_EQ(decoded, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(offset, 10u);
}

TEST(VarintTest, OverlongTenthByteRejected) {
  // A tenth byte can only contribute the 64th bit (0 or 1). Any other
  // payload would overflow uint64 and must be rejected, not wrapped.
  for (int tenth : {0x02, 0x40, 0x7e, 0x7f}) {
    std::string buffer(9, '\x80');
    buffer.push_back(static_cast<char>(tenth));
    size_t offset = 0;
    uint64_t decoded = 0;
    EXPECT_FALSE(GetVarint64(buffer, &offset, &decoded))
        << "tenth byte " << tenth;
  }
  // The two legal tenth bytes still decode.
  for (int tenth : {0x00, 0x01}) {
    std::string buffer(9, '\x80');
    buffer.push_back(static_cast<char>(tenth));
    size_t offset = 0;
    uint64_t decoded = 0;
    EXPECT_TRUE(GetVarint64(buffer, &offset, &decoded))
        << "tenth byte " << tenth;
  }
}

TEST(VarintTest, UnterminatedInputFails) {
  // Ten continuation bytes and no terminator: the decoder must stop with
  // an error rather than read past the varint's maximum width.
  const std::string buffer(10, '\x80');
  size_t offset = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buffer, &offset, &decoded));
}

TEST(ZigZagTest, RoundTrip) {
  const int64_t values[] = {0, -1, 1, -2, 2, 1000000, -1000000,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t value : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(value)), value);
  }
  // Small magnitudes stay small on the wire.
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

TEST(StringTest, RoundTrip) {
  std::string buffer;
  PutString("hello", &buffer);
  PutString("", &buffer);
  PutString(std::string(1000, 'x'), &buffer);
  size_t offset = 0;
  std::string value;
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, "hello");
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, "");
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, std::string(1000, 'x'));
  EXPECT_EQ(offset, buffer.size());
}

TEST(StringTest, EmbeddedSeparatorsSurvive) {
  std::string payload = "a\tb\nc";
  payload.push_back('\0');
  payload += "d";
  std::string buffer;
  PutString(payload, &buffer);
  size_t offset = 0;
  std::string value;
  ASSERT_TRUE(GetString(buffer, &offset, &value));
  EXPECT_EQ(value, payload);
}

TEST(StringTest, TruncatedPayloadFails) {
  std::string buffer;
  PutString("hello world", &buffer);
  buffer.resize(buffer.size() - 3);
  size_t offset = 0;
  std::string value;
  EXPECT_FALSE(GetString(buffer, &offset, &value));
}

TEST(StringTest, HugeClaimedLengthFailsCleanly) {
  // A corrupt length prefix claiming nearly 2^64 bytes must fail without
  // overflowing the offset arithmetic or attempting the allocation.
  std::string buffer;
  PutVarint64(std::numeric_limits<uint64_t>::max() - 1, &buffer);
  buffer += "tiny";
  size_t offset = 0;
  std::string value;
  EXPECT_FALSE(GetString(buffer, &offset, &value));
}

TEST(StringTest, MissingLengthPrefixFails) {
  size_t offset = 0;
  std::string value;
  EXPECT_FALSE(GetString("", &offset, &value));
}

// ---- KvCodec: the shuffle data plane's per-type wire format ----

TEST(KvCodecTest, IntegralRoundTripIncludingNegatives) {
  // Integral keys ride as the two's-complement bit pattern in a varint;
  // negatives round-trip through the uint64 cast unchanged.
  const int64_t values[] = {0, 1, -1, 1234567890, -1234567890,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  std::string buffer;
  for (int64_t value : values) KvCodec<int64_t>::Encode(value, &buffer);
  size_t offset = 0;
  for (int64_t expected : values) {
    int64_t decoded = 0;
    ASSERT_TRUE(KvCodec<int64_t>::Decode(buffer, &offset, &decoded));
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(KvCodecTest, BoolAndStringRoundTrip) {
  const std::string payload("key with \0 inside", 17);
  std::string buffer;
  KvCodec<bool>::Encode(true, &buffer);
  KvCodec<std::string>::Encode(payload, &buffer);
  KvCodec<bool>::Encode(false, &buffer);
  size_t offset = 0;
  bool flag = false;
  std::string text;
  ASSERT_TRUE(KvCodec<bool>::Decode(buffer, &offset, &flag));
  EXPECT_TRUE(flag);
  ASSERT_TRUE(KvCodec<std::string>::Decode(buffer, &offset, &text));
  EXPECT_EQ(text, payload);
  ASSERT_TRUE(KvCodec<bool>::Decode(buffer, &offset, &flag));
  EXPECT_FALSE(flag);
  EXPECT_EQ(offset, buffer.size());
}

TEST(KvCodecTest, RandomKvStreamRoundTrip) {
  // Fuzz the exact access pattern of the encoded shuffle plane: a mixed
  // stream of (int key, string value) records appended back to back, then
  // decoded sequentially. Every record must come back verbatim and every
  // truncation of the stream must fail rather than misparse.
  Rng rng(161);
  std::vector<std::pair<int64_t, std::string>> records;
  std::string buffer;
  for (int i = 0; i < 500; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextU64());
    std::string value(rng.UniformU64(40), '\0');
    for (char& c : value) c = static_cast<char>(rng.UniformU64(256));
    KvCodec<int64_t>::Encode(key, &buffer);
    KvCodec<std::string>::Encode(value, &buffer);
    records.emplace_back(key, std::move(value));
  }
  // A final record of known width (10-byte key varint + 12-byte string) so
  // the truncation sweep below always cuts strictly inside it.
  KvCodec<int64_t>::Encode(-1, &buffer);
  KvCodec<std::string>::Encode("tail-record", &buffer);
  records.emplace_back(-1, "tail-record");
  size_t offset = 0;
  for (const auto& [key, value] : records) {
    int64_t decoded_key = 0;
    std::string decoded_value;
    ASSERT_TRUE(KvCodec<int64_t>::Decode(buffer, &offset, &decoded_key));
    ASSERT_TRUE(
        KvCodec<std::string>::Decode(buffer, &offset, &decoded_value));
    EXPECT_EQ(decoded_key, key);
    EXPECT_EQ(decoded_value, value);
  }
  EXPECT_EQ(offset, buffer.size());

  // Chopping the stream anywhere inside the final record must surface as a
  // decode error, never as a silent short read.
  for (size_t cut = offset - 1; cut > offset - 8; --cut) {
    const std::string_view clipped(buffer.data(), cut);
    size_t pos = 0;
    bool ok = true;
    while (ok && pos < clipped.size()) {
      int64_t k = 0;
      std::string v;
      ok = KvCodec<int64_t>::Decode(clipped, &pos, &k) &&
           KvCodec<std::string>::Decode(clipped, &pos, &v);
    }
    EXPECT_FALSE(ok) << "cut at " << cut;
  }
}

// ---- Raw key order: sorting and merging encoded keys ----

// Encodes `keys` and checks the raw order against the decoded one on every
// ordered pair: RawKey's operator< must equal decode-then-operator<, and its
// operator== must equal ==. The merge's 64-bit prefixes must agree with
// that order: a smaller prefix means a smaller key, equal prefixes mean
// rests that are both empty or both not, and equal prefixes with empty
// rests mean equal keys. ParseRawKey must consume exactly the encoded key,
// and fail on every truncation exactly where Decode does.
template <typename K>
void ExpectRawOrderMatchesDecoded(const std::vector<K>& keys) {
  constexpr KeyFormat kFormat = KeyFormatOf<K>();
  std::vector<std::string> encoded(keys.size());
  std::vector<RawKey> raw(keys.size());
  std::vector<K> decoded(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    KvCodec<K>::Encode(keys[i], &encoded[i]);
    size_t offset = 0;
    ASSERT_TRUE(ParseRawKey(kFormat, encoded[i], &offset, &raw[i])) << i;
    EXPECT_EQ(offset, encoded[i].size()) << i;
    offset = 0;
    ASSERT_TRUE(KvCodec<K>::Decode(encoded[i], &offset, &decoded[i])) << i;
    for (size_t cut = 0; cut < encoded[i].size(); ++cut) {
      const std::string_view clipped(encoded[i].data(), cut);
      size_t raw_at = 0;
      size_t decode_at = 0;
      RawKey raw_key;
      K key{};
      EXPECT_EQ(ParseRawKey(kFormat, clipped, &raw_at, &raw_key),
                KvCodec<K>::Decode(clipped, &decode_at, &key))
          << "key " << i << " cut at " << cut;
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = 0; j < keys.size(); ++j) {
      EXPECT_EQ(raw[i] < raw[j], decoded[i] < decoded[j])
          << "keys " << i << " and " << j;
      EXPECT_EQ(raw[i] == raw[j], decoded[i] == decoded[j])
          << "keys " << i << " and " << j;
      if (raw[i].prefix < raw[j].prefix) {
        EXPECT_TRUE(decoded[i] < decoded[j]) << "keys " << i << " and " << j;
      }
      if (raw[i].prefix == raw[j].prefix) {
        EXPECT_EQ(raw[i].rest.empty(), raw[j].rest.empty())
            << "keys " << i << " and " << j;
        if (raw[i].rest.empty()) {
          EXPECT_TRUE(decoded[i] == decoded[j])
              << "keys " << i << " and " << j;
        }
      }
    }
  }
}

// Stable-sorting an index of encoded keys by the raw order must give the
// permutation std::stable_sort gives the decoded keys: equal keys keep
// their input order, which the shuffle relies on for value order.
template <typename K>
void ExpectRawIndexSortMatchesDecodedSort(const std::vector<K>& keys) {
  std::vector<std::string> encoded(keys.size());
  std::vector<std::pair<RawKey, size_t>> raw_index;
  std::vector<std::pair<K, size_t>> decoded_index;
  for (size_t i = 0; i < keys.size(); ++i) {
    KvCodec<K>::Encode(keys[i], &encoded[i]);
    size_t offset = 0;
    RawKey raw;
    ASSERT_TRUE(ParseRawKey(KeyFormatOf<K>(), encoded[i], &offset, &raw));
    raw_index.emplace_back(raw, i);
    offset = 0;
    K key{};
    ASSERT_TRUE(KvCodec<K>::Decode(encoded[i], &offset, &key));
    decoded_index.emplace_back(std::move(key), i);
  }
  std::stable_sort(
      raw_index.begin(), raw_index.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::stable_sort(
      decoded_index.begin(), decoded_index.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(raw_index[i].second, decoded_index[i].second) << "rank " << i;
  }
}

std::vector<std::string> AdversarialStrings() {
  std::vector<std::string> keys = {
      "",
      std::string(1, '\0'),
      // Around the 7 bytes and the size byte of the merge prefix.
      "abcdef",
      "abcdefg",
      std::string("abcdefg\0", 8),
      "abcdefgh",
      "abcdefgi",
      "abcdefgh\x01",
      std::string("abcdefgh\0", 9),
      "\xff\xff\xff\xff\xff\xff\xff",
      "\xff\xff\xff\xff\xff\xff\xff\xff",
      std::string(2, '\0'),
      std::string("\0a", 2),
      std::string("a\0", 2),
      std::string("a\0b", 3),
      "a",
      "ab",
      "abc",
      "abd",
      "b",
      "\x7f",
      "\x80",
      "\x80\x01",
      "\xff",
      "\xff\xff",
      "a\xff",
      "a\x80",
      // Lengths around the varint prefix's 1/2-byte boundary: the order is
      // over the bytes after the prefix, never the prefix itself.
      std::string(127, 'a'),
      std::string(128, 'a'),
      std::string(129, 'a'),
      std::string(127, 'b'),
      std::string(128, '\xff'),
      std::string(300, '\0'),
      std::string(16384, 'a'),
  };
  return keys;
}

std::vector<std::string> RandomStrings(uint64_t seed, int count) {
  // A six-letter alphabet of NUL, low, ASCII, DEL and high bytes over short
  // lengths yields many equal keys and prefix pairs.
  const char alphabet[] = {'\0', '\x01', 'a', '\x7f', '\x80', '\xff'};
  Rng rng(seed);
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) {
    std::string key(rng.UniformU64(6), '\0');
    for (char& c : key) c = alphabet[rng.UniformU64(sizeof(alphabet))];
    keys.push_back(std::move(key));
  }
  return keys;
}

// A shared 6-byte head and a 0..6-byte tail over NUL, 'g' and 'h': keys
// that tie on the merge's 7 prefix bytes, differ at the 8th or later, or
// end just before or after it.
std::vector<std::string> SharedHeadStrings(uint64_t seed, int count) {
  const char alphabet[] = {'\0', 'g', 'h'};
  Rng rng(seed);
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) {
    std::string key = "abcdef";
    const uint64_t tail = rng.UniformU64(7);
    for (uint64_t j = 0; j < tail; ++j) {
      key.push_back(alphabet[rng.UniformU64(sizeof(alphabet))]);
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

template <typename T>
std::vector<T> AdversarialIntegers() {
  using Limits = std::numeric_limits<T>;
  // Every negative value travels as a 10-byte varint of its sign-extended
  // bit pattern; the extremes sit on both sides of the 63-bit boundary.
  return {Limits::min(),     Limits::min() + 1, -(T{1} << 20), -129, -128,
          -127,              -2,                -1,            0,    1,
          2,                 127,               128,           129,  16383,
          16384,             T{1} << 20,        Limits::max() - 1,
          Limits::max()};
}

template <typename T>
std::vector<T> RandomIntegers(uint64_t seed, int count) {
  // Random bit patterns shifted down to every width, so every varint length
  // and both signs appear, plus a small range that repeats values.
  Rng rng(seed);
  std::vector<T> keys;
  for (int i = 0; i < count; ++i) {
    if (i % 3 == 0) {
      keys.push_back(static_cast<T>(rng.UniformInt(-4, 4)));
    } else {
      keys.push_back(static_cast<T>(rng.NextU64() >> rng.UniformU64(64)));
    }
  }
  return keys;
}

TEST(RawKeyOrderTest, StringsAgreeWithDecodedOrder) {
  ExpectRawOrderMatchesDecoded(AdversarialStrings());
  ExpectRawOrderMatchesDecoded(RandomStrings(170, 400));
  ExpectRawOrderMatchesDecoded(SharedHeadStrings(176, 300));
}

TEST(RawKeyOrderTest, IntAgreesWithDecodedOrder) {
  ExpectRawOrderMatchesDecoded(AdversarialIntegers<int>());
  ExpectRawOrderMatchesDecoded(RandomIntegers<int>(171, 400));
}

TEST(RawKeyOrderTest, Int64AgreesWithDecodedOrder) {
  ExpectRawOrderMatchesDecoded(AdversarialIntegers<int64_t>());
  ExpectRawOrderMatchesDecoded(RandomIntegers<int64_t>(172, 400));
}

TEST(RawKeyOrderTest, NegativeKeysTravelAsTenByteVarints) {
  // The widest encodings must still parse raw and order by value.
  std::string encoded;
  KvCodec<int64_t>::Encode(std::numeric_limits<int64_t>::min(), &encoded);
  EXPECT_EQ(encoded.size(), 10u);
  size_t offset = 0;
  RawKey raw;
  ASSERT_TRUE(ParseRawKey(KeyFormat::kInteger, encoded, &offset, &raw));
  EXPECT_EQ(raw.prefix, 0u);
  std::string zero;
  KvCodec<int64_t>::Encode(0, &zero);
  RawKey raw_zero;
  offset = 0;
  ASSERT_TRUE(ParseRawKey(KeyFormat::kInteger, zero, &offset, &raw_zero));
  EXPECT_TRUE(raw < raw_zero);
  encoded.clear();
  KvCodec<int>::Encode(-1, &encoded);
  EXPECT_EQ(encoded.size(), 10u);
  offset = 0;
  ASSERT_TRUE(ParseRawKey(KeyFormat::kInteger, encoded, &offset, &raw));
  EXPECT_EQ(raw.prefix, raw_zero.prefix - 1);
}

TEST(RawKeyOrderTest, StableIndexSortMatchesDecodedStableSort) {
  std::vector<std::string> strings = AdversarialStrings();
  for (std::string& key : RandomStrings(173, 600)) strings.push_back(key);
  ExpectRawIndexSortMatchesDecodedSort(strings);
  ExpectRawIndexSortMatchesDecodedSort(RandomIntegers<int>(174, 600));
  std::vector<int64_t> wide = AdversarialIntegers<int64_t>();
  for (int64_t key : RandomIntegers<int64_t>(175, 600)) wide.push_back(key);
  ExpectRawIndexSortMatchesDecodedSort(wide);
}

// ---- FNV-1a: the default partitioner's hash ----

TEST(Fnv1aTest, KnownVectors) {
  // Reference values for the 64-bit FNV-1a parameters; pinning them pins
  // the default partition assignment across platforms and builds.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, ChainingMatchesOneShot) {
  const std::string data = "partition key material";
  const uint64_t whole = Fnv1a64(data);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, data.size()}) {
    EXPECT_EQ(Fnv1a64(data.substr(cut), Fnv1a64(data.substr(0, cut))), whole)
        << "cut at " << cut;
  }
}

TEST(Crc32Test, KnownVectors) {
  // The CRC-32/IEEE check value (reflected 0xEDB88320 polynomial).
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xe8b7be43u);
}

TEST(Crc32Test, ChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{10}, data.size()}) {
    const uint32_t chained =
        Crc32(data.substr(cut), Crc32(data.substr(0, cut)));
    EXPECT_EQ(chained, whole) << "cut at " << cut;
  }
}

// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320, with the
// same pre- and post-inversion and chaining contract as Crc32: the
// definition the table-driven code must reproduce.
uint32_t BitwiseCrc32(std::string_view data, uint32_t crc) {
  uint32_t c = ~crc;
  for (const char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xedb88320u : c >> 1;
  }
  return ~c;
}

// Deterministic bytes covering every value 0..255 (xorshift64).
std::string PseudoRandomBytes(size_t n) {
  std::string out(n, '\0');
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (char& c : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x >> 56);
  }
  return out;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..130 cover an empty input, every tail length on both sides of
  // several 8-byte steps, and the 8 start offsets every alignment.
  const std::string buffer = PseudoRandomBytes(8 + 4096);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 130; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data, 0))
          << "offset " << offset << ", length " << len;
    }
    for (const size_t len : {size_t{1024}, size_t{2047}, size_t{4096}}) {
      const std::string_view data(buffer.data() + offset, len);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data, 0))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32Test, ChainsFromZeroAndNonZeroSeedsLikeTheReference) {
  const std::string data = PseudoRandomBytes(3 * 1024 + 5);
  for (const uint32_t seed : {0u, 1u, 0xcbf43926u, 0x80000000u, 0xffffffffu}) {
    const uint32_t expected = BitwiseCrc32(data, seed);
    EXPECT_EQ(Crc32(data, seed), expected) << "seed " << seed;
    const size_t cuts[] = {1, 7, 8, 9, 1000, data.size() - 3};
    for (const size_t cut : cuts) {
      const std::string_view view(data);
      EXPECT_EQ(Crc32(view.substr(cut), Crc32(view.substr(0, cut), seed)),
                expected)
          << "seed " << seed << ", cut at " << cut;
    }
  }
}

TEST(Crc32Test, SingleBitFlipChangesTheChecksum) {
  std::string data = "partition payload";
  const uint32_t clean = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(Crc32(data), clean) << "flip at " << i;
    data[i] ^= 1;
  }
}

}  // namespace
}  // namespace progres
