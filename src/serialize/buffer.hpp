#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serialize/error.hpp"

namespace willump::serialize {

/// Artifact format version. Bump on any incompatible layout change; load
/// rejects versions it does not read (no silent cross-version parsing).
/// v2: model payloads carry a kernel config; pipelines carry a 'KERN'
/// section (then the optimize-time kernel search's report).
/// v3: kernel configs gain a sparse-traversal cutoff; the 'KERN' report
/// gains the op-level feature-pipeline winners (lookup strategy, zero-copy
/// assembly, row-chunk size). All are since retired; their bytes stay in
/// the layout, written as fixed survivor values and ignored at load.
/// v4: per-section codecs — varint length prefixes, delta-coded sorted
/// integer keys, a dictionary codec for repetitive double vectors, and
/// front-coded TF-IDF vocabularies — each carrying a CRC-32 over the
/// *decoded* payload so a codec bug can never silently corrupt fitted
/// state. Loaders accept v3 and v4; writers emit v4 unless asked not to.
inline constexpr std::uint32_t kFormatVersion = 4;
/// Oldest version this build still reads (v3 artifacts load bit-identically).
inline constexpr std::uint32_t kMinReadVersion = 3;

/// CRC-32 (ISO-HDLC polynomial, the zlib convention) over a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// CRC-32 over the little-endian byte image of a double vector — the
/// decoded-payload checksum the v4 dictionary codec carries.
inline std::uint32_t crc32_f64_le(std::span<const double> xs) {
  std::vector<std::uint8_t> b;
  b.reserve(xs.size() * 8);
  for (double x : xs) {
    const std::uint64_t v = std::bit_cast<std::uint64_t>(x);
    for (std::size_t i = 0; i < 8; ++i) {
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return crc32(b);
}

/// CRC-32 over the little-endian byte image of an i64 vector (decoded-side
/// checksum for delta-coded key arrays).
inline std::uint32_t crc32_i64_le(std::span<const std::int64_t> xs) {
  std::vector<std::uint8_t> b;
  b.reserve(xs.size() * 8);
  for (std::int64_t x : xs) {
    const std::uint64_t v = static_cast<std::uint64_t>(x);
    for (std::size_t i = 0; i < 8; ++i) {
      b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return crc32(b);
}

/// Append-only little-endian byte sink. All multi-byte integers are written
/// fixed-width little-endian; doubles are written as their IEEE-754 bit
/// pattern, so a round trip is bit-exact.
///
/// The writer carries the artifact format version it is producing: v4
/// writers emit varint length prefixes and the dictionary/delta codecs,
/// v3 writers reproduce the legacy fixed-width layout byte for byte (the
/// backward-compat fixtures rely on this).
/// Op and model serializers never branch on the version themselves — it
/// travels inside the Writer they were handed.
///
/// Not thread-safe (one Writer per serialization in progress; nothing in
/// the artifact layer shares one across threads). Writes never fail short
/// of allocation failure; nothing here blocks.
class Writer {
 public:
  explicit Writer(std::uint32_t format_version = kFormatVersion)
      : version_(format_version) {}

  std::uint32_t format_version() const { return version_; }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint (1 byte for values < 128 — which is nearly
  /// every length prefix and delta in an artifact).
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-mapped signed varint (small magnitudes of either sign stay
  /// short).
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  /// Length-prefixed UTF-8/opaque bytes (varint prefix in v4).
  void str(std::string_view s) {
    if (v4()) {
      varint(s.size());
    } else {
      u64(s.size());
    }
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Un-prefixed raw bytes (bulk append; the container packer uses this for
  /// section payloads, which carry their own length in the section header).
  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Double vectors. v3: fixed count + raw IEEE bits. v4: varint count +
  /// codec byte — raw, or a dictionary (unique-value table + varint
  /// indices) when values repeat enough to win, e.g. histogram-binned tree
  /// thresholds and Zipf-tied IDF weights. Dictionary payloads end with a
  /// CRC-32 over the decoded doubles.
  void doubles(std::span<const double> xs) {
    if (!v4()) {
      u64(xs.size());
      for (double x : xs) f64(x);
      return;
    }
    varint(xs.size());
    const std::size_t n = xs.size();
    std::unordered_map<std::uint64_t, std::uint32_t> dict;
    if (n >= 16) {
      dict.reserve(n / 2 + 1);
      for (double x : xs) {
        if (dict.emplace(std::bit_cast<std::uint64_t>(x),
                         static_cast<std::uint32_t>(dict.size()))
                .second &&
            dict.size() > n / 2) {
          dict.clear();  // too many uniques: raw encoding wins
          break;
        }
      }
    }
    if (dict.empty() || dict.size() > 65535) {
      u8(0);  // raw
      for (double x : xs) f64(x);
      return;
    }
    u8(1);  // dictionary
    varint(dict.size());
    // Table in first-appearance order (the order emplace assigned ids).
    std::vector<double> table(dict.size());
    for (const auto& [bits, id] : dict) {
      table[id] = std::bit_cast<double>(bits);
    }
    for (double x : table) f64(x);
    for (double x : xs) varint(dict.at(std::bit_cast<std::uint64_t>(x)));
    u32(crc32_f64_le(xs));
  }

  void sizes(std::span<const std::size_t> xs) {
    if (!v4()) {
      u64(xs.size());
      for (std::size_t x : xs) u64(x);
      return;
    }
    varint(xs.size());
    for (std::size_t x : xs) varint(x);
  }

  /// Ascending i64 keys. v3: fixed count + raw. v4: svarint first value +
  /// varint deltas (dense key spaces collapse to ~1 byte/key) + CRC-32
  /// over the decoded keys. Callers must pass a sorted span — feature-table
  /// key lists already are.
  void i64s_delta(std::span<const std::int64_t> xs) {
    if (!v4()) {
      u64(xs.size());
      for (std::int64_t x : xs) i64(x);
      return;
    }
    varint(xs.size());
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i == 0) {
        svarint(xs[0]);
      } else {
        if (xs[i] < prev) {
          throw std::logic_error("delta-coded keys must be ascending");
        }
        varint(static_cast<std::uint64_t>(xs[i] - prev));
      }
      prev = xs[i];
    }
    if (!xs.empty()) u32(crc32_i64_le(xs));
  }

  /// Bool vectors (cascade masks) as one byte per element.
  void bools(const std::vector<bool>& xs) {
    u64(xs.size());
    for (bool x : xs) u8(x ? 1 : 0);
  }

  std::span<const std::uint8_t> bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  bool v4() const { return version_ >= 4; }

  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::uint32_t version_;
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte span. Every
/// overrun throws SerializeError(Truncated); element counts are validated
/// against the bytes actually remaining before any allocation, so a
/// bit-flipped length cannot trigger a multi-gigabyte resize. The reader
/// carries the artifact version it is decoding (the container header's
/// version, threaded down by unpack) and mirrors the Writer's per-version
/// layouts; v4 codec payloads additionally verify their decoded-side CRC.
///
/// Borrows, never copies: the span must outlive the Reader. Not
/// thread-safe (the cursor is mutable state); concurrent loads each parse
/// their own Reader over their own bytes. A Reader that has thrown is
/// positioned mid-structure and must be discarded, not resumed.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes,
                  std::uint32_t format_version = kFormatVersion)
      : buf_(bytes), version_(format_version) {}

  std::uint32_t format_version() const { return version_; }

  std::uint8_t u8() { return take_le<std::uint8_t>(); }
  std::uint32_t u32() { return take_le<std::uint32_t>(); }
  std::uint64_t u64() { return take_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(take_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(take_le<std::uint64_t>()); }
  double f64() { return std::bit_cast<double>(take_le<std::uint64_t>()); }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      require(1, "varint");
      const std::uint8_t b = buf_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
      if ((b & 0x80) == 0) {
        if (i == 9 && b > 1) {
          throw SerializeError(ErrorCode::CorruptData, "varint overflows u64");
        }
        return v;
      }
    }
    throw SerializeError(ErrorCode::CorruptData, "varint longer than 10 bytes");
  }

  std::int64_t svarint() {
    const std::uint64_t z = varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  std::string str() {
    const std::uint64_t n =
        v4() ? varlength(1, "string") : length(1, "string");
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  std::vector<double> doubles() {
    if (!v4()) {
      const std::uint64_t n = length(8, "double vector");
      std::vector<double> xs;
      xs.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) xs.push_back(f64());
      return xs;
    }
    const std::uint64_t n = varlength(1, "double vector");
    const std::uint8_t mode = u8();
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(n));
    if (mode == 0) {
      require(static_cast<std::size_t>(n) * 8, "double vector payload");
      for (std::uint64_t i = 0; i < n; ++i) xs.push_back(f64());
      return xs;
    }
    if (mode != 1) {
      throw SerializeError(ErrorCode::CorruptData,
                           "double vector codec mode out of range");
    }
    const std::uint64_t n_unique = varlength(8, "double dictionary");
    if (n_unique == 0 || n_unique > 65535 || n_unique > n) {
      throw SerializeError(ErrorCode::CorruptData,
                           "double dictionary size out of range");
    }
    std::vector<double> table;
    table.reserve(static_cast<std::size_t>(n_unique));
    for (std::uint64_t i = 0; i < n_unique; ++i) table.push_back(f64());
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t idx = varint();
      if (idx >= n_unique) {
        throw SerializeError(ErrorCode::CorruptData,
                             "double dictionary index out of range");
      }
      xs.push_back(table[static_cast<std::size_t>(idx)]);
    }
    if (u32() != crc32_f64_le(xs)) {
      throw SerializeError(ErrorCode::ChecksumMismatch,
                           "decoded double vector fails its CRC");
    }
    return xs;
  }

  std::vector<std::size_t> sizes() {
    if (!v4()) {
      const std::uint64_t n = length(8, "size vector");
      std::vector<std::size_t> xs;
      xs.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        xs.push_back(static_cast<std::size_t>(u64()));
      }
      return xs;
    }
    const std::uint64_t n = varlength(1, "size vector");
    std::vector<std::size_t> xs;
    xs.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      xs.push_back(static_cast<std::size_t>(varint()));
    }
    return xs;
  }

  std::vector<std::int64_t> i64s_delta() {
    std::vector<std::int64_t> xs;
    if (!v4()) {
      const std::uint64_t n = length(8, "key vector");
      xs.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) xs.push_back(i64());
      return xs;
    }
    const std::uint64_t n = varlength(1, "key vector");
    xs.reserve(static_cast<std::size_t>(n));
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i == 0) {
        prev = svarint();
      } else {
        const std::uint64_t d = varint();
        const std::int64_t next =
            static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) + d);
        if (next < prev) {
          throw SerializeError(ErrorCode::CorruptData,
                               "delta-coded key overflows i64");
        }
        prev = next;
      }
      xs.push_back(prev);
    }
    if (!xs.empty() && u32() != crc32_i64_le(xs)) {
      throw SerializeError(ErrorCode::ChecksumMismatch,
                           "decoded key vector fails its CRC");
    }
    return xs;
  }

  std::vector<bool> bools() {
    const std::uint64_t n = length(1, "bool vector");
    std::vector<bool> xs(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint8_t b = u8();
      if (b > 1) {
        throw SerializeError(ErrorCode::CorruptData, "bool byte out of range");
      }
      xs[static_cast<std::size_t>(i)] = b != 0;
    }
    return xs;
  }

  /// Read a fixed u64 element count and validate it against the remaining
  /// payload (each element consumes at least `min_elem_bytes`).
  std::uint64_t length(std::size_t min_elem_bytes, const char* what) {
    return checked(u64(), min_elem_bytes, what);
  }

  /// Varint-prefixed counterpart of length() for v4 payloads.
  std::uint64_t varlength(std::size_t min_elem_bytes, const char* what) {
    return checked(varint(), min_elem_bytes, what);
  }

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }
  std::size_t position() const { return pos_; }

  /// Bytes consumed since `from` (an earlier position()) — the exact wire
  /// image a payload was parsed from, which is what the content-hash
  /// intern pool keys shared fitted state by.
  std::span<const std::uint8_t> window(std::size_t from) const {
    if (from > pos_) {
      throw std::logic_error("Reader::window start past the cursor");
    }
    return buf_.subspan(from, pos_ - from);
  }

  /// Borrow `n` raw bytes (used for nested section payloads).
  std::span<const std::uint8_t> raw(std::size_t n) {
    require(n, "raw bytes");
    auto out = buf_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  bool v4() const { return version_ >= 4; }

  std::uint64_t checked(std::uint64_t n, std::size_t min_elem_bytes,
                        const char* what) {
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      throw SerializeError(ErrorCode::Truncated,
                           std::string(what) + " length exceeds payload");
    }
    return n;
  }

  void require(std::size_t n, const char* what) const {
    if (remaining() < n) {
      throw SerializeError(ErrorCode::Truncated,
                           std::string("reading ") + what + " past the end");
    }
  }

  template <typename T>
  T take_le() {
    require(sizeof(T), "integer");
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(buf_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> buf_;
  std::uint32_t version_;
  std::size_t pos_ = 0;
};

}  // namespace willump::serialize
