#pragma once
// Byte codecs for the evaluation cache's persistent tier.
//
// A cached value crosses a process boundary in two places: the on-disk
// segment files (persist.hpp) and the `cache export` / `cache import`
// RPC verbs. Both carry the same encoding, produced here: fixed-width
// little-endian integers, raw IEEE-754 bit patterns for doubles (values
// round-trip BIT FOR BIT -- the whole point of the replay contract; no
// -0.0 normalization happens on the value side, only on the key side),
// and u64 length prefixes for strings and vectors, mirroring
// KeyBuilder's conventions.
//
// Each cached value type gets one ValueCodec with a stable on-disk
// type tag. The registry is closed: the five types the solvers memoize
// (double, std::vector<double>, queueing::MmckMetrics,
// markov::StationaryReport, inject::CampaignEntry) are registered at
// first use. A record whose tag is unknown decodes to nothing and is
// skipped by the loader -- never a wrong answer, at worst a recompute.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "upa/cache/eval_cache.hpp"

namespace upa::cache {

/// Append-only little-endian byte encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after the bytes already in `buffer` (and reuses its
  /// capacity); take() hands the whole buffer back.
  explicit ByteWriter(std::string buffer) : bytes_(std::move(buffer)) {}

  void put_u8(std::uint8_t value) {
    bytes_.push_back(static_cast<char>(value));
  }
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  /// Raw bit pattern; NaN payloads and -0.0 survive unchanged.
  void put_double(double value);
  /// u64 length prefix + raw bytes.
  void put_string(std::string_view value);
  void put_doubles(const std::vector<double>& values);

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::string take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Mirror decoder; every getter throws ModelError on underrun, so a
/// truncated payload can never be silently misread as a short value.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_double();
  [[nodiscard]] std::string get_string();
  [[nodiscard]] std::vector<double> get_doubles();

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  /// Throws ModelError unless every byte was consumed -- trailing bytes
  /// mean the payload was produced by a different (newer) encoder.
  void expect_end() const;

 private:
  void need(std::size_t count) const;

  std::string_view data_;
  std::size_t offset_ = 0;
};

/// One value type's serializer pair. `serialize` is handed the object
/// behind StoredValue::value; `deserialize` rebuilds a StoredValue
/// whose type pointer identifies the concrete type (it throws
/// ModelError on a malformed payload).
struct ValueCodec {
  std::string_view type_tag;
  const std::type_info* type = nullptr;
  std::string (*serialize)(const void* value) = nullptr;
  StoredValue (*deserialize)(std::string_view bytes) = nullptr;
};

/// Codec for a concrete value type; nullptr when the type has none
/// (such values simply do not persist).
[[nodiscard]] const ValueCodec* codec_for_type(const std::type_info& type);

/// Codec for an on-disk tag; nullptr for unknown tags (records written
/// by a newer build are skipped, not misparsed).
[[nodiscard]] const ValueCodec* codec_for_tag(std::string_view tag);

/// All registered tags, sorted (docs and tests).
[[nodiscard]] std::vector<std::string> registered_codec_tags();

/// Lowercase hex transport encoding for shipping segment blobs inside
/// the newline-delimited JSON protocol.
[[nodiscard]] std::string to_hex(std::string_view bytes);
/// Inverse; throws ModelError on odd length or non-hex characters.
[[nodiscard]] std::string from_hex(std::string_view hex);

}  // namespace upa::cache
