#pragma once
// Append-only, checksummed, version-tagged segment files: the on-disk
// unit of the evaluation cache's persistent tier, and the blob format
// the `cache export` / `cache import` RPC verbs ship between replicas.
//
// Layout (all integers little-endian):
//
//   +--------------------------------------------------------------+
//   | header                                                       |
//   |   magic            8 bytes   "UPACSEG1"                      |
//   |   format_version   u32       layout version of THIS table    |
//   |   tag_length       u32                                       |
//   |   tag              bytes     solver-version tag              |
//   +--------------------------------------------------------------+
//   | record (repeated)                                            |
//   |   payload_length   u32                                       |
//   |   payload_crc32    u32       IEEE CRC-32 of the payload      |
//   |   payload:                                                   |
//   |     type_tag       string    codec tag ("f64", ...)          |
//   |     key_bytes      string    canonical KeyBuilder bytes      |
//   |     value_bytes    string    codec-serialized value          |
//   |   (strings are u64 length-prefixed, see serialize.hpp)       |
//   +--------------------------------------------------------------+
//
// Failure semantics, in decreasing blast radius:
//  - magic / format_version / tag mismatch rejects the WHOLE segment
//    (a different layout or a different solver generation must never
//    replay a wrong answer -- at worst everything is recomputed);
//  - a record whose CRC does not match its payload is skipped and
//    counted (a flipped byte loses one record, not the file);
//  - an incomplete record at the end of the file -- the torn tail a
//    kill -9 mid-append leaves behind -- ends the parse silently; the
//    bytes before it all load.
//
// Each append hands its whole frame to the kernel in one pwrite(2) before
// it returns (no user-space buffer), so the only unreadable suffix a
// crash can leave is the one record being written.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace upa::cache {

inline constexpr std::string_view kSegmentMagic = "UPACSEG1";
inline constexpr std::uint32_t kSegmentFormatVersion = 1;
/// Generation tag of the whole solver stack. Per-solver formula versions
/// already live inside every key's bytes (KeyBuilder embeds them), so
/// this tag guards what the keys cannot: the key canonicalization scheme
/// and the value codecs themselves. Bump it when either changes shape.
inline constexpr std::string_view kSolverVersionTag = "upa-solvers-v1";
inline constexpr std::string_view kSegmentExtension = ".upaseg";

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320).
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

struct SegmentRecord {
  std::string type_tag;
  std::string key_bytes;
  std::string value_bytes;
};

/// Serialized header with the given version/tag (parameters exist so
/// tests can fabricate mismatching segments).
[[nodiscard]] std::string segment_header(
    std::uint32_t format_version = kSegmentFormatVersion,
    std::string_view tag = kSolverVersionTag);

/// One framed record: payload length + CRC + payload.
[[nodiscard]] std::string encode_record(const SegmentRecord& record);

/// Appends the same frame to `out`, encoded straight from the three
/// fields with no intermediate strings.
void append_encoded_record(std::string& out, std::string_view type_tag,
                           std::string_view key_bytes,
                           std::string_view value_bytes);

/// Decodes one CRC-valid record payload (the bytes a frame wraps);
/// false when it is structurally wrong -- same bucket as corruption.
bool parse_record_payload(std::string_view payload, SegmentRecord* out);

struct SegmentLoadStats {
  std::size_t segments_loaded = 0;
  std::size_t segments_rejected = 0;  ///< magic/version/tag mismatch
  std::uint64_t records_loaded = 0;
  std::uint64_t records_skipped_crc = 0;
  std::uint64_t torn_tail_bytes = 0;  ///< incomplete trailing record
};

/// Parses one segment's bytes, handing every CRC-valid record to
/// `on_record`. Returns false (and counts segments_rejected) when the
/// header is missing, has the wrong magic, or carries a different
/// format version or solver-version tag.
bool load_segment_bytes(
    std::string_view bytes, SegmentLoadStats& stats,
    const std::function<void(SegmentRecord&&)>& on_record);

/// Read-only view of a segment file. Prefers mmap (attach cost is page
/// tables, not a copy of the file); when the mapping fails -- no mmap on
/// the filesystem, ENOMEM, ... -- the file stays open and `read_at`
/// serves bounded pread slices, so neither path ever buffers a whole
/// multi-gigabyte segment in an std::string.
class MappedFile {
 public:
  MappedFile() = default;
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// False when the file could not be opened or stat'd.
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }
  /// True when the contents are memory-mapped (view() is usable).
  [[nodiscard]] bool mapped() const noexcept { return map_ != nullptr; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// The whole file when mapped; empty otherwise.
  [[nodiscard]] std::string_view view() const noexcept;
  /// Copies [offset, offset+length) into `out` via the mapping or
  /// pread. Returns false on a short or failed read.
  bool read_at(std::uint64_t offset, void* out, std::size_t length) const;
  /// read_at into a string (resized to `length`).
  bool read_at(std::uint64_t offset, std::size_t length,
               std::string* out) const;

 private:
  void reset() noexcept;

  int fd_ = -1;
  void* map_ = nullptr;
  std::uint64_t size_ = 0;
};

/// Parses an open segment through `file` -- zero-copy over the mapping,
/// bounded per-record reads in the pread fallback. Same stats and
/// failure semantics as load_segment_bytes.
bool load_segment_mapped(
    const MappedFile& file, SegmentLoadStats& stats,
    const std::function<void(SegmentRecord&&)>& on_record);

/// File wrapper around load_segment_mapped. An unreadable file counts
/// as a rejected segment.
bool load_segment_file(
    const std::string& path, SegmentLoadStats& stats,
    const std::function<void(SegmentRecord&&)>& on_record);

/// The active segment a process appends to: created eagerly with a
/// fresh header, then appended record by record. Each record is encoded
/// into one reused buffer and written with one pwrite(2) call (retried on
/// short writes) before append returns, so a kill -9 loses at most the
/// record in flight.
class SegmentFile {
 public:
  /// Creates `path` (truncating any stale file of the same name) and
  /// writes the header. Throws ModelError when the file cannot be
  /// created or written.
  explicit SegmentFile(std::string path);
  ~SegmentFile();

  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Appends one framed record. Throws ModelError on write failure
  /// (disk full, ...) after cutting any partial frame off the file.
  void append(std::string_view type_tag, std::string_view key_bytes,
              std::string_view value_bytes);
  void append(const SegmentRecord& record) {
    append(record.type_tag, record.key_bytes, record.value_bytes);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }

 private:
  /// Writes `bytes` at the end of the file, retrying short writes.
  void write_frame(std::string_view bytes);

  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;  ///< bytes written: where the next frame goes
  std::string buffer_;      ///< reused frame encoding buffer
  std::uint64_t records_ = 0;
};

}  // namespace upa::cache
