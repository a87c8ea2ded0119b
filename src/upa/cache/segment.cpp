#include "upa/cache/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"

namespace upa::cache {

namespace {

/// Eight slice-by-8 tables for the reflected IEEE polynomial: table 0
/// is the classic bytewise table, table k folds a byte that sits k
/// positions further ahead, so eight lookups advance the CRC a full
/// 64-bit word. Same polynomial, bit-identical digests -- attach-time
/// index/chain verification runs over megabytes, so the byte-at-a-time
/// loop was the hot spot.
std::array<std::array<std::uint32_t, 256>, 8> build_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t slice = 1; slice < 8; ++slice) {
      const std::uint32_t prev = tables[slice - 1][i];
      tables[slice][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

/// Reads the little-endian u32 at `at` (caller checks bounds).
std::uint32_t read_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<std::uint8_t>(
                               bytes[at + static_cast<std::size_t>(i)]);
  }
  return value;
}

}  // namespace

bool parse_record_payload(std::string_view payload, SegmentRecord* out) {
  try {
    ByteReader r(payload);
    out->type_tag = r.get_string();
    out->key_bytes = r.get_string();
    out->value_bytes = r.get_string();
    r.expect_end();
  } catch (const common::ModelError&) {
    return false;
  }
  return true;
}

std::uint32_t crc32(std::string_view data) noexcept {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      build_crc_tables();
  const auto& t = tables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    // Slice-by-8: fold one aligned-load word per step instead of one
    // byte. The XOR trick (word ^ crc) only lines up the CRC with the
    // word's low bytes on a little-endian host.
    while (n >= 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      word ^= crc;
      crc = t[7][word & 0xffu] ^ t[6][(word >> 8) & 0xffu] ^
            t[5][(word >> 16) & 0xffu] ^ t[4][(word >> 24) & 0xffu] ^
            t[3][(word >> 32) & 0xffu] ^ t[2][(word >> 40) & 0xffu] ^
            t[1][(word >> 48) & 0xffu] ^ t[0][(word >> 56) & 0xffu];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string segment_header(std::uint32_t format_version,
                           std::string_view tag) {
  ByteWriter w;
  std::string out(kSegmentMagic);
  w.put_u32(format_version);
  w.put_u32(static_cast<std::uint32_t>(tag.size()));
  out += w.bytes();
  out.append(tag.data(), tag.size());
  return out;
}

namespace {

/// Writes `value` little-endian over the 4 bytes at `at`.
void store_u32(char* at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

}  // namespace

void append_encoded_record(std::string& out, std::string_view type_tag,
                           std::string_view key_bytes,
                           std::string_view value_bytes) {
  const std::size_t payload_size =
      24 + type_tag.size() + key_bytes.size() + value_bytes.size();
  const std::size_t frame = out.size();
  out.reserve(frame + 8 + payload_size);
  ByteWriter w(std::move(out));
  w.put_u64(0);  // length + CRC, filled in once the payload is there
  w.put_string(type_tag);
  w.put_string(key_bytes);
  w.put_string(value_bytes);
  out = std::move(w).take();
  store_u32(out.data() + frame, static_cast<std::uint32_t>(payload_size));
  store_u32(out.data() + frame + 4,
            crc32(std::string_view(out).substr(frame + 8, payload_size)));
}

std::string encode_record(const SegmentRecord& record) {
  std::string out;
  append_encoded_record(out, record.type_tag, record.key_bytes,
                        record.value_bytes);
  return out;
}

bool load_segment_bytes(
    std::string_view bytes, SegmentLoadStats& stats,
    const std::function<void(SegmentRecord&&)>& on_record) {
  // Header: magic, format version, tag.
  const std::size_t fixed = kSegmentMagic.size() + 8;
  if (bytes.size() < fixed ||
      bytes.substr(0, kSegmentMagic.size()) != kSegmentMagic) {
    ++stats.segments_rejected;
    return false;
  }
  const std::uint32_t version = read_u32(bytes, kSegmentMagic.size());
  const std::uint32_t tag_length =
      read_u32(bytes, kSegmentMagic.size() + 4);
  if (version != kSegmentFormatVersion || tag_length > bytes.size() - fixed ||
      bytes.substr(fixed, tag_length) != kSolverVersionTag) {
    ++stats.segments_rejected;
    return false;
  }

  std::size_t at = fixed + tag_length;
  while (at < bytes.size()) {
    if (bytes.size() - at < 8) {
      stats.torn_tail_bytes += bytes.size() - at;
      break;  // torn frame header
    }
    const std::uint32_t length = read_u32(bytes, at);
    const std::uint32_t expected_crc = read_u32(bytes, at + 4);
    if (bytes.size() - at - 8 < length) {
      stats.torn_tail_bytes += bytes.size() - at;
      break;  // torn payload
    }
    const std::string_view payload = bytes.substr(at + 8, length);
    at += 8 + length;
    if (crc32(payload) != expected_crc) {
      ++stats.records_skipped_crc;
      continue;
    }
    SegmentRecord record;
    if (!parse_record_payload(payload, &record)) {
      ++stats.records_skipped_crc;
      continue;
    }
    ++stats.records_loaded;
    on_record(std::move(record));
  }
  ++stats.segments_loaded;
  return true;
}

MappedFile::MappedFile(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return;
  struct stat st{};
  if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ == 0) return;  // nothing to map; view() is empty
  void* map = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ,
                     MAP_PRIVATE, fd_, 0);
  if (map != MAP_FAILED) map_ = map;  // else: pread fallback via read_at
}

void MappedFile::reset() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, static_cast<std::size_t>(size_));
    map_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  size_ = 0;
}

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      map_(std::exchange(other.map_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = std::exchange(other.fd_, -1);
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

std::string_view MappedFile::view() const noexcept {
  if (map_ == nullptr) return {};
  return {static_cast<const char*>(map_), static_cast<std::size_t>(size_)};
}

bool MappedFile::read_at(std::uint64_t offset, void* out,
                         std::size_t length) const {
  if (!ok() || offset > size_ || size_ - offset < length) return false;
  if (map_ != nullptr) {
    std::memcpy(out, static_cast<const char*>(map_) + offset, length);
    return true;
  }
  std::size_t done = 0;
  while (done < length) {
    const ::ssize_t n =
        ::pread(fd_, static_cast<char*>(out) + done, length - done,
                static_cast<::off_t>(offset + done));
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool MappedFile::read_at(std::uint64_t offset, std::size_t length,
                         std::string* out) const {
  out->resize(length);
  return read_at(offset, out->data(), length);
}

bool load_segment_mapped(
    const MappedFile& file, SegmentLoadStats& stats,
    const std::function<void(SegmentRecord&&)>& on_record) {
  if (!file.ok()) {
    ++stats.segments_rejected;
    return false;
  }
  if (file.mapped() || file.size() == 0) {
    return load_segment_bytes(file.view(), stats, on_record);
  }

  // pread fallback: same parse, one bounded record buffer at a time.
  const std::size_t fixed = kSegmentMagic.size() + 8;
  std::string head;
  if (file.size() < fixed || !file.read_at(0, fixed, &head) ||
      std::string_view(head).substr(0, kSegmentMagic.size()) !=
          kSegmentMagic) {
    ++stats.segments_rejected;
    return false;
  }
  const std::uint32_t version = read_u32(head, kSegmentMagic.size());
  const std::uint32_t tag_length = read_u32(head, kSegmentMagic.size() + 4);
  std::string tag;
  if (version != kSegmentFormatVersion || tag_length > file.size() - fixed ||
      !file.read_at(fixed, tag_length, &tag) || tag != kSolverVersionTag) {
    ++stats.segments_rejected;
    return false;
  }

  std::uint64_t at = fixed + tag_length;
  std::string payload;
  while (at < file.size()) {
    char frame[8];
    if (file.size() - at < 8 || !file.read_at(at, frame, 8)) {
      stats.torn_tail_bytes += file.size() - at;
      break;
    }
    const std::string_view frame_view(frame, 8);
    const std::uint32_t length = read_u32(frame_view, 0);
    const std::uint32_t expected_crc = read_u32(frame_view, 4);
    if (file.size() - at - 8 < length ||
        !file.read_at(at + 8, length, &payload)) {
      stats.torn_tail_bytes += file.size() - at;
      break;
    }
    at += 8 + length;
    if (crc32(payload) != expected_crc) {
      ++stats.records_skipped_crc;
      continue;
    }
    SegmentRecord record;
    if (!parse_record_payload(payload, &record)) {
      ++stats.records_skipped_crc;
      continue;
    }
    ++stats.records_loaded;
    on_record(std::move(record));
  }
  ++stats.segments_loaded;
  return true;
}

bool load_segment_file(
    const std::string& path, SegmentLoadStats& stats,
    const std::function<void(SegmentRecord&&)>& on_record) {
  const MappedFile file(path);
  return load_segment_mapped(file, stats, on_record);
}

SegmentFile::SegmentFile(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0666);
  UPA_REQUIRE(fd_ >= 0, "cannot create cache segment '" + path_ +
                            "': " + std::strerror(errno));
  try {
    write_frame(segment_header());
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

SegmentFile::~SegmentFile() {
  if (fd_ >= 0) ::close(fd_);
}

void SegmentFile::write_frame(std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ::ssize_t n =
        ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                 static_cast<::off_t>(size_ + done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      const int error = n < 0 ? errno : EIO;
      // Cut the partial frame off so the next append starts on a record
      // boundary instead of behind unparseable bytes.
      (void)::ftruncate(fd_, static_cast<::off_t>(size_));
      throw common::ModelError("cannot write to cache segment '" + path_ +
                               "': " + std::strerror(error));
    }
  }
  size_ += bytes.size();
}

void SegmentFile::append(std::string_view type_tag, std::string_view key_bytes,
                         std::string_view value_bytes) {
  UPA_REQUIRE(fd_ >= 0,
              "cache segment '" + path_ + "' is not open for append");
  buffer_.clear();
  append_encoded_record(buffer_, type_tag, key_bytes, value_bytes);
  write_frame(buffer_);
  ++records_;
}

}  // namespace upa::cache
