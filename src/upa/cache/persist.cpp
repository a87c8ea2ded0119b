#include "upa/cache/persist.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>
#include <utility>
#include <vector>

#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"

namespace upa::cache {

namespace fs = std::filesystem;

namespace {

/// Sorted *.upaseg paths under `directory` (replay order).
std::vector<std::string> list_segments(const std::string& directory) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() == kSegmentExtension) {
      paths.push_back(path.string());
    }
  }
  UPA_REQUIRE(!ec, "cannot list cache directory '" + directory +
                       "': " + ec.message());
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Best-effort read of the pid a lock file was stamped with, for the
/// "held by pid N" error message. Empty when unreadable.
std::string read_lock_holder(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  char buffer[32];
  const ssize_t got = ::read(fd, buffer, sizeof(buffer) - 1);
  ::close(fd);
  if (got <= 0) return {};
  buffer[got] = '\0';
  std::string holder(buffer);
  while (!holder.empty() &&
         (holder.back() == '\n' || holder.back() == '\r')) {
    holder.pop_back();
  }
  return holder;
}

/// Seeds one decoded record into `cache`; returns false on an unknown
/// type tag or decode failure.
bool seed_record(EvalCache& cache, const SegmentRecord& record,
                 bool* inserted) {
  const ValueCodec* codec = codec_for_tag(record.type_tag);
  if (codec == nullptr) return false;
  CacheKey key;
  key.bytes = record.key_bytes;
  key.digest = key_digest(key.bytes);
  try {
    key.solver_id = solver_id_from_key_bytes(key.bytes);
    StoredValue value = codec->deserialize(record.value_bytes);
    *inserted = cache.seed(key, std::move(value));
  } catch (const common::ModelError&) {
    return false;
  }
  return true;
}

/// Fibonacci hashing: spreads a digest's bits over the slot index.
std::size_t digest_slot(std::uint64_t digest, std::size_t mask) {
  return static_cast<std::size_t>((digest * 0x9e3779b97f4a7c15ULL) >> 32) &
         mask;
}

}  // namespace

bool DigestSet::insert(std::uint64_t digest) {
  if (digest == 0) {
    if (has_zero_) return false;
    has_zero_ = true;
    ++size_;
    return true;
  }
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = digest_slot(digest, mask);; i = (i + 1) & mask) {
    if (slots_[i] == digest) return false;
    if (slots_[i] == 0) {
      slots_[i] = digest;
      ++size_;
      return true;
    }
  }
}

void DigestSet::grow() {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(16, 2 * old.size()), 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t digest : old) {
    if (digest == 0) continue;
    std::size_t i = digest_slot(digest, mask);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = digest;
  }
}

DirectoryLock::DirectoryLock(const std::string& directory) {
  const std::string path =
      directory + "/" + std::string(kLockFileName);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  UPA_REQUIRE(fd_ >= 0, "cannot open cache lock file '" + path +
                            "': " + std::strerror(errno));
  if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
    const int error = errno;
    const std::string holder = read_lock_holder(path);
    ::close(fd_);
    fd_ = -1;
    if (error == EWOULDBLOCK || error == EAGAIN) {
      throw common::ModelError(
          "cache directory '" + directory + "' already has a writer" +
          (holder.empty() ? std::string()
                          : " (pid " + holder + ")") +
          "; run against it after that process exits, or use a "
          "read-only verb");
    }
    throw common::ModelError("cannot lock cache directory '" + directory +
                             "': " + std::strerror(error));
  }
  // Stamp the holder pid purely for diagnostics -- the flock is the
  // actual exclusion, so a stale stamp after a crash locks nothing.
  const std::string stamp = std::to_string(::getpid()) + "\n";
  (void)::ftruncate(fd_, 0);
  (void)::pwrite(fd_, stamp.data(), stamp.size(), 0);
}

DirectoryLock::~DirectoryLock() { release(); }

DirectoryLock::DirectoryLock(DirectoryLock&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

DirectoryLock& DirectoryLock::operator=(DirectoryLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void DirectoryLock::release() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);  // closing the descriptor drops the flock
    fd_ = -1;
  }
}

PersistentCache::PersistentCache(EvalCache& cache, std::string directory,
                                 PersistConfig config)
    : cache_(cache), directory_(std::move(directory)), config_(config) {
  UPA_REQUIRE(!directory_.empty(), "cache directory must be non-empty");
  std::error_code ec;
  fs::create_directories(directory_, ec);
  UPA_REQUIRE(!ec, "cannot create cache directory '" + directory_ +
                       "': " + ec.message());
  lock_ = DirectoryLock(directory_);
  load_directory();
  cache_.set_source(this);
  cache_.set_sink(this);
}

PersistentCache::~PersistentCache() {
  stop_maintenance();
  cache_.set_sink(nullptr);
  cache_.set_source(nullptr);
}

void PersistentCache::load_directory() {
  const std::vector<std::string> paths = list_segments(directory_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::string& path : paths) attach_segment(path);
}

void PersistentCache::attach_segment(const std::string& path) {
  AttachedSegment segment;
  segment.path = path;
  segment.file = MappedFile(path);
  IndexLoadResult result = load_or_build_index(path, segment.file);
  if (!result.segment_ok) {
    ++stats_.segments_rejected;
    return;
  }
  ++stats_.segments_loaded;
  if (result.loaded) ++stats_.indexes_loaded;
  if (result.rebuilt) {
    ++stats_.indexes_rebuilt;
    stats_.records_skipped_crc += result.scan.records_skipped_crc;
  }
  segment.entries = std::move(result.index.entries);
  stats_.records_indexed += segment.entries.size();
  if (segment.file.mapped()) stats_.bytes_mapped += segment.file.size();
  // Deliberately NOT folded into persisted_digests_: the entries are
  // already sorted by digest, so append dedupe binary-searches them in
  // place (digest_on_disk). Building a 10^5..10^6-element hash set here
  // would cost more than the whole index load -- the attach speedup the
  // index exists for.
  segments_.push_back(std::move(segment));
}

bool PersistentCache::digest_on_disk(std::uint64_t digest) const {
  for (const AttachedSegment& segment : segments_) {
    if (std::binary_search(segment.entries.begin(), segment.entries.end(),
                           IndexEntry{digest, 0},
                           [](const IndexEntry& a, const IndexEntry& b) {
                             return a.digest < b.digest;
                           })) {
      return true;
    }
  }
  return false;
}

bool PersistentCache::lookup(const CacheKey& key, StoredValue* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const AttachedSegment& segment : segments_) {
    for (const std::uint64_t offset :
         offsets_for_digest(segment.entries, key.digest)) {
      SegmentRecord record;
      if (!read_record_at(segment.file, offset, &record)) continue;
      if (record.key_bytes != key.bytes) continue;  // digest collision
      const ValueCodec* codec = codec_for_tag(record.type_tag);
      if (codec == nullptr) {
        ++stats_.records_skipped_decode;
        continue;
      }
      try {
        *out = codec->deserialize(record.value_bytes);
      } catch (const common::ModelError&) {
        ++stats_.records_skipped_decode;
        continue;
      }
      ++stats_.disk_hits;
      ++stats_.records_replayed;
      return true;
    }
  }
  return false;
}

void PersistentCache::append_record(std::string_view type_tag,
                                    std::string_view key_bytes,
                                    std::string_view value_bytes) {
  // Callers hold mutex_. The active segment is named after the process
  // so sequential runs sharing a directory never clobber each other's
  // file; a suffix probe handles pid reuse across runs. (Concurrent
  // writers are excluded outright by the DirectoryLock.)
  try {
    if (active_ == nullptr) {
      const std::string stem =
          directory_ + "/segment-p" + std::to_string(::getpid());
      std::string path = stem + std::string(kSegmentExtension);
      for (int n = 1; fs::exists(path); ++n) {
        path = stem + "-" + std::to_string(n) +
               std::string(kSegmentExtension);
      }
      active_ = std::make_unique<SegmentFile>(path);
    }
    active_->append(type_tag, key_bytes, value_bytes);
    ++stats_.records_appended;
  } catch (const std::exception&) {
    // An unwritable tier must never take the workload down; the value
    // stays cached in memory and simply will not survive a restart.
    ++stats_.write_errors;
  }
}

void PersistentCache::on_insert(const CacheKey& key,
                                const StoredValue& value) {
  const ValueCodec* codec = codec_for_type(*value.type);
  if (codec == nullptr) return;  // unknown type: memory-only
  std::lock_guard<std::mutex> lock(mutex_);
  // Already on disk (or a digest collision: skip, recompute later -- a
  // collision can lose an append, never a value). Sealed segments are
  // consulted via their sorted indexes; the hash set only tracks keys
  // THIS process appended or imported.
  if (digest_on_disk(key.digest)) return;
  if (!persisted_digests_.insert(key.digest)) return;
  append_record(codec->type_tag, key.bytes,
                codec->serialize(value.value.get()));
}

ImportStats PersistentCache::import_blob(std::string_view segment_bytes) {
  ImportStats import;
  SegmentLoadStats blob_stats;
  std::lock_guard<std::mutex> lock(mutex_);
  const bool accepted =
      load_segment_bytes(segment_bytes, blob_stats,
                         [&](SegmentRecord&& record) {
                           bool inserted = false;
                           if (!seed_record(cache_, record, &inserted)) {
                             ++import.records_skipped;
                             ++stats_.records_skipped_decode;
                             return;
                           }
                           ++stats_.records_replayed;
                           if (inserted) {
                             ++import.records_seeded;
                           } else {
                             ++import.records_duplicate;
                           }
                           const std::uint64_t digest =
                               key_digest(record.key_bytes);
                           if (!digest_on_disk(digest) &&
                               persisted_digests_.insert(digest)) {
                             const std::uint64_t before =
                                 stats_.records_appended;
                             append_record(record.type_tag,
                                           record.key_bytes,
                                           record.value_bytes);
                             import.records_appended +=
                                 stats_.records_appended - before;
                           }
                         });
  import.segment_rejected = !accepted;
  import.records_skipped += blob_stats.records_skipped_crc;
  stats_.records_skipped_crc += blob_stats.records_skipped_crc;
  if (!accepted) ++stats_.segments_rejected;
  return import;
}

CompactionStats PersistentCache::compact_now(std::size_t min_segments) {
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string active_path =
        active_ != nullptr ? active_->path() : std::string();
    for (const std::string& path : list_segments(directory_)) {
      if (path != active_path) paths.push_back(path);
    }
    if (paths.size() < std::max<std::size_t>(min_segments, 1)) {
      return CompactionStats{};
    }
  }

  // Merge outside the lock: the inputs are sealed files (this process
  // appends only to active_, which is excluded), and concurrent
  // lookups keep reading the OLD mappings -- a deleted-but-mapped file
  // stays readable -- until the swap below.
  CompactionStats merged =
      compact_segments(paths, next_compact_path(directory_), {});
  if (!merged.performed) return merged;

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.compactions;
  stats_.compact_records_dropped += merged.records_dropped();
  std::uint64_t detached_indexed = 0;
  std::uint64_t detached_mapped = 0;
  segments_.erase(
      std::remove_if(segments_.begin(), segments_.end(),
                     [&](const AttachedSegment& segment) {
                       if (std::find(paths.begin(), paths.end(),
                                     segment.path) == paths.end()) {
                         return false;
                       }
                       detached_indexed += segment.entries.size();
                       if (segment.file.mapped()) {
                         detached_mapped += segment.file.size();
                       }
                       return true;
                     }),
      segments_.end());
  stats_.records_indexed -= detached_indexed;
  stats_.bytes_mapped -= detached_mapped;
  attach_segment(merged.output_path);
  // Replay priority: "compact-*" sorts before "segment-*", so keep
  // the attach list in name order exactly like a fresh load would.
  std::sort(segments_.begin(), segments_.end(),
            [](const AttachedSegment& a, const AttachedSegment& b) {
              return a.path < b.path;
            });
  return merged;
}

void PersistentCache::start_maintenance(std::chrono::milliseconds interval) {
  stop_maintenance();
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    maintenance_stop_ = false;
  }
  maintenance_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(maintenance_mutex_);
    while (!maintenance_stop_) {
      if (maintenance_cv_.wait_for(lock, interval,
                                   [this] { return maintenance_stop_; })) {
        break;
      }
      lock.unlock();
      try {
        compact_now(config_.compact_min_segments);
      } catch (const std::exception&) {
        // An unwritable directory must not kill the maintenance loop;
        // the next pass retries.
      }
      lock.lock();
    }
  });
}

void PersistentCache::stop_maintenance() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    maintenance_stop_ = true;
  }
  maintenance_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
}

PersistStats PersistentCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string export_segment_blob(EvalCache& cache, ExportStats* stats) {
  DeltaPage page = export_delta_page(
      cache, {}, 0, std::numeric_limits<std::size_t>::max());
  if (stats != nullptr) {
    *stats = ExportStats{page.records, page.skipped_no_codec};
  }
  return std::move(page.blob);
}

ImportStats import_segment_blob(EvalCache& cache,
                                std::string_view segment_bytes) {
  ImportStats import;
  SegmentLoadStats blob_stats;
  const bool accepted = load_segment_bytes(
      segment_bytes, blob_stats, [&](SegmentRecord&& record) {
        bool inserted = false;
        if (!seed_record(cache, record, &inserted)) {
          ++import.records_skipped;
        } else if (inserted) {
          ++import.records_seeded;
        } else {
          ++import.records_duplicate;
        }
      });
  import.segment_rejected = !accepted;
  import.records_skipped += blob_stats.records_skipped_crc;
  return import;
}

std::vector<std::uint64_t> digest_summary(EvalCache& cache) {
  std::vector<std::uint64_t> digests;
  for (const EvalCache::SnapshotEntry& entry : cache.snapshot()) {
    digests.push_back(key_digest(entry.key_bytes));
  }
  std::sort(digests.begin(), digests.end());
  digests.erase(std::unique(digests.begin(), digests.end()),
                digests.end());
  return digests;
}

std::string encode_digests(const std::vector<std::uint64_t>& digests) {
  ByteWriter w;
  for (const std::uint64_t digest : digests) w.put_u64(digest);
  return std::move(w).take();
}

std::vector<std::uint64_t> decode_digests(std::string_view bytes) {
  UPA_REQUIRE(bytes.size() % 8 == 0,
              "digest summary bytes must be a multiple of 8");
  ByteReader r(bytes);
  std::vector<std::uint64_t> digests;
  digests.reserve(bytes.size() / 8);
  while (r.remaining() > 0) digests.push_back(r.get_u64());
  std::sort(digests.begin(), digests.end());
  return digests;
}

namespace {

/// Finalizer-strength 64-bit mixer (splitmix64). XOR-folding the MIXED
/// digests stays commutative -- replicas enumerate in different orders
/// -- while the mix keeps structured digest sets from cancelling.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

DigestFingerprint digest_fingerprint(EvalCache& cache) {
  DigestFingerprint fp;
  for (const std::uint64_t digest : digest_summary(cache)) {
    ++fp.count;
    fp.fold ^= splitmix64(digest);
  }
  return fp;
}

DeltaPage export_delta_page(EvalCache& cache,
                            const std::vector<std::uint64_t>& have,
                            std::uint64_t cursor, std::size_t max_bytes) {
  UPA_REQUIRE(max_bytes > 0, "delta page max_bytes must be positive");
  // Digest order makes the cursor meaningful across calls even though
  // the snapshots are taken independently: every digest <= cursor was
  // already shipped (or skipped), so concurrent inserts behind the
  // cursor are simply left for the NEXT round, like any gossip.
  std::vector<EvalCache::SnapshotEntry> entries = cache.snapshot();
  std::sort(entries.begin(), entries.end(),
            [](const EvalCache::SnapshotEntry& a,
               const EvalCache::SnapshotEntry& b) {
              return key_digest(a.key_bytes) < key_digest(b.key_bytes);
            });
  DeltaPage page;
  page.blob = segment_header();
  page.next_cursor = cursor;
  std::uint64_t previous = cursor;
  for (const EvalCache::SnapshotEntry& entry : entries) {
    const std::uint64_t digest = key_digest(entry.key_bytes);
    if (digest <= cursor) continue;
    if (digest == previous) continue;  // digest dupe: first key wins
    if (std::binary_search(have.begin(), have.end(), digest)) continue;
    const ValueCodec* codec = codec_for_type(*entry.value.type);
    if (codec == nullptr) {
      ++page.skipped_no_codec;
      continue;
    }
    const std::string record = encode_record(SegmentRecord{
        std::string(codec->type_tag), entry.key_bytes,
        codec->serialize(entry.value.value.get())});
    if (page.records > 0 && page.blob.size() + record.size() > max_bytes) {
      page.complete = false;
      break;
    }
    page.blob += record;
    ++page.records;
    page.next_cursor = digest;
    previous = digest;
  }
  return page;
}

namespace {
std::mutex g_persist_mutex;
std::unique_ptr<PersistentCache> g_persist_owner;
std::atomic<PersistentCache*> g_persist{nullptr};
}  // namespace

PersistentCache& attach_global_persistence(const std::string& directory) {
  std::lock_guard<std::mutex> lock(g_persist_mutex);
  if (g_persist_owner != nullptr) {
    UPA_REQUIRE(g_persist_owner->directory() == directory,
                "cache persistence is already attached to '" +
                    g_persist_owner->directory() +
                    "'; cannot re-attach to '" + directory + "'");
    return *g_persist_owner;
  }
  g_persist_owner =
      std::make_unique<PersistentCache>(global(), directory);
  g_persist.store(g_persist_owner.get(), std::memory_order_release);
  return *g_persist_owner;
}

PersistentCache* global_persistence() noexcept {
  return g_persist.load(std::memory_order_acquire);
}

}  // namespace upa::cache
