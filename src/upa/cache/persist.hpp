#pragma once
// PersistentCache: the disk-backed second tier of EvalCache.
//
// Attach: construction opens every *.upaseg via mmap and loads (or
// rebuilds) its *.upaidx sidecar -- a sorted key-digest -> record-offset
// table -- so attach cost is O(index bytes), not O(decode every value).
// The instance installs itself as the cache's CacheSource: a miss
// binary-searches the indexes, CRC-checks the one record it points at,
// compares FULL key bytes (a digest collision can never replay a wrong
// value), decodes it, and serves it as a disk hit. Millions of records
// cost attach-time microseconds each only when actually touched.
//
// The instance is also the cache's insert sink, so every freshly
// computed value is write-behind-appended to a per-process active
// segment: one frame encoded into a reused buffer and written with one
// pwrite(2) per record, so a kill -9 loses at most the record in flight
// (records are never batched across appends). A key already persisted
// is never appended twice, so re-running a workload leaves the
// directory the same size. Dedupe is by key digest, not full key bytes
// -- a collision merely skips one append, never corrupts a value: the
// sealed segments' sorted indexes answer for what earlier processes
// wrote, and a flat open-addressing DigestSet (no allocation per
// insert) for what this process appended or imported.
//
// Maintenance: start_maintenance() runs background compaction -- when
// the directory holds enough sealed segments they are merged
// first-wins into one `compact-*` segment and atomically swapped in
// (see compact.hpp); the process's own active segment is never touched.
// upa_cachectl drives the same pass offline.
//
// Replication: the free functions below implement the one anti-entropy
// exchange replicas use to move warm sets (serve/anti_entropy.hpp).
// digest_fingerprint collapses a cache's key digests to an
// O(1)-to-compare (count, fold) pair so converged replicas skip the
// exchange; digest_summary is the sorted digest list a puller sends;
// export_delta_page answers it with a bounded page of only the records
// the puller is missing; import_blob / import_segment_blob apply a page.
//
// Writer exclusivity: construction takes an flock(2) DirectoryLock on
// the directory (`.upalock`), so a second writer -- another process OR
// a second in-process attach -- fails fast with an error naming the
// holder's pid instead of interleaving appends and compactions.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "upa/cache/compact.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/cache/index.hpp"
#include "upa/cache/segment.hpp"

namespace upa::cache {

/// Advisory single-writer lock on a cache directory: an exclusive
/// non-blocking flock(2) on `<dir>/.upalock`, stamped with the holder's
/// pid. Construction throws ModelError naming the current holder when
/// the lock is already taken. flock is per open file description, so a
/// second attach from the SAME process conflicts too -- exactly the
/// accident (two sinks appending to one directory) this guards against.
/// The default-constructed lock holds nothing; moving transfers
/// ownership; destruction releases.
class DirectoryLock {
 public:
  DirectoryLock() = default;
  explicit DirectoryLock(const std::string& directory);
  ~DirectoryLock();

  DirectoryLock(DirectoryLock&& other) noexcept;
  DirectoryLock& operator=(DirectoryLock&& other) noexcept;
  DirectoryLock(const DirectoryLock&) = delete;
  DirectoryLock& operator=(const DirectoryLock&) = delete;

  [[nodiscard]] bool held() const noexcept { return fd_ >= 0; }

  /// The lock file's name inside the directory.
  static constexpr const char* kLockFileName = ".upalock";

 private:
  void release() noexcept;
  int fd_ = -1;
};

struct PersistConfig {
  /// Online maintenance compacts once the directory holds at least this
  /// many sealed (non-active) segments.
  std::size_t compact_min_segments = 4;
};

struct PersistStats {
  std::size_t segments_loaded = 0;
  std::size_t segments_rejected = 0;  ///< version/tag mismatch, unreadable
  std::size_t indexes_loaded = 0;     ///< fresh *.upaidx reused
  std::size_t indexes_rebuilt = 0;    ///< missing/stale/corrupt -> rescan
  std::uint64_t records_indexed = 0;  ///< offsets addressable on disk
  std::uint64_t bytes_mapped = 0;     ///< segment bytes behind mmap views
  std::uint64_t records_replayed = 0;  ///< decoded into memory (disk-hit
                                       ///< serve or imported blob)
  std::uint64_t disk_hits = 0;  ///< lazy lookups served from a segment
  std::uint64_t records_skipped_crc = 0;
  std::uint64_t records_skipped_decode = 0;  ///< unknown tag / bad payload
  std::uint64_t records_appended = 0;  ///< written to the active segment
  std::uint64_t write_errors = 0;  ///< appends lost to I/O failure
  std::uint64_t compactions = 0;   ///< maintenance passes that merged
  std::uint64_t compact_records_dropped = 0;
};

struct ImportStats {
  bool segment_rejected = false;
  std::uint64_t records_seeded = 0;     ///< new in-memory entries
  std::uint64_t records_duplicate = 0;  ///< key was already in memory
  std::uint64_t records_skipped = 0;    ///< CRC or decode failures
  std::uint64_t records_appended = 0;   ///< persisted to the active segment
};

/// Insert-only set of 64-bit key digests: open addressing with linear
/// probing over one flat array that doubles at half load, so an insert
/// allocates nothing except on growth. Slot value 0 marks an empty slot;
/// digest 0 itself is tracked by a flag.
class DigestSet {
 public:
  /// True when `digest` was absent (and is now present).
  bool insert(std::uint64_t digest);
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

class PersistentCache final : public CacheSink, public CacheSource {
 public:
  /// Creates `directory` when missing, attaches its segments, and
  /// installs itself as the cache's sink and source.
  /// Throws ModelError when the directory cannot be created or listed.
  PersistentCache(EvalCache& cache, std::string directory,
                  PersistConfig config = {});
  ~PersistentCache() override;

  void on_insert(const CacheKey& key, const StoredValue& value) override;

  /// CacheSource: serves a lookup from the mapped segments.
  bool lookup(const CacheKey& key, StoredValue* out) override;

  /// Decodes a segment blob (one anti-entropy pull page), seeds the
  /// cache, and appends previously unseen records to the active segment
  /// so the pulled warmth survives the NEXT restart too.
  ImportStats import_blob(std::string_view segment_bytes);

  /// Merges this directory's sealed segments (everything but the
  /// process's own active file) into one compacted segment and swaps
  /// the in-memory maps to it. No-op returning performed=false when
  /// fewer than `min_segments` sealed segments exist.
  CompactionStats compact_now(std::size_t min_segments = 2);

  /// Starts (or restarts) the background maintenance thread: every
  /// `interval` it runs compact_now(config.compact_min_segments).
  void start_maintenance(std::chrono::milliseconds interval);
  void stop_maintenance();

  [[nodiscard]] PersistStats stats() const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

 private:
  /// One attached sealed segment: its mapping plus the sorted
  /// digest -> offset table lazily consulted on lookups.
  struct AttachedSegment {
    std::string path;
    MappedFile file;
    std::vector<IndexEntry> entries;
  };

  void load_directory();
  /// Opens + indexes one segment, appends it to segments_, and folds
  /// its digests into persisted_digests_. Caller holds mutex_.
  void attach_segment(const std::string& path);
  /// True when some attached segment's index holds `digest` -- append
  /// dedupe binary-searches the sorted entries instead of building a
  /// digest hash set at attach time (which would dwarf the index load
  /// at 10^5+ records). Caller holds mutex_.
  [[nodiscard]] bool digest_on_disk(std::uint64_t digest) const;
  void append_record(std::string_view type_tag, std::string_view key_bytes,
                     std::string_view value_bytes);

  EvalCache& cache_;
  std::string directory_;
  PersistConfig config_;
  DirectoryLock lock_;  // held for the instance lifetime

  mutable std::mutex mutex_;
  std::unique_ptr<SegmentFile> active_;  // created lazily on first append
  std::vector<AttachedSegment> segments_;  // replay order
  /// Digests THIS process appended or imported; sealed segments
  /// are consulted through their sorted indexes (digest_on_disk).
  DigestSet persisted_digests_;
  PersistStats stats_;

  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  std::thread maintenance_;
  bool maintenance_stop_ = false;
};

/// Serializes every completed in-memory entry that has a registered
/// codec into one segment blob: an unbounded export_delta_page.
struct ExportStats {
  std::uint64_t records = 0;
  std::uint64_t skipped_no_codec = 0;
};
[[nodiscard]] std::string export_segment_blob(EvalCache& cache,
                                              ExportStats* stats = nullptr);

/// Seeds `cache` from a segment blob without touching any disk tier
/// (how a replica running without --cache-dir applies a pull page).
ImportStats import_segment_blob(EvalCache& cache,
                                std::string_view segment_bytes);

/// Sorted, deduplicated key digests of every completed in-memory entry
/// -- the summary a puller sends as `cache pull`'s have_hex.
[[nodiscard]] std::vector<std::uint64_t> digest_summary(EvalCache& cache);

/// Packs digests as little-endian u64s (hex-encode for the wire).
[[nodiscard]] std::string encode_digests(
    const std::vector<std::uint64_t>& digests);
/// Inverse; throws ModelError when the byte count is not a multiple
/// of 8. The result is sorted.
[[nodiscard]] std::vector<std::uint64_t> decode_digests(
    std::string_view bytes);

/// O(1)-to-compare convergence check: the number of distinct key
/// digests plus a commutative splitmix64 fold over them. Equal
/// fingerprints mean equal warm sets (up to a ~2^-64 fold collision),
/// so a converged anti-entropy round costs one tiny RPC instead of
/// shipping the full digest summary.
struct DigestFingerprint {
  std::uint64_t count = 0;
  std::uint64_t fold = 0;
  friend bool operator==(const DigestFingerprint&,
                         const DigestFingerprint&) = default;
};
[[nodiscard]] DigestFingerprint digest_fingerprint(EvalCache& cache);

/// One bounded page of the delta export: records in ascending
/// key-digest order, strictly after `cursor`, packed until adding the
/// next record would push the blob past `max_bytes` (a page always
/// carries at least one record, so progress never stalls on one large
/// value). `complete` means the delta is exhausted; otherwise resume
/// with `next_cursor`. Entries whose key digest is in `have` (must be
/// sorted) are skipped. Lets `cache pull` answers stay under the wire
/// protocol's line cap no matter how large the delta is.
struct DeltaPage {
  std::string blob;            ///< segment header + the page's records
  bool complete = true;        ///< no records remain past this page
  std::uint64_t next_cursor = 0;  ///< resume point (last shipped digest)
  std::uint64_t records = 0;
  std::uint64_t skipped_no_codec = 0;
};
[[nodiscard]] DeltaPage export_delta_page(
    EvalCache& cache, const std::vector<std::uint64_t>& have,
    std::uint64_t cursor, std::size_t max_bytes);

/// Attaches the process-global persistence tier (what --cache-dir
/// does): warms cache::global() from `directory` and write-behinds
/// its inserts there for the rest of the process lifetime. Idempotent
/// for the same directory; throws ModelError when already attached to a
/// different one.
PersistentCache& attach_global_persistence(const std::string& directory);

/// The attached tier, or nullptr when the process runs memory-only.
[[nodiscard]] PersistentCache* global_persistence() noexcept;

}  // namespace upa::cache
