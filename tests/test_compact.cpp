// Dashboard-scale cache tier: per-segment on-disk indexes (staleness
// detection, full-scan fallback and rebuild), segment compaction / GC
// (first-wins dedupe, CRC-drop exactness, atomic swap, online
// maintenance), and the digest/delta anti-entropy exchange replicas use
// to converge on a shared warm set.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "poll_until.hpp"
#include "upa/cache/compact.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/cache/index.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cache/segment.hpp"
#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"

namespace {

namespace cache = upa::cache;
namespace fs = std::filesystem;
using upa::common::ModelError;

struct TempDir {
  TempDir() {
    std::string path = (fs::temp_directory_path() / "upa_compact_XXXXXX");
    if (mkdtemp(path.data()) == nullptr) {
      throw ModelError("mkdtemp failed for " + path);
    }
    dir = path;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  std::string dir;
};

cache::CacheKey key_of(double value) {
  cache::KeyBuilder kb("test.solver", 1);
  kb.add(value);
  return std::move(kb).finish();
}

std::string double_value_bytes(double value) {
  cache::ByteWriter w;
  w.put_double(value);
  return std::move(w).take();
}

cache::SegmentRecord double_record(double key_param, double value) {
  return {"f64", key_of(key_param).bytes, double_value_bytes(value)};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// A sealed segment holding double records key k -> value 10k for each
/// k in `keys`, with optional extra raw bytes appended.
void write_segment(const std::string& path, const std::vector<double>& keys,
                   const std::string& extra = {}) {
  std::string bytes = cache::segment_header();
  for (const double k : keys) {
    bytes += cache::encode_record(double_record(k, 10.0 * k));
  }
  bytes += extra;
  write_file(path, bytes);
}

std::size_t count_files_with_extension(const std::string& dir,
                                       std::string_view extension) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) ++n;
  }
  return n;
}

TEST(CompactIndex, RebuildsOnFirstAttachThenLoads) {
  TempDir tmp;
  const std::string seg = tmp.dir + "/segment-a.upaseg";
  write_segment(seg, {1.0, 2.0, 3.0});

  const cache::MappedFile file(seg);
  ASSERT_TRUE(file.ok());
  const auto first = cache::load_or_build_index(seg, file);
  EXPECT_TRUE(first.segment_ok);
  EXPECT_TRUE(first.rebuilt);
  EXPECT_TRUE(first.written);
  EXPECT_FALSE(first.loaded);
  EXPECT_EQ(first.index.entries.size(), 3u);
  EXPECT_TRUE(fs::exists(cache::index_path_for(seg)));

  const auto second = cache::load_or_build_index(seg, file);
  EXPECT_TRUE(second.loaded);
  EXPECT_FALSE(second.rebuilt);
  ASSERT_EQ(second.index.entries.size(), 3u);

  // Every indexed offset resolves to its record, and lookups through
  // the table find exactly the right key.
  for (const double k : {1.0, 2.0, 3.0}) {
    const auto offsets = cache::offsets_for_digest(second.index.entries,
                                                   key_of(k).digest);
    ASSERT_EQ(offsets.size(), 1u) << k;
    cache::SegmentRecord record;
    ASSERT_TRUE(cache::read_record_at(file, offsets[0], &record));
    EXPECT_EQ(record.key_bytes, key_of(k).bytes);
    EXPECT_EQ(record.value_bytes, double_value_bytes(10.0 * k));
  }
  EXPECT_TRUE(
      cache::offsets_for_digest(second.index.entries, key_of(9.0).digest)
          .empty());
}

TEST(CompactIndex, StaleIndexFallsBackToFullScanAndRebuilds) {
  TempDir tmp;
  const std::string seg = tmp.dir + "/segment-a.upaseg";
  write_segment(seg, {1.0});
  {
    const cache::MappedFile file(seg);
    ASSERT_TRUE(cache::load_or_build_index(seg, file).written);
  }
  // The segment grows after the index was written (another record
  // lands): size + CRC chain both change, the index is stale.
  write_segment(seg, {1.0, 2.0});
  const cache::MappedFile file(seg);
  const auto result = cache::load_or_build_index(seg, file);
  EXPECT_TRUE(result.rebuilt);
  EXPECT_FALSE(result.loaded);
  EXPECT_EQ(result.index.entries.size(), 2u);
}

TEST(CompactIndex, TruncatedOrCorruptIndexRebuilds) {
  TempDir tmp;
  const std::string seg = tmp.dir + "/segment-a.upaseg";
  write_segment(seg, {1.0, 2.0});
  const std::string idx = cache::index_path_for(seg);
  const cache::MappedFile file(seg);
  ASSERT_TRUE(cache::load_or_build_index(seg, file).written);

  // Truncated sidecar: strict decode fails, full scan rebuilds.
  {
    const std::string bytes = read_file(idx);
    write_file(idx, bytes.substr(0, bytes.size() / 2));
    const auto result = cache::load_or_build_index(seg, file);
    EXPECT_TRUE(result.rebuilt);
    EXPECT_EQ(result.index.entries.size(), 2u);
  }
  // Corrupt sidecar (flipped byte): the trailing CRC catches it.
  {
    std::string bytes = read_file(idx);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    write_file(idx, bytes);
    const auto result = cache::load_or_build_index(seg, file);
    EXPECT_TRUE(result.rebuilt);
    EXPECT_EQ(result.index.entries.size(), 2u);
  }
}

TEST(CompactIndex, LazyTierServesThroughARebuiltIndex) {
  TempDir tmp;
  write_segment(tmp.dir + "/segment-a.upaseg", {1.0, 2.0});
  // Plant a stale index, then attach: the tier must rebuild and still
  // serve both records byte-identically.
  {
    const std::string seg = tmp.dir + "/segment-a.upaseg";
    const cache::MappedFile file(seg);
    ASSERT_TRUE(cache::load_or_build_index(seg, file).written);
  }
  write_segment(tmp.dir + "/segment-a.upaseg", {1.0, 2.0, 3.0});

  cache::EvalCache ec;
  cache::PersistentCache tier(ec, tmp.dir);
  EXPECT_EQ(tier.stats().indexes_rebuilt, 1u);
  EXPECT_EQ(tier.stats().records_indexed, 3u);
  for (const double k : {1.0, 2.0, 3.0}) {
    const auto value = ec.get_or_compute<double>(
        key_of(k), []() -> double {
          throw ModelError("index rebuild lost a record");
        });
    EXPECT_EQ(*value, 10.0 * k);
  }
}

TEST(Compact, DropsDuplicatesAndCrcSkippedRecordsExactly) {
  TempDir tmp;
  // Segment A: keys 1, 2, and a CRC-corrupted copy of key 3.
  std::string corrupt = cache::encode_record(double_record(3.0, 30.0));
  corrupt[corrupt.size() - 1] =
      static_cast<char>(corrupt[corrupt.size() - 1] ^ 0x01);
  write_segment(tmp.dir + "/segment-a.upaseg", {1.0, 2.0}, corrupt);
  // Segment B: key 1 AGAIN (with a different value -- first-wins must
  // keep A's) and key 4.
  {
    std::string bytes = cache::segment_header();
    bytes += cache::encode_record(double_record(1.0, 999.0));
    bytes += cache::encode_record(double_record(4.0, 40.0));
    write_file(tmp.dir + "/segment-b.upaseg", bytes);
  }

  const cache::CompactionStats stats = cache::compact_directory(tmp.dir);
  EXPECT_TRUE(stats.performed);
  EXPECT_EQ(stats.segments_in, 2u);
  EXPECT_EQ(stats.records_in, 5u);
  EXPECT_EQ(stats.records_kept, 3u);
  EXPECT_EQ(stats.records_dropped_crc, 1u);        // exactly the bad copy
  EXPECT_EQ(stats.records_dropped_duplicate, 1u);  // B's key 1
  EXPECT_EQ(stats.records_dropped(), 2u);
  EXPECT_EQ(stats.segments_removed, 2u);
  EXPECT_EQ(fs::path(stats.output_path).filename(), "compact-000001.upaseg");
  EXPECT_EQ(count_files_with_extension(tmp.dir, ".upaseg"), 1u);

  // Replay through a fresh tier: survivors byte-identical, first-wins
  // value for the duplicate, and ONLY the CRC-bad record recomputes.
  cache::EvalCache ec;
  cache::PersistentCache tier(ec, tmp.dir);
  EXPECT_EQ(tier.stats().records_indexed, 3u);
  for (const double k : {1.0, 2.0, 4.0}) {
    const auto value = ec.get_or_compute<double>(
        key_of(k),
        []() -> double { throw ModelError("compaction lost a record"); });
    EXPECT_EQ(*value, 10.0 * k);
  }
  int computes = 0;
  (void)ec.get_or_compute<double>(key_of(3.0), [&] {
    ++computes;
    return 30.0;
  });
  EXPECT_EQ(computes, 1);
}

TEST(Compact, GcDropsUnknownTagsAndForeignGenerationSegments) {
  TempDir tmp;
  {
    std::string bytes = cache::segment_header();
    bytes += cache::encode_record(double_record(1.0, 10.0));
    bytes += cache::encode_record(
        {"from_the_future", key_of(2.0).bytes, double_value_bytes(2.0)});
    write_file(tmp.dir + "/segment-a.upaseg", bytes);
  }
  // A whole segment from a different solver generation.
  write_file(tmp.dir + "/segment-b.upaseg",
             cache::segment_header(cache::kSegmentFormatVersion,
                                   "upa-solvers-v0") +
                 cache::encode_record(double_record(9.0, 90.0)));

  // Plain compaction spares the foreign segment...
  const cache::CompactionStats plain =
      cache::compact_directory(tmp.dir, cache::CompactionOptions{});
  EXPECT_EQ(plain.segments_rejected, 1u);
  EXPECT_TRUE(fs::exists(tmp.dir + "/segment-b.upaseg"));
  EXPECT_EQ(plain.records_kept, 2u);  // unknown tag copied as-is

  // ...GC deletes it and drops the unknown-tag record.
  const cache::CompactionStats gc = cache::compact_directory(
      tmp.dir, cache::CompactionOptions{.gc = true});
  EXPECT_EQ(gc.segments_rejected, 1u);
  EXPECT_EQ(gc.records_dropped_unknown_tag, 1u);
  EXPECT_EQ(gc.records_kept, 1u);
  EXPECT_FALSE(fs::exists(tmp.dir + "/segment-b.upaseg"));
  EXPECT_EQ(count_files_with_extension(tmp.dir, ".upaseg"), 1u);
}

TEST(Compact, OnlineCompactionSwapsUnderALiveTier) {
  TempDir tmp;
  write_segment(tmp.dir + "/segment-a.upaseg", {1.0, 2.0});
  write_segment(tmp.dir + "/segment-b.upaseg", {2.0, 3.0});  // 2 duplicated
  write_segment(tmp.dir + "/segment-c.upaseg", {4.0});

  cache::EvalCache ec;
  cache::PersistentCache tier(ec, tmp.dir);
  EXPECT_EQ(tier.stats().records_indexed, 5u);
  // Touch one key first so its value is pinned in memory across the swap.
  (void)ec.get_or_compute<double>(key_of(1.0), []() -> double {
    throw ModelError("attach lost a record");
  });

  const cache::CompactionStats stats = tier.compact_now(2);
  EXPECT_TRUE(stats.performed);
  EXPECT_EQ(stats.records_dropped_duplicate, 1u);
  EXPECT_EQ(count_files_with_extension(tmp.dir, ".upaseg"), 1u);
  EXPECT_EQ(tier.stats().compactions, 1u);
  EXPECT_EQ(tier.stats().records_indexed, 4u);  // post-swap gauge

  // Every key still serves from the swapped-in compacted segment.
  for (const double k : {1.0, 2.0, 3.0, 4.0}) {
    const auto value = ec.get_or_compute<double>(
        key_of(k),
        []() -> double { throw ModelError("compaction swap lost a record"); });
    EXPECT_EQ(*value, 10.0 * k);
  }
  // Below the threshold nothing happens.
  EXPECT_FALSE(tier.compact_now(2).performed);
}

TEST(Compact, MaintenanceThreadCompactsInTheBackground) {
  TempDir tmp;
  write_segment(tmp.dir + "/segment-a.upaseg", {1.0});
  write_segment(tmp.dir + "/segment-b.upaseg", {1.0, 2.0});

  cache::EvalCache ec;
  cache::PersistConfig config;
  config.compact_min_segments = 2;
  cache::PersistentCache tier(ec, tmp.dir, config);
  tier.start_maintenance(std::chrono::milliseconds(5));
  (void)upa::testing::poll_until(
      [&tier] { return tier.stats().compactions > 0; });
  tier.stop_maintenance();
  EXPECT_GE(tier.stats().compactions, 1u);
  EXPECT_EQ(tier.stats().compact_records_dropped, 1u);  // the duplicate
  for (const double k : {1.0, 2.0}) {
    const auto value = ec.get_or_compute<double>(
        key_of(k),
        []() -> double { throw ModelError("maintenance lost a record"); });
    EXPECT_EQ(*value, 10.0 * k);
  }
}

TEST(AntiEntropy, DigestsRoundTripAndDeltaShipsOnlyMissingRecords) {
  cache::EvalCache a;
  cache::EvalCache b;
  for (const double k : {1.0, 2.0}) {
    (void)a.get_or_compute<double>(key_of(k), [k] { return 10.0 * k; });
  }
  for (const double k : {2.0, 3.0, 4.0}) {
    (void)b.get_or_compute<double>(key_of(k), [k] { return 10.0 * k; });
  }

  const std::vector<std::uint64_t> have_a = cache::digest_summary(a);
  EXPECT_EQ(have_a.size(), 2u);
  EXPECT_EQ(cache::decode_digests(cache::encode_digests(have_a)), have_a);
  EXPECT_THROW((void)cache::decode_digests("short"), ModelError);

  // B answers A's pull with only what A is missing: keys 3 and 4.
  const cache::DeltaPage delta = cache::export_delta_page(
      b, have_a, 0, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(delta.records, 2u);
  const cache::ImportStats imported =
      cache::import_segment_blob(a, delta.blob);
  EXPECT_EQ(imported.records_seeded, 2u);
  EXPECT_EQ(imported.records_duplicate, 0u);
  EXPECT_EQ(a.size(), 4u);
  for (const double k : {1.0, 2.0, 3.0, 4.0}) {
    const auto value = a.get_or_compute<double>(
        key_of(k),
        []() -> double { throw ModelError("anti-entropy lost a record"); });
    EXPECT_EQ(*value, 10.0 * k);
  }
}

TEST(AntiEntropy, ConvergesUnderConcurrentInserts) {
  // Two replicas keep computing disjoint fresh keys while an
  // anti-entropy thread exchanges deltas in both directions. After the
  // writers stop, one final round in each direction must make the
  // replicas identical -- and the exchange must be TSan-clean against
  // the live insert path.
  cache::EvalCache a(cache::EvalCache::Config{16, 4096});
  cache::EvalCache b(cache::EvalCache::Config{16, 4096});
  constexpr int kKeysPerSide = 300;
  std::atomic<bool> writers_done{false};

  const auto pull = [](cache::EvalCache& into, cache::EvalCache& from) {
    const cache::DeltaPage delta =
        cache::export_delta_page(from, cache::digest_summary(into), 0,
                                 std::numeric_limits<std::size_t>::max());
    (void)cache::import_segment_blob(into, delta.blob);
  };

  std::thread writer_a([&] {
    for (int k = 0; k < kKeysPerSide; ++k) {
      (void)a.get_or_compute<double>(key_of(double(k)),
                                     [k] { return double(k); });
    }
  });
  std::thread writer_b([&] {
    for (int k = 0; k < kKeysPerSide; ++k) {
      (void)b.get_or_compute<double>(key_of(1000.0 + k),
                                     [k] { return 1000.0 + k; });
    }
  });
  std::thread exchanger([&] {
    while (!writers_done.load()) {
      pull(a, b);
      pull(b, a);
    }
  });
  writer_a.join();
  writer_b.join();
  writers_done = true;
  exchanger.join();
  pull(a, b);
  pull(b, a);

  EXPECT_EQ(a.size(), std::size_t(2 * kKeysPerSide));
  EXPECT_EQ(b.size(), std::size_t(2 * kKeysPerSide));
  EXPECT_EQ(cache::digest_summary(a), cache::digest_summary(b));
}

}  // namespace
