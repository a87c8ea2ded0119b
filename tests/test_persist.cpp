// Persistent cache tier: segment framing (CRC, torn tails, version
// gates), the value codecs' bit-for-bit round-trip contract, key-byte
// reconstruction, the PersistentCache warm-restart path, and the
// export/import blob transfer the farm uses to warm a restarted
// replica from a healthy peer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cache/segment.hpp"
#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/inject/campaign.hpp"
#include "upa/markov/ctmc.hpp"
#include "upa/queueing/mmck.hpp"

namespace {

namespace cache = upa::cache;
namespace fs = std::filesystem;
using upa::common::ModelError;

/// Unique on-disk directory per test: gtest_discover_tests runs each
/// TEST as its own process, so tests sharing a fixed path would race.
struct TempDir {
  TempDir() {
    std::string path = (fs::temp_directory_path() / "upa_persist_XXXXXX");
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

std::vector<cache::SegmentRecord> load_all(std::string_view bytes,
                                           cache::SegmentLoadStats& stats,
                                           bool* accepted = nullptr) {
  std::vector<cache::SegmentRecord> records;
  const bool ok = cache::load_segment_bytes(
      bytes, stats,
      [&](cache::SegmentRecord&& r) { records.push_back(std::move(r)); });
  if (accepted != nullptr) *accepted = ok;
  return records;
}

TEST(PersistSegment, RecordsRoundTripThroughTheFraming) {
  std::string bytes = cache::segment_header();
  bytes += cache::encode_record(double_record(1.0, 10.0));
  bytes += cache::encode_record(double_record(2.0, 20.0));

  cache::SegmentLoadStats stats;
  bool accepted = false;
  const auto records = load_all(bytes, stats, &accepted);
  EXPECT_TRUE(accepted);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type_tag, "f64");
  EXPECT_EQ(records[0].key_bytes, key_of(1.0).bytes);
  EXPECT_EQ(records[0].value_bytes, double_value_bytes(10.0));
  EXPECT_EQ(records[1].value_bytes, double_value_bytes(20.0));
  EXPECT_EQ(stats.records_loaded, 2u);
  EXPECT_EQ(stats.records_skipped_crc, 0u);
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
}

TEST(PersistSegment, TornTailLoadsEveryCompleteRecord) {
  std::string bytes = cache::segment_header();
  bytes += cache::encode_record(double_record(1.0, 10.0));
  const std::string full_second = cache::encode_record(double_record(2.0, 20.0));
  // A kill -9 mid-append leaves an arbitrary prefix of the last record;
  // every cut point must recover the first record and nothing else.
  for (std::size_t cut = 1; cut < full_second.size(); ++cut) {
    std::string torn = bytes + full_second.substr(0, cut);
    cache::SegmentLoadStats stats;
    bool accepted = false;
    const auto records = load_all(torn, stats, &accepted);
    EXPECT_TRUE(accepted);
    ASSERT_EQ(records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(records[0].value_bytes, double_value_bytes(10.0));
    EXPECT_EQ(stats.torn_tail_bytes, cut);
  }
}

TEST(PersistSegment, FlippedByteLosesOneRecordNotTheFile) {
  const std::string header = cache::segment_header();
  const std::string first = cache::encode_record(double_record(1.0, 10.0));
  std::string bytes = header + first;
  bytes += cache::encode_record(double_record(2.0, 20.0));
  bytes[header.size() + first.size() - 1] ^= 0x01;  // corrupt record 1's tail

  cache::SegmentLoadStats stats;
  bool accepted = false;
  const auto records = load_all(bytes, stats, &accepted);
  EXPECT_TRUE(accepted);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value_bytes, double_value_bytes(20.0));
  EXPECT_EQ(stats.records_loaded, 1u);
  EXPECT_EQ(stats.records_skipped_crc, 1u);
}

TEST(PersistSegment, VersionOrTagMismatchRejectsTheWholeSegment) {
  const std::string record = cache::encode_record(double_record(1.0, 10.0));
  const std::string wrong_version =
      cache::segment_header(cache::kSegmentFormatVersion + 1) + record;
  const std::string wrong_tag =
      cache::segment_header(cache::kSegmentFormatVersion, "upa-solvers-v0") +
      record;
  std::string wrong_magic = cache::segment_header() + record;
  wrong_magic[0] = 'X';

  for (const std::string* bytes : std::initializer_list<const std::string*>{
           &wrong_version, &wrong_tag, &wrong_magic}) {
    cache::SegmentLoadStats stats;
    bool accepted = true;
    const auto records = load_all(*bytes, stats, &accepted);
    EXPECT_FALSE(accepted);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.segments_rejected, 1u);
    EXPECT_EQ(stats.records_loaded, 0u);
  }
}

TEST(PersistSegment, SegmentFileAppendsAreReadBack) {
  TempDir tmp;
  const std::string path = tmp.dir + "/active.upaseg";
  {
    cache::SegmentFile file(path);
    file.append(double_record(1.0, 10.0));
    file.append(double_record(2.0, 20.0));
    EXPECT_EQ(file.records_written(), 2u);
  }
  cache::SegmentLoadStats stats;
  std::vector<cache::SegmentRecord> records;
  EXPECT_TRUE(cache::load_segment_file(
      path, stats,
      [&](cache::SegmentRecord&& r) { records.push_back(std::move(r)); }));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].key_bytes, key_of(2.0).bytes);
  EXPECT_EQ(stats.segments_loaded, 1u);
}

// Pins segment.hpp's durability contract: an append is on the file (not
// in a user-space buffer) by the time it returns, so a kill -9 right
// after it loses nothing -- at most the record still in flight.
TEST(PersistSegment, EachAppendIsReadableWhenItReturns) {
  TempDir tmp;
  const std::string path = tmp.dir + "/active.upaseg";
  cache::SegmentFile file(path);
  for (int n = 1; n <= 5; ++n) {
    const std::string big_value(static_cast<std::size_t>(n) * 1000, 'v');
    file.append({"f64", key_of(double(n)).bytes,
                 n % 2 == 0 ? big_value : double_value_bytes(10.0 * n)});
    cache::SegmentLoadStats stats;
    std::vector<cache::SegmentRecord> records;
    EXPECT_TRUE(cache::load_segment_file(
        path, stats,
        [&](cache::SegmentRecord&& r) { records.push_back(std::move(r)); }));
    ASSERT_EQ(records.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(stats.torn_tail_bytes, 0u);
    EXPECT_EQ(stats.records_skipped_crc, 0u);
    for (int i = 1; i <= n; ++i) {
      EXPECT_EQ(records[static_cast<std::size_t>(i - 1)].key_bytes,
                key_of(double(i)).bytes);
    }
  }
}

TEST(PersistDigestSet, InsertReportsNoveltyAcrossGrowth) {
  cache::DigestSet set;
  // Digest 0 is the empty-slot marker inside the table, so it takes the
  // side path; the rest span several doublings of the flat array.
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  for (std::uint64_t d = 1; d <= 1000; ++d) {
    EXPECT_TRUE(set.insert(d * 0x10001ULL)) << d;
  }
  for (std::uint64_t d = 1; d <= 1000; ++d) {
    EXPECT_FALSE(set.insert(d * 0x10001ULL)) << d;
  }
  EXPECT_TRUE(set.insert(~0ULL));
  EXPECT_EQ(set.size(), 1002u);
}

TEST(PersistKeyBytes, CanonicalBytesReconstructTheKey) {
  cache::KeyBuilder kb("markov.steady_state", 3);
  kb.add(-0.0).add(std::uint64_t{7}).add(std::string("ab"));
  const cache::CacheKey original = std::move(kb).finish();

  // What the loader does with bytes read off disk.
  EXPECT_EQ(cache::solver_id_from_key_bytes(original.bytes),
            "markov.steady_state");
  EXPECT_EQ(cache::key_digest(original.bytes), original.digest);

  // -0.0 normalizes on the KEY side, so the reconstructed key is
  // identical to the +0.0 key...
  cache::KeyBuilder pos("markov.steady_state", 3);
  pos.add(0.0).add(std::uint64_t{7}).add(std::string("ab"));
  EXPECT_EQ(original.bytes, std::move(pos).finish().bytes);

  // ...and length-prefixing keeps concatenation-colliding keys distinct
  // after a disk round-trip of their bytes.
  cache::KeyBuilder a("test.solver", 1);
  a.add(std::string("ab")).add(std::string("c"));
  cache::KeyBuilder b("test.solver", 1);
  b.add(std::string("a")).add(std::string("bc"));
  const std::string bytes_a = std::move(a).finish().bytes;
  const std::string bytes_b = std::move(b).finish().bytes;
  EXPECT_NE(bytes_a, bytes_b);
  EXPECT_NE(cache::key_digest(bytes_a), cache::key_digest(bytes_b));

  EXPECT_THROW(cache::solver_id_from_key_bytes(std::string("\x03", 1)),
               ModelError);
}

TEST(PersistCodec, RegistryHoldsTheFiveCachedTypes)  {
  const std::vector<std::string> tags = cache::registered_codec_tags();
  const std::vector<std::string> expected{
      "campaign_entry", "f64", "f64_vec", "mmck_metrics",
      "stationary_report"};
  EXPECT_EQ(tags, expected);
  for (const std::string& tag : tags) {
    EXPECT_NE(cache::codec_for_tag(tag), nullptr);
  }
  EXPECT_EQ(cache::codec_for_tag("unknown"), nullptr);
  EXPECT_EQ(cache::codec_for_type(typeid(int)), nullptr);
}

TEST(PersistCodec, DoublesRoundTripBitForBit) {
  const cache::ValueCodec* codec = cache::codec_for_type(typeid(double));
  ASSERT_NE(codec, nullptr);
  // Value-side encoding preserves exact bit patterns: -0.0 stays
  // negative (only KEYS normalize it) and denormals/infinities survive.
  for (const double v : {-0.0, 5e-324, std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::infinity(), 1.25}) {
    const std::string bytes = codec->serialize(&v);
    const cache::StoredValue back = codec->deserialize(bytes);
    ASSERT_EQ(*back.type, typeid(double));
    const double decoded = *static_cast<const double*>(back.value.get());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded),
              std::bit_cast<std::uint64_t>(v));
  }

  const cache::ValueCodec* vec_codec =
      cache::codec_for_type(typeid(std::vector<double>));
  ASSERT_NE(vec_codec, nullptr);
  const std::vector<double> vec{1.0, -0.0, 3.5};
  const cache::StoredValue back =
      vec_codec->deserialize(vec_codec->serialize(&vec));
  EXPECT_EQ(*static_cast<const std::vector<double>*>(back.value.get()), vec);
}

TEST(PersistCodec, MmckMetricsRoundTripBitForBit) {
  const auto metrics = upa::queueing::mmck_metrics(95.0, 100.0, 4, 10);
  const cache::ValueCodec* codec =
      cache::codec_for_type(typeid(upa::queueing::MmckMetrics));
  ASSERT_NE(codec, nullptr);
  const cache::StoredValue back =
      codec->deserialize(codec->serialize(&metrics));
  const auto& decoded =
      *static_cast<const upa::queueing::MmckMetrics*>(back.value.get());
  EXPECT_EQ(decoded.rho, metrics.rho);
  EXPECT_EQ(decoded.blocking, metrics.blocking);
  EXPECT_EQ(decoded.mean_in_system, metrics.mean_in_system);
  EXPECT_EQ(decoded.mean_in_queue, metrics.mean_in_queue);
  EXPECT_EQ(decoded.throughput, metrics.throughput);
  EXPECT_EQ(decoded.mean_response, metrics.mean_response);
  EXPECT_EQ(decoded.mean_busy_servers, metrics.mean_busy_servers);
  EXPECT_EQ(decoded.state_probabilities, metrics.state_probabilities);
}

TEST(PersistCodec, StationaryReportRoundTripsAndGatesEnums) {
  upa::core::WebFarmParams farm{4, 1e-3, 1.0, 0.98, 12.0};
  const auto chain = upa::core::imperfect_coverage_chain(farm);
  const auto report =
      chain.chain.steady_state_robust(upa::markov::StationaryOptions{});
  const cache::ValueCodec* codec =
      cache::codec_for_type(typeid(upa::markov::StationaryReport));
  ASSERT_NE(codec, nullptr);
  const std::string bytes = codec->serialize(&report);
  const cache::StoredValue back = codec->deserialize(bytes);
  const auto& decoded =
      *static_cast<const upa::markov::StationaryReport*>(back.value.get());
  EXPECT_EQ(decoded.distribution, report.distribution);
  EXPECT_EQ(decoded.method, report.method);
  EXPECT_EQ(decoded.residual, report.residual);
  EXPECT_EQ(decoded.diagnostics, report.diagnostics);
  ASSERT_EQ(decoded.stages.size(), report.stages.size());
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    EXPECT_EQ(decoded.stages[i].method, report.stages[i].method);
    EXPECT_EQ(decoded.stages[i].outcome, report.stages[i].outcome);
    EXPECT_EQ(decoded.stages[i].iterations, report.stages[i].iterations);
    EXPECT_EQ(decoded.stages[i].note, report.stages[i].note);
  }

  // A payload naming an out-of-range method enum is a decode error, not
  // a garbage report.
  cache::ByteWriter w;
  w.put_doubles({1.0});
  w.put_u8(250);  // no such StationaryMethod
  EXPECT_THROW((void)codec->deserialize(w.bytes()), ModelError);
}

TEST(PersistCodec, CampaignEntryRoundTripsBitForBit) {
  upa::inject::CampaignEntry entry;
  entry.name = "web farm outage";
  entry.perceived_availability.mean = 0.987654321;
  entry.perceived_availability.half_width = 1.5e-4;
  entry.perceived_availability.low = 0.9875;
  entry.perceived_availability.high = 0.9878;
  entry.delta_vs_baseline = -2.5e-3;
  entry.observed_web_service_availability = 0.9991;
  entry.mean_retries_per_session = 0.125;
  entry.abandonment_fraction = 0.0625;
  const cache::ValueCodec* codec =
      cache::codec_for_type(typeid(upa::inject::CampaignEntry));
  ASSERT_NE(codec, nullptr);
  const cache::StoredValue back = codec->deserialize(codec->serialize(&entry));
  const auto& decoded =
      *static_cast<const upa::inject::CampaignEntry*>(back.value.get());
  EXPECT_EQ(decoded.name, entry.name);
  EXPECT_EQ(decoded.perceived_availability.mean,
            entry.perceived_availability.mean);
  EXPECT_EQ(decoded.perceived_availability.half_width,
            entry.perceived_availability.half_width);
  EXPECT_EQ(decoded.delta_vs_baseline, entry.delta_vs_baseline);
  EXPECT_EQ(decoded.observed_web_service_availability,
            entry.observed_web_service_availability);
  EXPECT_EQ(decoded.mean_retries_per_session, entry.mean_retries_per_session);
  EXPECT_EQ(decoded.abandonment_fraction, entry.abandonment_fraction);
}

TEST(PersistCodec, HexTransportRoundTripsAndRejectsGarbage) {
  const std::string bytes("\x00\xff\x10 ab", 6);
  const std::string hex = cache::to_hex(bytes);
  EXPECT_EQ(hex, "00ff10206162");
  EXPECT_EQ(cache::from_hex(hex), bytes);
  EXPECT_EQ(cache::from_hex("00FF10206162"), bytes);  // upper-case accepted
  EXPECT_THROW((void)cache::from_hex("abc"), ModelError);   // odd length
  EXPECT_THROW((void)cache::from_hex("zz"), ModelError);    // non-hex
}

TEST(PersistentCacheTier, WarmRestartReplaysWithoutRecompute) {
  TempDir tmp;
  const cache::CacheKey key = key_of(42.0);
  {
    cache::EvalCache first_run;
    cache::PersistentCache tier(first_run, tmp.dir);
    EXPECT_EQ(tier.stats().segments_loaded, 0u);
    (void)first_run.get_or_compute<double>(key, [] { return 6.25; });
    EXPECT_EQ(tier.stats().records_appended, 1u);
  }

  // "Restart": a fresh cache attached to the same directory must
  // replay the stored value -- the compute callback must never run.
  // The default (lazy) attach only indexes at construction; the value
  // decodes on first lookup and counts as a disk hit.
  cache::EvalCache second_run;
  cache::PersistentCache tier(second_run, tmp.dir);
  EXPECT_EQ(tier.stats().segments_loaded, 1u);
  EXPECT_EQ(tier.stats().records_indexed, 1u);
  EXPECT_EQ(tier.stats().records_replayed, 0u);  // nothing decoded yet
  const auto value = second_run.get_or_compute<double>(key, []() -> double {
    throw ModelError("cold compute ran after a warm restart");
  });
  EXPECT_EQ(*value, 6.25);
  EXPECT_EQ(tier.stats().records_replayed, 1u);
  EXPECT_EQ(tier.stats().disk_hits, 1u);
  EXPECT_EQ(second_run.stats().disk_hits, 1u);
  EXPECT_EQ(second_run.stats().misses, 0u);
  EXPECT_GT(second_run.stats().hit_rate(), 0.99);

  // The second lookup is a plain in-memory hit: lazy decode happens
  // once per key per process.
  (void)second_run.get_or_compute<double>(key, []() -> double {
    throw ModelError("disk-served value did not stay in memory");
  });
  EXPECT_EQ(second_run.stats().hits, 1u);
  EXPECT_EQ(tier.stats().disk_hits, 1u);
}

TEST(PersistentCacheTier, RerunAgainstSameDirectoryAppendsNothing) {
  TempDir tmp;
  const auto run_workload = [&tmp] {
    cache::EvalCache ec;
    cache::PersistentCache tier(ec, tmp.dir);
    for (double x : {1.0, 2.0, 3.0}) {
      (void)ec.get_or_compute<double>(key_of(x), [x] { return 10.0 * x; });
    }
    return tier.stats();
  };
  const cache::PersistStats first = run_workload();
  EXPECT_EQ(first.records_appended, 3u);
  const cache::PersistStats second = run_workload();
  EXPECT_EQ(second.records_replayed, 3u);
  EXPECT_EQ(second.records_appended, 0u);  // dedupe: nothing recomputed
  EXPECT_EQ(second.write_errors, 0u);
}

TEST(PersistentCacheTier, ExportImportBlobWarmsAPeerCache) {
  cache::EvalCache warm;
  for (double x : {1.0, 2.0}) {
    (void)warm.get_or_compute<double>(key_of(x), [x] { return 100.0 + x; });
  }
  cache::ExportStats exported;
  const std::string blob = cache::export_segment_blob(warm, &exported);
  EXPECT_EQ(exported.records, 2u);
  EXPECT_EQ(exported.skipped_no_codec, 0u);

  cache::EvalCache restarted;
  const cache::ImportStats imported =
      cache::import_segment_blob(restarted, blob);
  EXPECT_FALSE(imported.segment_rejected);
  EXPECT_EQ(imported.records_seeded, 2u);
  EXPECT_EQ(imported.records_skipped, 0u);
  const auto value =
      restarted.get_or_compute<double>(key_of(2.0), []() -> double {
        throw ModelError("import did not warm this key");
      });
  EXPECT_EQ(*value, 102.0);

  // Importing the same blob again is a no-op, counted as duplicates.
  const cache::ImportStats again = cache::import_segment_blob(restarted, blob);
  EXPECT_EQ(again.records_seeded, 0u);
  EXPECT_EQ(again.records_duplicate, 2u);
}

TEST(PersistentCacheTier, ImportGatesVersionTagAndUnknownTags) {
  cache::EvalCache ec;
  // Foreign solver generation: the whole blob is refused.
  const std::string foreign =
      cache::segment_header(cache::kSegmentFormatVersion, "other-solvers") +
      cache::encode_record(double_record(1.0, 10.0));
  EXPECT_TRUE(cache::import_segment_blob(ec, foreign).segment_rejected);
  EXPECT_EQ(ec.size(), 0u);

  // Unknown codec tag (a newer build's type): that record skips, the
  // rest of the blob still seeds.
  std::string mixed = cache::segment_header();
  mixed += cache::encode_record(
      {"from_the_future", key_of(1.0).bytes, double_value_bytes(1.0)});
  mixed += cache::encode_record(double_record(2.0, 20.0));
  const cache::ImportStats imported = cache::import_segment_blob(ec, mixed);
  EXPECT_FALSE(imported.segment_rejected);
  EXPECT_EQ(imported.records_seeded, 1u);
  EXPECT_EQ(imported.records_skipped, 1u);
}

TEST(PersistentCacheTier, HammeredInsertsAllReachTheActiveSegment) {
  TempDir tmp;
  constexpr int kThreads = 8;
  constexpr int kKeys = 24;
  {
    cache::EvalCache ec;
    cache::PersistentCache tier(ec, tmp.dir);
    std::atomic<bool> stop{false};
    // A stats() poller runs concurrently: the snapshot takes every
    // shard lock in one pass, so it must neither deadlock against the
    // insert path nor observe torn per-shard counters.
    std::thread poller([&] {
      while (!stop.load()) {
        const cache::CacheStats s = ec.stats();
        if (s.inserts > std::uint64_t(kKeys)) {
          stop = true;  // impossible value: fail fast below
        }
      }
    });
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (int k = 0; k < kKeys; ++k) {
          (void)ec.get_or_compute<double>(key_of(double(k)),
                                          [k] { return double(k); });
        }
      });
    }
    for (auto& w : workers) w.join();
    stop = true;
    poller.join();
    EXPECT_EQ(ec.stats().inserts, std::uint64_t(kKeys));
    EXPECT_EQ(tier.stats().records_appended, std::uint64_t(kKeys));
    EXPECT_EQ(tier.stats().write_errors, 0u);
  }
  // Single-flight + sink dedupe: the segment holds each key once, and a
  // restart indexes exactly the distinct keys, each of which replays
  // from disk without recomputing.
  cache::EvalCache replayed;
  cache::PersistentCache tier(replayed, tmp.dir);
  EXPECT_EQ(tier.stats().records_indexed, std::uint64_t(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    (void)replayed.get_or_compute<double>(key_of(double(k)),
                                          []() -> double {
                                            throw ModelError(
                                                "restart lost a record");
                                          });
  }
  EXPECT_EQ(tier.stats().records_replayed, std::uint64_t(kKeys));
  EXPECT_EQ(replayed.size(), std::size_t(kKeys));
}

TEST(PersistentCacheTier, UnwritableDirectoryCountsErrorsNotThrows) {
  TempDir tmp;
  cache::EvalCache ec;
  cache::PersistentCache tier(ec, tmp.dir);
  fs::permissions(tmp.dir, fs::perms::owner_read | fs::perms::owner_exec);
  struct RestorePermissions {
    const std::string& dir;
    ~RestorePermissions() {
      std::error_code ec;
      fs::permissions(dir, fs::perms::owner_all, ec);
    }
  } restore{tmp.dir};
  if (geteuid() == 0) {
    GTEST_SKIP() << "running as root: directory permissions not enforced";
  }
  // The workload must not see disk trouble -- the value computes and
  // returns; only the tier's error counter moves.
  const auto value = ec.get_or_compute<double>(key_of(7.0), [] { return 7.0; });
  EXPECT_EQ(*value, 7.0);
  EXPECT_EQ(tier.stats().records_appended, 0u);
  EXPECT_EQ(tier.stats().write_errors, 1u);
}

TEST(PersistentCacheTier, DirectoryLockRefusesASecondWriter) {
  TempDir tmp;
  cache::EvalCache ec;
  auto first = std::make_unique<cache::PersistentCache>(ec, tmp.dir);

  // A second attach -- same process, new open file description -- must
  // fail fast naming the holder instead of interleaving appends.
  cache::EvalCache other;
  try {
    cache::PersistentCache second(other, tmp.dir);
    FAIL() << "second writer attached to a locked directory";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("already has a writer"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(std::to_string(getpid())),
              std::string::npos)
        << e.what();
  }

  // The bare lock class conflicts the same way, and releasing the
  // first writer frees the directory for the next one.
  EXPECT_THROW(cache::DirectoryLock{tmp.dir}, ModelError);
  first.reset();
  cache::PersistentCache reopened(other, tmp.dir);
  (void)other.get_or_compute<double>(key_of(1.0), [] { return 1.5; });
  EXPECT_EQ(reopened.stats().records_appended, 1u);
}

TEST(PersistentCacheTier, DirectoryLockIsFlockNotStaleStampDetection) {
  // The pid stamp is diagnostics only: a lock file left behind by a
  // crashed process holds no flock, so the next writer just takes it.
  TempDir tmp;
  {
    const cache::DirectoryLock lock(tmp.dir);
    EXPECT_TRUE(lock.held());
  }
  EXPECT_TRUE(
      fs::exists(tmp.dir + "/" + cache::DirectoryLock::kLockFileName));
  const cache::DirectoryLock relocked(tmp.dir);
  EXPECT_TRUE(relocked.held());
}

TEST(AntiEntropy, FingerprintDetectsConvergenceInO1) {
  cache::EvalCache a;
  cache::EvalCache b;
  for (const double k : {1.0, 2.0, 3.0}) {
    (void)a.get_or_compute<double>(key_of(k), [k] { return 10.0 * k; });
  }
  // Insertion order must not matter (replicas converge via different
  // histories), so feed b the same keys reversed.
  for (const double k : {3.0, 2.0, 1.0}) {
    (void)b.get_or_compute<double>(key_of(k), [k] { return 10.0 * k; });
  }
  EXPECT_EQ(cache::digest_fingerprint(a), cache::digest_fingerprint(b));
  EXPECT_EQ(cache::digest_fingerprint(a).count, 3u);

  // One extra key flips both the count and the fold.
  (void)b.get_or_compute<double>(key_of(4.0), [] { return 40.0; });
  const cache::DigestFingerprint fa = cache::digest_fingerprint(a);
  const cache::DigestFingerprint fb = cache::digest_fingerprint(b);
  EXPECT_NE(fa.count, fb.count);
  EXPECT_NE(fa.fold, fb.fold);
}

TEST(AntiEntropy, PagedDeltaCoversTheFullSetInBoundedPages) {
  cache::EvalCache from;
  constexpr int kKeys = 25;
  for (int k = 0; k < kKeys; ++k) {
    (void)from.get_or_compute<double>(key_of(double(k)),
                                      [k] { return double(k); });
  }
  // A page budget far below the full export forces many pages; every
  // page still carries at least one record, so the cursor walk always
  // terminates with the union equal to the unpaged delta.
  const std::size_t max_bytes =
      cache::export_segment_blob(from).size() / 6;
  cache::EvalCache into;
  std::uint64_t cursor = 0;
  std::size_t pages = 0;
  std::uint64_t total_records = 0;
  for (;;) {
    const cache::DeltaPage page =
        cache::export_delta_page(from, {}, cursor, max_bytes);
    EXPECT_LE(page.blob.size(), max_bytes);
    const cache::ImportStats imported =
        cache::import_segment_blob(into, page.blob);
    EXPECT_FALSE(imported.segment_rejected);
    total_records += page.records;
    ++pages;
    ASSERT_LT(pages, std::size_t(kKeys) + 2) << "cursor walk diverged";
    if (page.complete) break;
    ASSERT_GT(page.records, 0u) << "incomplete page made no progress";
    cursor = page.next_cursor;
  }
  EXPECT_GT(pages, 2u);
  EXPECT_EQ(total_records, std::uint64_t(kKeys));
  EXPECT_EQ(cache::digest_summary(into), cache::digest_summary(from));
  EXPECT_EQ(cache::digest_fingerprint(into), cache::digest_fingerprint(from));

  // `have` filtering composes with paging: a caller holding everything
  // pulls one empty, complete page.
  const cache::DeltaPage none = cache::export_delta_page(
      from, cache::digest_summary(into), 0, max_bytes);
  EXPECT_TRUE(none.complete);
  EXPECT_EQ(none.records, 0u);

  // A budget smaller than any single record still ships one record per
  // page -- progress is never sacrificed to the bound.
  const cache::DeltaPage tiny = cache::export_delta_page(from, {}, 0, 1);
  EXPECT_EQ(tiny.records, 1u);
  EXPECT_FALSE(tiny.complete);
}

TEST(PersistentCacheTier, SeededEntriesSurviveClearOnlyOnDisk) {
  TempDir tmp;
  cache::EvalCache ec;
  cache::PersistentCache tier(ec, tmp.dir);
  (void)ec.get_or_compute<double>(key_of(1.0), [] { return 1.5; });
  ec.clear();
  int computes = 0;
  // After clear() the value recomputes: the record sits in this
  // process's own ACTIVE segment, which only becomes index-addressable
  // at the next attach (lazy lookups serve sealed segments)...
  (void)ec.get_or_compute<double>(key_of(1.0), [&] {
    ++computes;
    return 1.5;
  });
  EXPECT_EQ(computes, 1);
  // ...but the recompute is NOT appended again: the persisted-digest
  // set outlives clear(), so the directory stays single-copy.
  EXPECT_EQ(tier.stats().records_appended, 1u);
}

}  // namespace
