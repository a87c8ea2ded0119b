// Dashboard-scale persistent-cache attach: the cost of coming back up
// with a cache directory holding ~10^5..10^6 records.
//
// The eager-decode reference CRC-checks, decodes and seeds EVERY
// record up front -- O(total value bytes) before the process can serve
// anything. The lazy attach mmaps each segment and loads its *.upaidx
// sidecar (sorted key-digest -> offset), so startup is O(index bytes)
// and values decode on first touch. This harness measures both on the
// same generated directory and gates bit-for-bit identity of the
// values each path serves:
//
//   fig11_mmap     eager-decode vs lazy attach wall time at >= 100k records
//                  (CI gates speedup >= 5x and results_identical = 1)
//   fig11_compact  first-wins merge of the duplicate-laden directory,
//                  attach time over the compacted output, and identity
//                  of the surviving records
//
// Both sections carry the speedup / hit_rate / results_identical keys
// the shared BENCH_cache.json identity check iterates over.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "upa/cache/compact.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/cache/index.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cache/segment.hpp"
#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"

namespace {

namespace cache = upa::cache;
namespace cm = upa::common;
namespace fs = std::filesystem;

constexpr std::size_t kSegments = 6;
constexpr std::size_t kRecordsPerSegment = 20000;
/// The first keys of segment 0 are re-appended by every later segment:
/// cross-segment duplicates for first-wins dedupe to drop.
constexpr std::size_t kDuplicatesPerSegment = 1000;
constexpr std::size_t kDistinct = kSegments * kRecordsPerSegment;

/// Big enough shards that neither attach path evicts (eviction would
/// both skew the timing and break the identity probes).
cache::EvalCache::Config scale_config() {
  return cache::EvalCache::Config{16, 16384};
}

cache::CacheKey key_of(std::uint64_t i) {
  cache::KeyBuilder kb("bench.scale", 1);
  kb.add(static_cast<double>(i));
  return std::move(kb).finish();
}

double value_of(std::uint64_t i) {
  return 1.0 / (1.0 + static_cast<double>(i));
}

std::string value_bytes_of(std::uint64_t i) {
  cache::ByteWriter w;
  w.put_double(value_of(i));
  return std::move(w).take();
}

/// Writes the benchmark directory: kSegments sealed segments of
/// kRecordsPerSegment fresh records each, plus kDuplicatesPerSegment
/// repeats of segment 0's first keys in every later segment.
void generate_directory(const std::string& dir) {
  for (std::size_t s = 0; s < kSegments; ++s) {
    char name[32];
    std::snprintf(name, sizeof name, "segment-%06zu.upaseg", s);
    cache::SegmentFile segment(dir + "/" + name);
    const std::uint64_t base = s * kRecordsPerSegment;
    for (std::size_t r = 0; r < kRecordsPerSegment; ++r) {
      const std::uint64_t i = base + r;
      segment.append({"f64", key_of(i).bytes, value_bytes_of(i)});
    }
    if (s > 0) {
      for (std::size_t r = 0; r < kDuplicatesPerSegment; ++r) {
        segment.append({"f64", key_of(r).bytes, value_bytes_of(r)});
      }
    }
  }
}

/// Probes `count` keys spread across the space through `ec` with a
/// throwing compute (every probe MUST be served, memory or disk) and
/// checks each value. Returns false on any mismatch.
bool probe_identical(cache::EvalCache& ec, std::size_t count) {
  const std::uint64_t stride = kDistinct / count;
  for (std::size_t p = 0; p < count; ++p) {
    const std::uint64_t i = p * stride;
    const auto value = ec.get_or_compute<double>(key_of(i), []() -> double {
      throw upa::common::ModelError("probe missed: record not served");
    });
    if (*value != value_of(i)) return false;
  }
  return true;
}

void bench_cache_scale() {
  upa::bench::print_header(
      "cache attach at dashboard scale",
      "Eager decode of every record vs lazy attach (mmap + on-disk index)\n"
      "attach of a persistent cache directory with >= 100k records.\n"
      "Expected shape: lazy attach cost is the index load, >= 5x below\n"
      "the eager decode; both paths serve bit-identical values.");

  const std::string dir =
      (fs::temp_directory_path() / "upa_bench_cache_scale").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const double generate_s =
      upa::bench::wall_seconds([&] { generate_directory(dir); });

  // Pre-build the *.upaidx sidecars once, untimed: the steady state a
  // dashboard restart sees (every sealed segment indexed by the process
  // that wrote or last compacted it). The build cost is reported.
  double index_build_s = upa::bench::wall_seconds([&] {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != cache::kSegmentExtension) continue;
      const cache::MappedFile file(entry.path().string());
      const auto result =
          cache::load_or_build_index(entry.path().string(), file);
      UPA_REQUIRE(result.segment_ok && result.index.entries.size() > 0,
                  "index build failed for " + entry.path().string());
    }
  });

  // Eager-decode reference: CRC-check, decode and seed every record of
  // every segment, in replay (name) order so first-wins matches.
  cache::EvalCache eager_cache(scale_config());
  double eager_stats_replayed = 0.0;
  const double eager_s = upa::bench::wall_seconds([&] {
    std::vector<std::string> paths;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == cache::kSegmentExtension) {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
      const cache::MappedFile file(path);
      const cache::ImportStats imported =
          cache::import_segment_blob(eager_cache, file.view());
      UPA_REQUIRE(!imported.segment_rejected && imported.records_skipped == 0,
                  "eager decode rejected " + path);
      eager_stats_replayed +=
          double(imported.records_seeded + imported.records_duplicate);
    }
  });

  // Lazy attach: open mappings + load indexes; values stay on disk.
  cache::EvalCache lazy_cache(scale_config());
  cache::PersistStats lazy_stats;
  std::vector<std::unique_ptr<cache::PersistentCache>> lazy_holder;
  const double lazy_s = upa::bench::wall_seconds([&] {
    lazy_holder.push_back(
        std::make_unique<cache::PersistentCache>(lazy_cache, dir));
    lazy_stats = lazy_holder.back()->stats();
  });
  cache::PersistentCache& lazy_tier = *lazy_holder.back();

  // Identity: both paths must serve the same values; the lazy probes
  // fault records in from disk through the index.
  constexpr std::size_t kProbes = 5000;
  const bool eager_identical = probe_identical(eager_cache, kProbes);
  double probe_s = 0.0;
  bool lazy_identical = false;
  probe_s = upa::bench::wall_seconds(
      [&] { lazy_identical = probe_identical(lazy_cache, kProbes); });
  const bool identical = eager_identical && lazy_identical;
  const cache::CacheStats lazy_cache_stats = lazy_cache.stats();
  const cache::PersistStats lazy_after = lazy_tier.stats();

  const double speedup = eager_s / lazy_s;
  std::cout << "Attach timing (" << kDistinct << " distinct records, "
            << kSegments << " segments, generated in "
            << cm::fmt(generate_s, 3) << "s, indexed in "
            << cm::fmt(index_build_s, 3) << "s):\n"
            << "  eager decode seconds : " << cm::fmt(eager_s, 4) << " ("
            << eager_stats_replayed << " records decoded)\n"
            << "  lazy attach seconds  : " << cm::fmt(lazy_s, 4) << " ("
            << lazy_stats.records_indexed << " records indexed, "
            << lazy_stats.bytes_mapped << " bytes mapped)\n"
            << "  attach speedup       : " << cm::fmt(speedup, 2) << "x\n"
            << "  probe wall seconds   : " << cm::fmt(probe_s, 4) << " ("
            << kProbes << " probes, " << lazy_after.disk_hits
            << " disk hits)\n"
            << "  results identical    : " << (identical ? "yes" : "NO!")
            << "\n\n";

  upa::bench::write_bench_json(
      "BENCH_cache.json", "fig11_mmap",
      {{"records", double(kDistinct)},
       {"segments", double(kSegments)},
       {"eager_attach_seconds", eager_s},
       {"lazy_attach_seconds", lazy_s},
       {"speedup", speedup},
       {"index_build_seconds", index_build_s},
       {"records_indexed", double(lazy_stats.records_indexed)},
       {"bytes_mapped", double(lazy_stats.bytes_mapped)},
       {"probe_seconds", probe_s},
       {"probes", double(kProbes)},
       {"disk_hits", double(lazy_after.disk_hits)},
       {"hit_rate", lazy_cache_stats.hit_rate()},
       {"results_identical", identical ? 1.0 : 0.0}});

  // Compaction: merge the duplicate-laden directory first-wins and
  // re-attach over the single compacted segment.
  lazy_holder.clear();  // release the mappings before files are removed
  cache::CompactionStats compaction;
  const double compact_s = upa::bench::wall_seconds(
      [&] { compaction = cache::compact_directory(dir); });
  UPA_REQUIRE(compaction.performed, "compaction did not run");

  cache::EvalCache compacted_cache(scale_config());
  cache::PersistStats compacted_stats;
  double compacted_attach_s = 0.0;
  bool compacted_identical = false;
  {
    std::unique_ptr<cache::PersistentCache> tier;
    compacted_attach_s = upa::bench::wall_seconds([&] {
      tier = std::make_unique<cache::PersistentCache>(compacted_cache, dir);
      compacted_stats = tier->stats();
    });
    compacted_identical = probe_identical(compacted_cache, kProbes);
  }

  const double expected_dropped =
      double((kSegments - 1) * kDuplicatesPerSegment);
  std::cout << "Compaction (" << compaction.segments_in << " segments, "
            << compaction.records_in << " records in):\n"
            << "  compact wall seconds : " << cm::fmt(compact_s, 3) << "\n"
            << "  records kept         : " << compaction.records_kept << "\n"
            << "  duplicates dropped   : "
            << compaction.records_dropped_duplicate << " (expected "
            << expected_dropped << ")\n"
            << "  re-attach seconds    : " << cm::fmt(compacted_attach_s, 4)
            << "\n"
            << "  results identical    : "
            << (compacted_identical ? "yes" : "NO!") << "\n\n";

  upa::bench::write_bench_json(
      "BENCH_cache.json", "fig11_compact",
      {{"segments_in", double(compaction.segments_in)},
       {"records_in", double(compaction.records_in)},
       {"records_kept", double(compaction.records_kept)},
       {"records_dropped_duplicate",
        double(compaction.records_dropped_duplicate)},
       {"expected_dropped_duplicate", expected_dropped},
       {"compact_wall_seconds", compact_s},
       {"compacted_attach_seconds", compacted_attach_s},
       // Attach-time win of compacting away the duplicate tail,
       // reported for trend lines; the identity flag is the gate.
       {"speedup", lazy_s / compacted_attach_s},
       {"hit_rate", compacted_cache.stats().hit_rate()},
       {"results_identical", compacted_identical &&
                                     compaction.records_dropped_duplicate ==
                                         expected_dropped
                                 ? 1.0
                                 : 0.0}});

  fs::remove_all(dir);
}

void bm_indexed_lookup(benchmark::State& state) {
  // Steady-state cost of one lazy disk lookup: binary-search the
  // index, CRC-check one record, decode one double.
  const std::string dir =
      (fs::temp_directory_path() / "upa_bench_cache_scale_bm").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    cache::SegmentFile segment(dir + "/segment-000000.upaseg");
    for (std::uint64_t i = 0; i < 10000; ++i) {
      segment.append({"f64", key_of(i).bytes, value_bytes_of(i)});
    }
  }
  cache::EvalCache ec(scale_config());
  cache::PersistentCache tier(ec, dir);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ec.clear();  // every iteration faults the record back in from disk
    const auto value =
        ec.get_or_compute<double>(key_of(i % 10000), []() -> double {
          throw upa::common::ModelError("bm probe missed");
        });
    benchmark::DoNotOptimize(*value);
    i += 37;
  }
  fs::remove_all(dir);
}
BENCHMARK(bm_indexed_lookup);

}  // namespace

UPA_BENCH_MAIN(bench_cache_scale)
