#include "upa/cache/eval_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

namespace upa::cache {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const std::string& bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t key_digest(const std::string& bytes) noexcept {
  return fnv1a(bytes);
}

std::string solver_id_from_key_bytes(const std::string& bytes) {
  // KeyBuilder's first field: u64 little-endian length, then the id.
  UPA_REQUIRE(bytes.size() >= 8,
              "cache key bytes too short to hold a solver-id prefix");
  std::uint64_t length = 0;
  for (int i = 7; i >= 0; --i) {
    length = (length << 8) |
             static_cast<std::uint8_t>(bytes[static_cast<std::size_t>(i)]);
  }
  UPA_REQUIRE(length > 0 && length <= bytes.size() - 8,
              "cache key bytes have a corrupt solver-id prefix");
  return bytes.substr(8, length);
}

KeyBuilder::KeyBuilder(std::string solver_id, std::uint32_t version)
    : solver_id_(std::move(solver_id)) {
  UPA_REQUIRE(!solver_id_.empty(), "cache key needs a solver id");
  add(solver_id_);
  add(static_cast<std::uint64_t>(version));
}

void KeyBuilder::append_raw(const void* data, std::size_t size) {
  bytes_.append(static_cast<const char*>(data), size);
}

KeyBuilder& KeyBuilder::add(double value) {
  UPA_REQUIRE(!std::isnan(value),
              "cache key for solver '" + solver_id_ +
                  "' has a NaN parameter; NaN never equals itself, so no "
                  "stable cache identity exists for it");
  if (value == 0.0) value = 0.0;  // -0.0 == 0.0 must hash equal
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  return add(bits);
}

KeyBuilder& KeyBuilder::add(std::uint64_t value) {
  // Fixed-width little-endian words, independent of host endianness.
  char out[8];
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  append_raw(out, sizeof(out));
  return *this;
}

KeyBuilder& KeyBuilder::add(std::int64_t value) {
  return add(std::bit_cast<std::uint64_t>(value));
}

KeyBuilder& KeyBuilder::add(bool value) {
  return add(static_cast<std::uint64_t>(value ? 1 : 0));
}

KeyBuilder& KeyBuilder::add(const std::string& value) {
  add(static_cast<std::uint64_t>(value.size()));
  append_raw(value.data(), value.size());
  return *this;
}

KeyBuilder& KeyBuilder::add(const std::vector<double>& values) {
  add(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) add(v);
  return *this;
}

CacheKey KeyBuilder::finish() && {
  CacheKey key;
  key.solver_id = std::move(solver_id_);
  key.bytes = std::move(bytes_);
  key.digest = fnv1a(key.bytes);
  return key;
}

EvalCache::EvalCache(Config config)
    : max_entries_per_shard_(config.max_entries_per_shard),
      shards_(std::max<std::size_t>(config.shards, 1)) {
  UPA_REQUIRE(config.max_entries_per_shard >= 1,
              "cache shards must hold at least one entry");
}

void EvalCache::count_lookup(Shard& shard, const std::string& solver_id,
                             Outcome outcome) {
  auto it = std::find_if(
      shard.solvers.begin(), shard.solvers.end(),
      [&](const SolverCounts& s) { return s.solver_id == solver_id; });
  if (it == shard.solvers.end()) {
    it = shard.solvers.insert(shard.solvers.end(),
                              SolverCounts{solver_id, CacheStats{}});
  }
  for (CacheStats* s : {&shard.stats, &it->stats}) {
    switch (outcome) {
      case Outcome::kHit: ++s->hits; break;
      case Outcome::kDiskHit: ++s->disk_hits; break;
      case Outcome::kMiss: ++s->misses; break;
    }
  }
}

void EvalCache::push_completed(Shard& shard, const EntryKey* key) {
  ++shard.stats.inserts;
  shard.completed_order.push_back(key);
  // Evict oldest completed entries past the cap. In-flight entries are
  // not in completed_order, so a running computation is never cancelled.
  while (shard.completed_order.size() > max_entries_per_shard_) {
    shard.entries.erase(shard.entries.find(*shard.completed_order.front()));
    shard.completed_order.pop_front();
    ++shard.stats.evictions;
  }
}

void EvalCache::complete_insert(Shard& shard, Slot slot,
                                const std::string& solver_id,
                                Outcome outcome) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  count_lookup(shard, solver_id, outcome);
  // A clear() since the publish dropped the in-flight entry: the value
  // still reached this caller and its waiters, but there is no slot left
  // to log for eviction.
  if (slot.generation == shard.generation) push_completed(shard, slot.key);
}

void EvalCache::abandon_insert(Shard& shard, Slot slot,
                               const std::string& solver_id) {
  // The computation threw: remove the in-flight entry so a later call
  // retries instead of replaying the exception forever.
  std::lock_guard<std::mutex> lock(shard.mutex);
  count_lookup(shard, solver_id, Outcome::kMiss);
  if (slot.generation == shard.generation) {
    shard.entries.erase(shard.entries.find(*slot.key));
  }
}

void EvalCache::observe_lookup(const std::string& solver_id, Outcome outcome,
                               obs::Observer* ob) {
  if (ob == nullptr) return;
  const bool hit = outcome != Outcome::kMiss;
  ob->metrics.counter(hit ? "cache.hits" : "cache.misses").add();
  ob->metrics.counter("cache." + solver_id + (hit ? ".hits" : ".misses"))
      .add();
}

bool EvalCache::seed(const CacheKey& key, StoredValue value) {
  UPA_REQUIRE(value.value != nullptr && value.type != nullptr,
              "cache seed needs a non-null value and type");
  std::promise<Stored> promise;
  promise.set_value(std::move(value));
  StoredFuture future = promise.get_future().share();
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.entries.find(key) != shard.entries.end()) return false;
  const auto inserted =
      shard.entries.emplace(EntryKey{key.bytes, key.digest}, Entry{future});
  push_completed(shard, &inserted.first->first);
  return true;
}

std::vector<EvalCache::SnapshotEntry> EvalCache::snapshot() const {
  std::vector<SnapshotEntry> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.entries) {
      if (entry.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;  // in-flight computation; nothing to export yet
      }
      // A completed entry's future holds either a value or the first
      // miss's exception; exceptional entries are removed by
      // abandon_insert before anyone could snapshot them, but guard
      // anyway so a torn race cannot abort an export.
      try {
        out.push_back(SnapshotEntry{key.bytes, entry.future.get()});
      } catch (...) {
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.key_bytes < b.key_bytes;
            });
  return out;
}

namespace {

/// Every shard lock, taken in shard order (so two concurrent readers
/// cannot deadlock) and held together: locking shards one at a time
/// would let a lookup on an already-summed shard race ahead of one on a
/// not-yet-summed shard, so hit + miss totals could disagree with the
/// number of lookups the caller performed -- visible as off-by-a-few
/// totals under the eight-thread hammer test.
template <typename Shards>
std::vector<std::unique_lock<std::mutex>> lock_all(const Shards& shards) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards.size());
  for (const auto& shard : shards) locks.emplace_back(shard.mutex);
  return locks;
}

void add_lookups(CacheStats& total, const CacheStats& s) {
  total.hits += s.hits;
  total.disk_hits += s.disk_hits;
  total.misses += s.misses;
}

}  // namespace

CacheStats EvalCache::stats() const {
  const auto locks = lock_all(shards_);
  CacheStats total;
  for (const Shard& shard : shards_) {
    add_lookups(total, shard.stats);
    total.inserts += shard.stats.inserts;
    total.evictions += shard.stats.evictions;
  }
  return total;
}

std::map<std::string, CacheStats> EvalCache::sum_solver_stats() const {
  const auto locks = lock_all(shards_);
  std::map<std::string, CacheStats> total;
  for (const Shard& shard : shards_) {
    for (const SolverCounts& s : shard.solvers) {
      add_lookups(total[s.solver_id], s.stats);
    }
  }
  return total;
}

CacheStats EvalCache::solver_stats(const std::string& solver_id) const {
  const auto total = sum_solver_stats();
  const auto it = total.find(solver_id);
  return it == total.end() ? CacheStats{} : it->second;
}

std::vector<std::pair<std::string, CacheStats>> EvalCache::per_solver_stats()
    const {
  const auto total = sum_solver_stats();
  return {total.begin(), total.end()};
}

std::size_t EvalCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    n += shard.entries.size();
  }
  return n;
}

void EvalCache::publish_metrics(obs::MetricsRegistry& metrics) const {
  const CacheStats total = stats();
  metrics.counter("cache.hits").add(total.hits);
  metrics.counter("cache.disk_hits").add(total.disk_hits);
  metrics.counter("cache.misses").add(total.misses);
  metrics.counter("cache.inserts").add(total.inserts);
  metrics.counter("cache.evictions").add(total.evictions);
  metrics.gauge("cache.hit_rate").set(total.hit_rate());
  for (const auto& [solver, s] : per_solver_stats()) {
    metrics.counter("cache." + solver + ".hits").add(s.hits);
    metrics.counter("cache." + solver + ".misses").add(s.misses);
    metrics.gauge("cache." + solver + ".hit_rate").set(s.hit_rate());
  }
}

void EvalCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
    shard.completed_order.clear();
    shard.stats = CacheStats{};
    shard.solvers.clear();
    ++shard.generation;
  }
}

void EvalCache::reset_stats() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stats = CacheStats{};
    shard.solvers.clear();
  }
}

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

EvalCache& global() {
  static EvalCache cache;
  return cache;
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace upa::cache
