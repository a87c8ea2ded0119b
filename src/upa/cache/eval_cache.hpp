#pragma once
// Content-addressed evaluation cache for sweep-scale model evaluation.
//
// The paper's design-space explorations (Figures 11-13, Table 8) re-solve
// the same web-farm CTMC, M/M/i/K loss model, and availability formulas
// hundreds of times across grids that differ in only one or two
// parameters. EvalCache memoizes those expensive subsolves behind stable
// keys derived from canonicalized parameter bytes, so a grid or a
// 100-plan campaign solves each distinct submodel exactly once and
// replays the stored result everywhere else.
//
// Contract: a cached run is BIT-FOR-BIT identical to an uncached run.
// The cache returns the exact value computed on the first miss, callers
// key on every parameter that affects the result, and every key embeds a
// solver id plus a version tag so a formula change invalidates stale
// entries by construction. Keys compare by their full canonical byte
// string; the 64-bit digest the key carries picks the shard and the
// bucket and pre-filters, so a probe never copies or rehashes the key
// bytes, and a digest collision can never replay the wrong result.
//
// Concurrency: the table is lock-striped into shards, and lookups are
// single-flight -- when several threads race on the same fresh key,
// exactly one runs the computation while the rest wait on its future and
// count as hits. Every count a lookup makes (whole-cache and per-solver)
// lives in its shard and is updated under the one shard lock the lookup
// holds anyway; readers sum the shards. This composes with the exec
// layer's deterministic fan-out: values are pure functions of their key,
// so which worker computes first never changes what anyone reads.
//
// Only memoize a computation whose cold cost exceeds a warm hit (a few
// microseconds: a key build, a shard lock, a future copy). Cheaper
// kernels, such as the O(K) M/M/i/K loss recurrence, run uncached and
// are covered by the entry of the model that calls them.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <utility>
#include <vector>

#include "upa/common/error.hpp"
#include "upa/obs/observer.hpp"

namespace upa::cache {

/// A finished cache key: the solver id (for per-solver statistics), the
/// full canonical byte string (solver id + version tag + parameter
/// bytes; THE identity compared on lookup), and its FNV-1a 64 digest
/// (shard selection and fast rejection only).
struct CacheKey {
  std::string solver_id;
  std::string bytes;
  std::uint64_t digest = 0;
};

/// Builds a CacheKey from canonicalized parameter bytes. Doubles are
/// appended as their IEEE-754 bit pattern after normalizing -0.0 to +0.0
/// (the two compare equal, so they must hash equal); NaN parameters are
/// rejected with a ModelError (a NaN never equals itself, so no stable
/// key exists for it). Integers append as fixed-width little-endian
/// words and strings are length-prefixed, so concatenations cannot
/// collide.
class KeyBuilder {
 public:
  /// `solver_id` names the memoized computation ("markov.steady_state");
  /// `version` is its formula version -- bump it whenever the computation
  /// changes, and stale entries from the old formula can no longer be
  /// addressed.
  KeyBuilder(std::string solver_id, std::uint32_t version);

  KeyBuilder& add(double value);
  KeyBuilder& add(std::uint64_t value);
  KeyBuilder& add(std::int64_t value);
  KeyBuilder& add(bool value);
  KeyBuilder& add(const std::string& value);
  KeyBuilder& add(const std::vector<double>& values);

  /// Consumes the builder into the finished key.
  [[nodiscard]] CacheKey finish() &&;

 private:
  void append_raw(const void* data, std::size_t size);

  std::string solver_id_;
  std::string bytes_;
};

/// Recomputes the FNV-1a 64 digest of a finished key's canonical byte
/// string -- how the persistent tier rebuilds a CacheKey from bytes it
/// read off disk.
[[nodiscard]] std::uint64_t key_digest(const std::string& bytes) noexcept;

/// Recovers the solver id embedded at the front of a canonical key byte
/// string (KeyBuilder writes it first, length-prefixed). Throws
/// ModelError when the bytes are too short to hold the prefix.
[[nodiscard]] std::string solver_id_from_key_bytes(const std::string& bytes);

/// A type-erased cached value exactly as the table stores it. `type`
/// points at the typeid of the concrete value so get_or_compute<T> can
/// verify it before casting.
struct StoredValue {
  std::shared_ptr<const void> value;
  const std::type_info* type = nullptr;
};

/// Receives every freshly computed insert (not hits, not seeds). The
/// persistent tier implements this to write-behind values to its active
/// segment. Called outside any shard lock; implementations must be
/// thread-safe and must not re-enter the cache.
class CacheSink {
 public:
  virtual ~CacheSink() = default;
  virtual void on_insert(const CacheKey& key, const StoredValue& value) = 0;
};

/// Read-through second tier consulted on a miss BEFORE the compute runs
/// (the persistent tier's lazy DiskTier implements this). Called outside
/// any shard lock while the in-flight entry is already published, so at
/// most one thread per distinct key ever reads the disk. Implementations
/// must be thread-safe and must not re-enter the cache; a throwing
/// lookup is treated as "not found" (an unreadable disk tier costs a
/// recompute, never the workload).
class CacheSource {
 public:
  virtual ~CacheSource() = default;
  /// Returns true and fills `out` when the key is stored in the tier.
  virtual bool lookup(const CacheKey& key, StoredValue* out) = 0;
};

/// Aggregate lookup statistics (whole cache or one solver id).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;  ///< fulfilled by the CacheSource tier
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return hits + disk_hits + misses;
  }
  /// Disk fulfillments count as hits: the caller asked for a stored
  /// value and got one without recomputing, wherever it lived.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(hits + disk_hits) /
                        static_cast<double>(n);
  }
};

/// Thread-safe, sharded, content-addressed memoization table. Values are
/// stored type-erased behind shared_ptr<const void>; get_or_compute<T>
/// checks the stored type, so a key accidentally reused across types
/// aborts instead of reinterpreting bytes.
class EvalCache {
 public:
  struct Config {
    /// Lock stripes; lookups on different shards never contend.
    std::size_t shards = 16;
    /// Per-shard completed-entry cap; the oldest completed entry is
    /// evicted first (FIFO -- deterministic for a deterministic workload,
    /// no access-time bookkeeping on the hit path).
    std::size_t max_entries_per_shard = 4096;
  };

  EvalCache() : EvalCache(Config{}) {}
  explicit EvalCache(Config config);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Returns the cached value for `key`, computing it via `compute()` on
  /// the first miss. Concurrent callers of the same fresh key block on
  /// the first caller's in-flight computation (exactly one underlying
  /// solve per distinct key) and count as hits. If `compute` throws, the
  /// exception propagates to every waiter and the entry is removed so a
  /// later call retries. A hit is counted in the lock hold that finds
  /// the entry; a miss or disk hit in the one that completes it (or, for
  /// a throwing compute, removes it). When `ob` is non-null, one
  /// wall-domain `cache_lookup` span (attr `hit` = 0/1) and
  /// cache.hit/miss counters are recorded into it.
  template <typename T, typename Fn>
  [[nodiscard]] std::shared_ptr<const T> get_or_compute(
      const CacheKey& key, Fn&& compute, obs::Observer* ob = nullptr) {
    obs::ScopedWallSpan span(ob != nullptr ? &ob->tracer : nullptr,
                             obs::SpanLevel::kCacheLookup, key.solver_id);
    Shard& shard = shard_for(key);
    StoredFuture future;
    std::optional<std::promise<Stored>> promise;  // only a miss allocates
    Slot slot;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        future = it->second.future;
        count_lookup(shard, key.solver_id, Outcome::kHit);
      } else {
        promise.emplace();
        const auto inserted = shard.entries.emplace(
            EntryKey{key.bytes, key.digest},
            Entry{promise->get_future().share()});
        slot = Slot{&inserted.first->first, shard.generation};
      }
    }
    if (!promise) {
      observe_lookup(key.solver_id, Outcome::kHit, ob);
      span.attr("hit", 1.0);
      const Stored stored = future.get();  // may rethrow the first miss
      UPA_ASSERT(*stored.type == typeid(T));
      return std::static_pointer_cast<const T>(stored.value);
    }

    // Fresh key: consult the disk tier (when attached) before paying for
    // the compute. The in-flight entry is already published, so every
    // concurrent caller waits on this thread's future -- exactly one
    // disk read OR compute per distinct key, never both per caller.
    if (CacheSource* source = source_.load(std::memory_order_acquire)) {
      Stored from_disk;
      bool found = false;
      try {
        found = source->lookup(key, &from_disk);
      } catch (...) {
        found = false;  // unreadable tier: fall through to the compute
      }
      if (found && from_disk.value != nullptr && from_disk.type != nullptr &&
          *from_disk.type == typeid(T)) {
        promise->set_value(from_disk);
        complete_insert(shard, slot, key.solver_id, Outcome::kDiskHit);
        observe_lookup(key.solver_id, Outcome::kDiskHit, ob);
        span.attr("hit", 1.0);
        // No sink: the value came FROM persistence; re-appending it
        // would grow the directory on every warm replay.
        return std::static_pointer_cast<const T>(from_disk.value);
      }
    }

    observe_lookup(key.solver_id, Outcome::kMiss, ob);
    span.attr("hit", 0.0);
    try {
      auto value = std::make_shared<const T>(compute());
      promise->set_value(Stored{value, &typeid(T)});
      complete_insert(shard, slot, key.solver_id, Outcome::kMiss);
      if (CacheSink* sink = sink_.load(std::memory_order_acquire)) {
        sink->on_insert(key, Stored{value, &typeid(T)});
      }
      return value;
    } catch (...) {
      promise->set_exception(std::current_exception());
      abandon_insert(shard, slot, key.solver_id);
      throw;
    }
  }

  /// Inserts an already-computed value (the persistent tier's pre-warm
  /// and the `cache import` RPC). Never fires the sink -- a seeded value
  /// came FROM persistence -- and counts as an insert, not a lookup.
  /// Returns false when the key is already present (or in flight), in
  /// which case the existing entry wins.
  bool seed(const CacheKey& key, StoredValue value);

  /// One completed entry as exported by snapshot().
  struct SnapshotEntry {
    std::string key_bytes;
    StoredValue value;
  };

  /// All completed entries (in-flight computations are skipped), sorted
  /// by key bytes so an export is deterministic for deterministic
  /// contents regardless of insertion order.
  [[nodiscard]] std::vector<SnapshotEntry> snapshot() const;

  /// Installs (or clears, with nullptr) the insert sink. The sink must
  /// outlive the cache or be cleared before it dies.
  void set_sink(CacheSink* sink) noexcept {
    sink_.store(sink, std::memory_order_release);
  }

  /// Installs (or clears, with nullptr) the read-through miss source.
  /// Same lifetime contract as the sink.
  void set_source(CacheSource* source) noexcept {
    source_.store(source, std::memory_order_release);
  }

  /// Whole-cache statistics (sums over shards).
  [[nodiscard]] CacheStats stats() const;

  /// Hit/miss statistics of one solver id (zeroes when never seen).
  [[nodiscard]] CacheStats solver_stats(const std::string& solver_id) const;

  /// (solver id, stats) pairs sorted by solver id.
  [[nodiscard]] std::vector<std::pair<std::string, CacheStats>>
  per_solver_stats() const;

  /// Number of completed entries currently stored.
  [[nodiscard]] std::size_t size() const;

  /// Snapshots the totals into `metrics` as counters (cache.hits,
  /// cache.disk_hits, cache.misses, cache.inserts, cache.evictions, and
  /// per-solver cache.<solver>.hits / .misses) and the hit rates as
  /// gauges (cache.hit_rate, cache.<solver>.hit_rate). Not on a daemon's
  /// telemetry stream yet.
  void publish_metrics(obs::MetricsRegistry& metrics) const;

  /// Drops every entry and zeroes all statistics. A long-lived server
  /// calls this between reconfigurations (the upa_served `cache` RPC's
  /// `clear` op) so stale design points stop occupying shard capacity.
  void clear();

  /// Zeroes the whole-cache and per-solver statistics WITHOUT dropping
  /// entries -- a measurement window reset: stored values keep replaying,
  /// but hit rates restart from zero.
  void reset_stats();

 private:
  using Stored = StoredValue;
  using StoredFuture = std::shared_future<Stored>;

  enum class Outcome { kHit, kDiskHit, kMiss };

  /// A stored key: its canonical bytes (the identity) next to the
  /// digest its CacheKey carried in, so the table never rehashes bytes.
  struct EntryKey {
    std::string bytes;
    std::uint64_t digest = 0;
  };

  /// Buckets by the precomputed digest. Transparent, like KeyEqual, so
  /// find() probes with the caller's CacheKey and never copies its bytes.
  struct DigestHash {
    using is_transparent = void;
    std::size_t operator()(const EntryKey& k) const noexcept {
      return static_cast<std::size_t>(k.digest);
    }
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.digest);
    }
  };

  /// Identity is the full bytes; the digest test only skips the byte
  /// compare for bucket neighbours, so a digest collision never aliases.
  struct KeyEqual {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.digest == b.digest && a.bytes == b.bytes;
    }
  };

  struct Entry {
    StoredFuture future;
  };

  /// Lookup counts of one solver id within one shard.
  struct SolverCounts {
    std::string solver_id;
    CacheStats stats;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<EntryKey, Entry, DigestHash, KeyEqual> entries;
    /// Completed entries oldest first, as pointers to their keys inside
    /// `entries` (its nodes never move, so the log holds no key copy).
    /// In-flight entries are absent, so eviction can never cancel a
    /// running computation.
    std::deque<const EntryKey*> completed_order;
    CacheStats stats;
    /// Per-solver counts, updated under the lock a lookup already holds
    /// and summed across shards on read. A handful of solver ids, so a
    /// linear scan beats any keyed map.
    std::vector<SolverCounts> solvers;
    /// Bumped by clear(): an in-flight Slot from an older generation may
    /// point at a dropped entry and is never dereferenced.
    std::uint64_t generation = 0;
  };

  /// The in-flight entry a miss published, carried to its completion.
  struct Slot {
    const EntryKey* key = nullptr;
    std::uint64_t generation = 0;
  };

  [[nodiscard]] Shard& shard_for(const CacheKey& key) noexcept {
    return shards_[key.digest % shards_.size()];
  }
  // count_lookup and push_completed expect the shard lock held;
  // complete_insert and abandon_insert take it.
  static void count_lookup(Shard& shard, const std::string& solver_id,
                           Outcome outcome);
  void push_completed(Shard& shard, const EntryKey* key);
  void complete_insert(Shard& shard, Slot slot, const std::string& solver_id,
                       Outcome outcome);
  void abandon_insert(Shard& shard, Slot slot, const std::string& solver_id);
  static void observe_lookup(const std::string& solver_id, Outcome outcome,
                             obs::Observer* ob);
  /// Sums the per-solver counts of every shard (all shard locks held).
  [[nodiscard]] std::map<std::string, CacheStats> sum_solver_stats() const;

  std::size_t max_entries_per_shard_;
  std::vector<Shard> shards_;
  std::atomic<CacheSink*> sink_{nullptr};
  std::atomic<CacheSource*> source_{nullptr};
};

/// The process-wide cache consulted by the analytic entry points
/// (markov::Ctmc::steady_state, queueing::mmck_metrics, the core
/// web-farm availabilities, inject::run_campaign, ...) when caching is
/// enabled.
[[nodiscard]] EvalCache& global();

/// Whether the analytic entry points consult the global cache. Default
/// off: an uninstrumented run never pays for key building, and opt-in
/// call sites (sweeps, campaigns, the CLI's --cache on) turn it on for
/// the duration of a workload.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// RAII enable/disable with restoration (benches and tests).
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) : previous_(enabled()) {
    set_enabled(on);
  }
  ~ScopedEnable() { set_enabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace upa::cache
