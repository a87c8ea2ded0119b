#pragma once
// Replica anti-entropy: a background agent that keeps an upa_served
// replica's warm set converged with its peers WITHOUT any orchestrator
// driving transfers.
//
// This is the ONLY way cache state moves between replicas. Every
// `interval` the agent picks the next peer round-robin and runs one
// pull exchange:
//
//   0. `cache` op=fingerprint RPC: when the peer's O(1) (count, fold)
//      digest fingerprint equals ours the sets already converged and
//      the round ends here -- steady state costs one tiny RPC per
//      round, not a digest-summary ship. (A peer predating the op just
//      falls through to the pull.)
//   1. summarize what this replica HAS, locally: the sorted key digests
//      of every completed cache entry (cache::digest_summary);
//   2. `cache` op=pull RPC to the peer with that summary (have_hex).
//      The peer answers in digest-ordered pages (cursor/complete) of at
//      most kCachePullPageBytes of blob each (protocol.hpp), so no
//      reply line can outgrow the wire protocol's line cap;
//   3. each page is a delta segment blob holding ONLY the records the
//      caller is missing (cache::export_delta_page);
//   4. import every page -- through the persistence tier when attached,
//      so pulled warmth also survives the NEXT restart.
//
// A replica restarted by kill -9 therefore re-warms itself: its first
// rounds pull the whole working set from whichever peers stayed up.
// Errors (peer down, mid-restart, transport reset) are counted and the
// loop moves on -- anti-entropy is gossip, not a transaction.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace upa::serve {

struct AntiEntropyStats {
  std::uint64_t rounds = 0;       ///< exchanges attempted
  std::uint64_t pulls_ok = 0;     ///< exchanges that completed the RPC
  std::uint64_t pull_errors = 0;  ///< connect/RPC/decode failures
  std::uint64_t records_pulled = 0;  ///< records imported from peers
  std::uint64_t rounds_converged = 0;  ///< fingerprint matched, pull skipped
  std::uint64_t pages_pulled = 0;      ///< paged pull replies imported
};

struct AntiEntropyConfig {
  std::vector<std::string> peers;  ///< "host:port" per peer replica
  std::chrono::milliseconds interval{1000};
  double connect_timeout_seconds = 2.0;
};

class AntiEntropyAgent {
 public:
  explicit AntiEntropyAgent(AntiEntropyConfig config);
  ~AntiEntropyAgent();

  AntiEntropyAgent(const AntiEntropyAgent&) = delete;
  AntiEntropyAgent& operator=(const AntiEntropyAgent&) = delete;

  /// Starts the background loop (no-op when already running or when
  /// the config lists no peers).
  void start();
  void stop();

  /// Runs ONE exchange against peers[peer_index % peers.size()],
  /// synchronously. Returns false (and counts pull_errors) when the
  /// peer could not be reached or answered garbage. Public so tests
  /// and tools can drive convergence deterministically.
  bool run_round(std::size_t peer_index);

  [[nodiscard]] AntiEntropyStats stats() const;
  [[nodiscard]] const AntiEntropyConfig& config() const noexcept {
    return config_;
  }

 private:
  AntiEntropyConfig config_;

  mutable std::mutex mutex_;
  AntiEntropyStats stats_;

  std::mutex loop_mutex_;
  std::condition_variable loop_cv_;
  std::thread loop_;
  bool stop_ = false;
};

/// The process-global agent upa_served starts for --peers, or nullptr.
/// (cache_stats_json reports its counters when present.)
[[nodiscard]] AntiEntropyAgent* global_anti_entropy() noexcept;
void set_global_anti_entropy(AntiEntropyAgent* agent) noexcept;

}  // namespace upa::serve
