#pragma once
// Balancing policies for the dispatch front end. All three pick an
// upstream index given the pool's current health/outstanding view and,
// for consistent hashing, the request's affinity key:
//
//   round-robin        equal spread; ignores request identity.
//   least-outstanding  sends to the replica with the fewest forwarded
//                      calls in flight (ties broken round-robin) --
//                      tracks the per-replica M/M/i/K occupancy.
//   consistent-hash    hashes the request's cache key (method + params)
//                      onto a virtual-node ring so repeated evaluations
//                      of the same model land on the same replica and
//                      farm-wide EvalCache hit rates survive balancing.
//
// pick() returns candidates in preference order so the retry layer can
// fail over to "the next best" without re-consulting the policy.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "upa/dispatch/upstream.hpp"
#include "upa/serve/json.hpp"

namespace upa::dispatch {

enum class BalancePolicy { kRoundRobin, kLeastOutstanding, kConsistentHash };

/// Parses "round-robin" | "least-outstanding" | "consistent-hash";
/// throws ModelError otherwise.
[[nodiscard]] BalancePolicy parse_balance_policy(const std::string& text);
[[nodiscard]] std::string balance_policy_name(BalancePolicy policy);

/// FNV-1a 64-bit over `text` with a splitmix64-style avalanche
/// finalizer -- the ring hash and the affinity hash.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);

/// Extracts the affinity key from a raw request line: method + the
/// params object's canonical dump (the same identity EvalCache keys
/// on). Unparseable lines hash as the whole line, so even malformed
/// requests balance deterministically.
[[nodiscard]] std::string affinity_key(const std::string& request_line);
/// The same key from `request`, already parsed from `request_line`.
[[nodiscard]] std::string affinity_key(const serve::Json& request,
                                       const std::string& request_line);

/// Thread-safe picker. Construction builds the consistent-hash ring
/// (virtual nodes per upstream); the pool reference must outlive the
/// balancer.
class Balancer {
 public:
  Balancer(const UpstreamPool& pool, BalancePolicy policy,
           std::size_t virtual_nodes = 64);

  [[nodiscard]] BalancePolicy policy() const noexcept { return policy_; }

  /// Returns every upstream index, most-preferred first. Healthy
  /// upstreams always precede unhealthy ones (fail open: when nothing
  /// is healthy the unhealthy tail is still tried). Consistent-hash
  /// preference is the ring walk from the key's position; the other
  /// policies order by their own criterion.
  [[nodiscard]] std::vector<std::size_t> pick(const std::string& key);

 private:
  struct RingEntry {
    std::uint64_t hash;
    std::size_t index;
  };

  [[nodiscard]] std::vector<std::size_t> ring_walk(
      const std::string& key) const;

  const UpstreamPool& pool_;
  BalancePolicy policy_;
  std::vector<RingEntry> ring_;           ///< sorted by hash
  std::atomic<std::uint64_t> cursor_{0};  ///< round-robin position
};

}  // namespace upa::dispatch
