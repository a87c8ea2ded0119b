#pragma once
// Upstream registry of the dispatch front end: the set of `upa_served`
// replicas behind `upa_dispatch`, each with a health state driven by the
// active checker (see health.hpp), an outstanding-call count feeding the
// least-outstanding balancing policy, and per-outcome counters that flow
// into `dispatch_stats` and obs::MetricsRegistry. One mutex guards the
// whole pool: every operation is a handful of integer updates, and the
// pool is consulted once per forwarded attempt, so contention is
// negligible next to a TCP round trip.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "upa/serve/protocol.hpp"

namespace upa::dispatch {

/// One replica address. Dispatch speaks the same IPv4 host:port wire
/// protocol as serve::Client.
struct UpstreamAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string label() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "host:port"; throws ModelError on a malformed address or an
/// out-of-range port.
[[nodiscard]] UpstreamAddress parse_upstream_address(const std::string& text);

/// Parses a comma-separated "host:port,host:port" list (the
/// `--upstreams` flag); throws ModelError when empty or malformed.
[[nodiscard]] std::vector<UpstreamAddress> parse_upstream_list(
    const std::string& text);

/// Point-in-time view of one upstream (all counters since pool
/// construction). `healthy` reflects the active checker's verdict; the
/// balancer only falls back to unhealthy upstreams when no healthy one
/// is left (fail open beats failing every request on a stale verdict).
struct UpstreamSnapshot {
  UpstreamAddress address;
  bool healthy = true;
  std::size_t outstanding = 0;      ///< forwarded calls in flight
  std::uint64_t attempts = 0;       ///< forward attempts (incl. retries)
  std::uint64_t ok = 0;             ///< attempts answered with ok envelopes
  std::uint64_t rejected = 0;       ///< 503 admission rejections
  std::uint64_t deadline = 0;       ///< 504 deadline misses
  std::uint64_t errors = 0;         ///< other error envelopes (400/404/500)
  std::uint64_t transport = 0;      ///< refused/reset/mid-response failures
  std::uint64_t probe_failures = 0; ///< health probes failed (lifetime)
  std::uint64_t ejections = 0;      ///< healthy -> unhealthy transitions
  std::uint64_t readmissions = 0;   ///< unhealthy -> healthy transitions
  double latency_sum_seconds = 0.0; ///< total attempt latency (any outcome)
};

/// Thread-safe registry. The address list is fixed at construction (the
/// consistent-hash ring depends on it); health and counters are mutable.
class UpstreamPool {
 public:
  explicit UpstreamPool(std::vector<UpstreamAddress> addresses);

  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }
  [[nodiscard]] const UpstreamAddress& address(std::size_t index) const;

  /// Marks a forwarded call in flight / finished against `index`;
  /// `end_call` records the outcome class and the attempt latency.
  void begin_call(std::size_t index);
  void end_call(std::size_t index, serve::CallOutcome outcome,
                double latency_seconds);

  /// Health-checker feedback: one probe result. Consecutive failures
  /// beyond `unhealthy_threshold` eject the upstream; consecutive
  /// successes beyond `healthy_threshold` readmit it. Returns true when
  /// the verdict flipped (the caller logs the transition).
  bool record_probe(std::size_t index, bool ok,
                    std::size_t unhealthy_threshold,
                    std::size_t healthy_threshold);

  [[nodiscard]] bool healthy(std::size_t index) const;

  /// Balancer inputs in one locked pass: health flags and outstanding
  /// counts, index-aligned with the address list.
  void balancing_view(std::vector<bool>& healthy_out,
                      std::vector<std::size_t>& outstanding_out) const;

  [[nodiscard]] std::vector<UpstreamSnapshot> snapshot() const;

 private:
  struct State {
    UpstreamAddress address;
    bool healthy = true;
    std::size_t outstanding = 0;
    std::size_t consecutive_probe_failures = 0;
    std::size_t consecutive_probe_successes = 0;
    std::uint64_t attempts = 0;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deadline = 0;
    std::uint64_t errors = 0;
    std::uint64_t transport = 0;
    std::uint64_t probe_failures = 0;
    std::uint64_t ejections = 0;
    std::uint64_t readmissions = 0;
    double latency_sum_seconds = 0.0;
  };

  mutable std::mutex mutex_;
  std::vector<State> states_;
};

}  // namespace upa::dispatch
