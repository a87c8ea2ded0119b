#pragma once
// The dispatch front end: a multi-threaded TCP server speaking the same
// newline-delimited JSON wire protocol as `upa_served`, forwarding each
// request line to one of N upstream replicas. Forwarding is verbatim in
// both directions -- the raw request line goes out, the upstream's raw
// response line comes back -- so with fault injection disabled a
// dispatcher-fronted response is byte-identical to a direct one (pinned
// in tests/test_dispatch.cpp).
//
// Retry layer: 503 (admission rejected), 504 (deadline), connection
// refusal, and mid-response transport errors are retried against the
// balancer's next-preferred replica with exponential backoff + jitter,
// up to a per-request attempt budget. Deterministic error envelopes
// (400/404/500) are the upstream's answer and are returned immediately
// -- retrying them would just recompute the same error. A spent budget
// yields a single coherent envelope: code 503, message
// "retries_exhausted", and an `attempts` list naming every upstream
// tried and how it failed; clients classify it as a rejection, so
// exhausted retries surface as farm-level loss.
//
// One locally-served method, `dispatch_stats`, reports front counters
// and per-upstream state over RPC; every other method (including the
// upstreams' own `stats`) is forwarded untouched.
//
// Accept, admission (503 at `max_clients`), the worker pool, keep-alive,
// the `subscribe` handoff and the graceful drain are the shared
// serve::ConnectionServer (upa/serve/connection_server.hpp) -- the same
// one upa_served runs; this class is its request handler.
//
// Upstream connections are kept alive and pooled per upstream: a worker
// checks one out for an attempt and returns it after a complete
// response line, so no upstream ever sees more pooled connections than
// the front has workers. A pooled connection that fails before any
// response byte arrives (the upstream closed it while idle, or
// restarted) is replaced by one fresh connect within the same attempt
// and is not a transport failure. Ejecting an upstream closes its pool.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "upa/dispatch/balancer.hpp"
#include "upa/dispatch/health.hpp"
#include "upa/dispatch/upstream.hpp"
#include "upa/obs/metrics.hpp"
#include "upa/obs/trace.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/connection_server.hpp"
#include "upa/serve/protocol.hpp"
#include "upa/sim/rng.hpp"

namespace upa::dispatch {

/// Retry/backoff policy. `max_attempts` is the total per-request budget
/// (first try included); backoff before retry r (1-based) is
/// min(initial * 2^(r-1), max) scaled down by up to `jitter`.
struct RetryConfig {
  std::size_t max_attempts = 3;
  double backoff_initial_seconds = 0.005;
  double backoff_max_seconds = 0.05;
  double jitter = 0.5;          ///< fraction of the delay randomized away
  std::uint64_t jitter_seed = 1;
};

struct FrontConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  std::vector<UpstreamAddress> upstreams;
  BalancePolicy policy = BalancePolicy::kLeastOutstanding;
  /// Front worker threads; each forwards one request at a time, so this
  /// bounds concurrent forwarded calls and the pooled connections per
  /// upstream.
  std::size_t workers = 16;
  /// Client request lines in the front at once (queued + forwarding); a
  /// line beyond it gets a 503 without being forwarded. Sized so the
  /// front itself never rejects under bench load -- farm-level loss
  /// should come from the upstreams' M/M/i/K admission, not from the
  /// dispatcher.
  std::size_t max_clients = 256;
  /// Client connection deadline: idle between request lines, or leaving
  /// a response unread.
  double read_timeout_seconds = 10.0;
  /// Per-attempt upstream connect timeout. Small: a dead replica must
  /// fail fast so the retry layer can move on.
  double upstream_connect_timeout_seconds = 1.0;
  /// Per-attempt upstream send and receive timeout (writing the request,
  /// waiting for the response line). Bounded so a replica killed
  /// mid-response is a fast retry, not a 30 s stall.
  double upstream_call_timeout_seconds = 10.0;
  HealthConfig health;
  RetryConfig retry;
  /// Distributed tracing mode, the only span switch. Per sampled request
  /// the front records, into its own tracer (read it back via spans()),
  /// one dispatch_request root span plus one dispatch_attempt child per
  /// forwarding attempt (attrs: ref, upstream, outcome), and rewrites
  /// each attempt's request line with a trace context -- adopting an
  /// incoming one or originating a fresh trace_id -- so upstream
  /// serve_request spans parent on the attempt. Off by default:
  /// forwarding stays verbatim, byte for byte. Metrics do not depend on
  /// it: the per-tick snapshot (publish_metrics; docs/modeling-guide.md,
  /// "Telemetry stream schema") is always streamed.
  bool trace = false;
  /// Label stamped on telemetry lines; empty = "upa_dispatch:<port>".
  std::string telemetry_process;
};

/// Point-in-time counter snapshot (all values since start()). The
/// forwarded_* counters classify each *request* by its final outcome --
/// a retried-then-succeeded request counts exactly once, as ok.
struct FrontStats {
  std::uint64_t accepted = 0;        ///< client TCP connections accepted
  std::uint64_t admitted = 0;        ///< client request lines admitted
  std::uint64_t rejected = 0;        ///< client request lines 503'd (full)
  std::uint64_t completed = 0;       ///< admitted requests fully handled
  std::uint64_t requests = 0;        ///< request lines answered
  std::uint64_t forwarded_ok = 0;
  std::uint64_t forwarded_rejected = 0;   ///< final 503 (incl. exhausted)
  std::uint64_t forwarded_deadline = 0;   ///< final 504
  std::uint64_t forwarded_error = 0;      ///< final 400/404/500
  std::uint64_t forwarded_transport = 0;  ///< final attempt died on the wire
  std::uint64_t retries = 0;         ///< attempts beyond each first try
  std::uint64_t failovers = 0;       ///< retries that switched replica
  std::uint64_t retries_exhausted = 0;    ///< budgets fully spent
  std::uint64_t stats_served = 0;    ///< dispatch_stats answered locally
  std::size_t in_system = 0;      ///< requests queued or forwarding
  std::size_t max_in_system = 0;
};

/// One forwarded attempt, for the exhausted envelope and tests.
struct ForwardAttempt {
  std::size_t upstream_index = 0;
  AttemptOutcome outcome = AttemptOutcome::kTransport;
};

/// Outcome of forwarding one request line through the retry layer.
struct ForwardResult {
  std::string response_line;  ///< verbatim upstream bytes, or the
                              ///< retries_exhausted envelope
  AttemptOutcome final_outcome = AttemptOutcome::kTransport;
  std::vector<ForwardAttempt> attempts;
  bool exhausted = false;
};

class Front {
 public:
  /// Validates the config; throws ModelError on empty upstreams,
  /// non-positive timeouts, or a zero attempt budget.
  explicit Front(FrontConfig config);
  ~Front();

  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  /// Binds, listens, runs one initial health sweep, and spawns the
  /// reactor, workers, and the health checker.
  void start();

  /// Graceful drain (serve::ConnectionServer::stop), then stops the
  /// health checker and closes the pooled upstream connections.
  /// Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return connections_.running();
  }
  [[nodiscard]] std::uint16_t port() const noexcept {
    return connections_.port();
  }
  [[nodiscard]] const FrontConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] FrontStats stats() const;
  [[nodiscard]] std::vector<UpstreamSnapshot> upstreams() const;

  /// The retry layer, exposed for tests: forwards one raw request line
  /// and returns the response plus the attempt trail. Thread-safe.
  [[nodiscard]] ForwardResult forward_line(const std::string& request_line);

  /// The one metrics path, streamed every `subscribe` tick: front totals
  /// as dispatch.* counters, per-upstream dispatch.upstream.<host:port>.*
  /// counters (outstanding and healthy are gauges), and the per-outcome
  /// and per-upstream attempt-latency histograms. docs/modeling-guide.md
  /// ("Telemetry stream schema") lists every name. Intended for a fresh
  /// registry per snapshot.
  void publish_metrics(obs::MetricsRegistry& metrics) const;

  /// Copy of the recorded spans (empty unless `trace`) and the count
  /// the tracer's cap dropped. Thread-safe.
  [[nodiscard]] std::vector<obs::Span> spans() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One forwarding attempt with its trace bookkeeping: the per-process
  /// span reference stamped into the attempt's trace context (the value
  /// the upstream's serve_request span carries as parent_span) and the
  /// attempt's wall-clock window.
  struct TracedAttempt {
    std::size_t upstream_index = 0;
    AttemptOutcome outcome = AttemptOutcome::kTransport;
    std::uint64_t ref = 0;
    Clock::time_point begin;
    Clock::time_point end;
  };

  /// One request line -> one response line: serves dispatch_stats
  /// locally, forwards everything else, and bumps the final-outcome
  /// counters (exactly once per request).
  [[nodiscard]] std::string respond_line(
      const std::string& line, const serve::RequestContext& context);
  [[nodiscard]] std::string dispatch_stats_line(const serve::Json& request);
  /// The retry layer. `request` is the line parsed once by the caller,
  /// empty when it is not valid JSON (still forwarded verbatim).
  [[nodiscard]] ForwardResult forward_line_traced(
      const std::string& request_line,
      const std::optional<serve::Json>& request, std::uint64_t conn,
      std::uint64_t seq);
  /// One attempt against one upstream over a pooled connection; records
  /// pool counters and the per-outcome and per-upstream latency
  /// histograms.
  [[nodiscard]] ForwardAttempt attempt_once(std::size_t index,
                                            const std::string& line,
                                            std::string& response_out);
  /// An idle pooled connection to upstream `index`, or an unconnected
  /// client, with the pool generation it was taken under.
  [[nodiscard]] serve::Client checkout(std::size_t index,
                                       std::uint64_t& generation);
  /// Returns a connection that read a complete response line; one taken
  /// before its upstream was ejected is closed instead.
  void checkin(std::size_t index, serve::Client client,
               std::uint64_t generation);
  /// Closes upstream `index`'s idle pooled connections and retires the
  /// ones checked out now.
  void close_pool(std::size_t index);
  void backoff_sleep(std::size_t retry_number);
  [[nodiscard]] std::string exhausted_envelope(
      const std::optional<serve::Json>& request,
      const std::vector<ForwardAttempt>& attempts) const;
  /// Records the dispatch_request root + per-attempt child spans as one
  /// complete batch under latency_mutex_, the mutex telemetry
  /// subscribers stream spans under.
  void record_request_trace(const std::string& method,
                            const serve::TraceContext& context,
                            const ForwardResult& result,
                            const std::vector<TracedAttempt>& attempts,
                            Clock::time_point request_begin,
                            std::uint64_t conn, std::uint64_t seq);

  FrontConfig config_;
  UpstreamPool pool_;
  Balancer balancer_;

  // Kept-alive upstream connections, by upstream index; a generation
  // bump (ejection) retires the ones checked out.
  struct IdleClients {
    std::vector<serve::Client> clients;
    std::uint64_t generation = 0;
  };
  std::mutex idle_mutex_;  // guards idle_
  std::vector<IdleClients> idle_;

  std::unique_ptr<HealthChecker> health_;
  std::mutex start_stop_mutex_;  // serializes start/stop callers

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> forwarded_ok_{0};
  std::atomic<std::uint64_t> forwarded_rejected_{0};
  std::atomic<std::uint64_t> forwarded_deadline_{0};
  std::atomic<std::uint64_t> forwarded_error_{0};
  std::atomic<std::uint64_t> forwarded_transport_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> retries_exhausted_{0};
  std::atomic<std::uint64_t> stats_served_{0};

  std::mutex rng_mutex_;  // guards jitter_rng_
  sim::Xoshiro256 jitter_rng_;

  // Tracing state: a per-process attempt-span reference counter (the
  // value propagated as trace.span_id and echoed back by upstream spans
  // as parent_span) and the base mixed into originated trace ids so two
  // fronts never collide.
  std::atomic<std::uint64_t> span_ref_{1};
  std::atomic<std::uint64_t> origin_serial_{0};
  std::uint64_t trace_origin_base_ = 0;

  // latency_mutex_ guards latency_by_outcome_, latency_by_upstream_,
  // and tracer_; traced span batches land under one hold.
  mutable std::mutex latency_mutex_;
  std::vector<obs::Histogram> latency_by_outcome_;  // indexed by outcome
  std::vector<obs::Histogram> latency_by_upstream_; // indexed by upstream
  obs::Tracer tracer_;

  // Last member: destroyed first, so no worker outlives the state above.
  serve::ConnectionServer connections_;
};

}  // namespace upa::dispatch
