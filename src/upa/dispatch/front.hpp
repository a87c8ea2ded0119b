#pragma once
// The dispatch front end: a TCP server speaking the same
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
// Accept, admission (503 at `max_clients`), keep-alive, the `subscribe`
// handoff and the graceful drain are the shared serve::ConnectionServer
// (upa/serve/connection_server.hpp) -- the same one upa_served runs; this
// class is its request handler, run on the server's reactor thread.
//
// Forwarding happens on that reactor: no thread of the front ever waits
// on an upstream. Each admitted line is a non-blocking state machine --
// take a pooled upstream socket or start a non-blocking connect, write
// the line, frame the response line when epoll reports it, classify it,
// then answer the client or arm the backoff timer for the next attempt.
// Connect and call timeouts are reactor timers too. `workers` bounds the
// forwards in flight; admitted lines past it wait in FIFO order.
//
// Upstream connections are kept alive and pooled per upstream: an
// attempt takes one and returns it after a complete response line, so no
// upstream ever sees more pooled connections than the front has forwards
// in flight. A pooled connection that fails before any response byte
// arrives (the upstream closed it while idle, or restarted) is replaced
// by one fresh connect within the same attempt and is not a transport
// failure. Ejecting an upstream closes its pool; the health checker runs
// its blocking probes on its own thread and posts the ejection to the
// reactor.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
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
  /// Forwards in flight (the front's i): admitted lines past it wait in
  /// FIFO order. It also bounds the pooled connections per upstream. Not
  /// a thread count -- the front forwards on its one reactor thread.
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
  /// Per-attempt upstream deadline from the connection being ready to
  /// the whole response line (writing the request, waiting for the
  /// answer). Bounded so a replica killed mid-response is a fast retry,
  /// not a 30 s stall.
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

class Front {
 public:
  /// Validates the config; throws ModelError on empty upstreams,
  /// non-positive timeouts, or a zero attempt budget.
  explicit Front(FrontConfig config);
  ~Front();

  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  /// Binds, listens, runs one initial health sweep, and spawns the
  /// reactor and the health checker.
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

  /// One kept-alive, non-blocking upstream connection, watched on the
  /// reactor for its whole life; owned by its pool while idle and by the
  /// forward it carries otherwise.
  struct Link;
  /// One request line on its way through the retry layer.
  struct Forward;

  /// One forwarded attempt, for the exhausted envelope.
  struct ForwardAttempt {
    std::size_t upstream_index = 0;
    serve::CallOutcome outcome = serve::CallOutcome::kTransportError;
  };

  /// Outcome of forwarding one request line through the retry layer.
  struct ForwardResult {
    std::string response_line;  ///< verbatim upstream bytes, or the
                                ///< retries_exhausted envelope
    serve::CallOutcome final_outcome = serve::CallOutcome::kTransportError;
    std::vector<ForwardAttempt> attempts;
    bool exhausted = false;
  };

  /// One forwarding attempt with its trace bookkeeping: the per-process
  /// span reference stamped into the attempt's trace context (the value
  /// the upstream's serve_request span carries as parent_span) and the
  /// attempt's wall-clock window.
  struct TracedAttempt {
    std::size_t upstream_index = 0;
    serve::CallOutcome outcome = serve::CallOutcome::kTransportError;
    std::uint64_t ref = 0;
    Clock::time_point begin;
    Clock::time_point end;
  };

  /// Kept-alive upstream connections, by upstream index; a generation
  /// bump (ejection) retires the ones out on an attempt.
  struct Pool {
    std::vector<std::unique_ptr<Link>> idle;
    std::uint64_t generation = 0;
  };

  /// One request line -> one response line, on the reactor: serves
  /// dispatch_stats at once, and forwards everything else, answering
  /// through ConnectionServer::complete() unless every attempt failed at
  /// once. Bumps the final-outcome counters exactly once per request.
  [[nodiscard]] std::optional<std::string> respond_line(
      const std::string& line, const serve::RequestContext& context);
  [[nodiscard]] std::string dispatch_stats_line(const serve::Json& request);
  /// A new forward of `line`. `request` is the line parsed by the
  /// caller, or empty: it is parsed only when tracing, hashing or the
  /// exhausted envelope needs it.
  Forward& make_forward(const std::string& line,
                        std::optional<serve::Json> request,
                        std::uint64_t conn, std::uint64_t seq);
  /// Starts the first attempt; true when the forward finished at once
  /// (its result is then in the forward, not yet delivered).
  [[nodiscard]] bool launch(Forward& forward);
  void begin_attempt(Forward& forward);
  /// Opens a fresh non-blocking connection for the attempt in flight.
  void connect_link(Forward& forward);
  /// Closes the attempt's connection and fails the attempt after
  /// `seconds`: the connect, then the call, timeout.
  void arm_deadline(Forward& forward, double seconds);
  /// Writes what the link has not taken of the attempt's line; false
  /// when the link broke (the forward may be gone).
  bool write_request(Forward& forward);
  void on_link_ready(Link& link, std::uint32_t events);
  void read_response(Forward& forward);
  /// The attempt's connection broke; before any response byte on a
  /// pooled one, one fresh connect retries it within the attempt.
  void link_broke(Forward& forward, bool before_response);
  /// Books one attempt's outcome, then answers, arms the backoff timer
  /// for the next attempt, or ends with the retries_exhausted envelope.
  void attempt_ended(Forward& forward, serve::CallOutcome outcome,
                     std::string response);
  void finish(Forward& forward);
  /// Hands a finished forward's result to its client, and frees it.
  void deliver(Forward& forward);
  void count_outcome(const ForwardResult& result);
  /// Returns a connection that read exactly one response line to its
  /// pool; one taken before its upstream was ejected is closed instead.
  void pool_link(std::unique_ptr<Link> link);
  void close_link(std::unique_ptr<Link> link);
  /// Closes upstream `index`'s idle pooled connections and retires the
  /// ones out on an attempt now.
  void close_pool(std::size_t index);
  /// The backoff before retry `retry_number` (1-based), jittered.
  [[nodiscard]] double backoff_seconds(std::size_t retry_number);
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

  // Reactor-thread state: the pools and every forward in flight.
  std::vector<Pool> pools_;
  std::list<Forward> forwards_;
  sim::Xoshiro256 jitter_rng_;

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

  // Last member: destroyed first, so the reactor does not outlive the
  // state above.
  serve::ConnectionServer connections_;
};

}  // namespace upa::dispatch
