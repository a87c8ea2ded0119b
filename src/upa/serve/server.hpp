#pragma once
// `upa_served` core: the evaluation service whose own request handling
// IS the paper's M/M/i/K model. Accept, non-blocking admission (503 when
// K requests are in the system), the i workers, keep-alive, the
// `subscribe` handoff and the graceful drain all live in the shared
// ConnectionServer (connection_server.hpp) -- the same one upa_dispatch
// runs. The measured rejection fraction under an open-loop Poisson load
// is therefore directly comparable to `queueing::mmck_loss_probability`
// -- the dogfood check run by `upa_loadgen` and pinned in
// tests/test_serve.cpp. This class is the request handler: deadlines,
// the evaluator dispatch, the `stats` and `reconfigure` RPCs, latency
// histograms, the per-tick metrics snapshot, and span recording.
//
// Both knobs are runtime-elastic: reconfigure() (also exposed as the
// `reconfigure` RPC, the actuator of the upa_ctl control loop) resizes
// the connection server's worker pool and admission bound.
//
// Deadlines: a server-wide `deadline_seconds` budget (0 = off) applies
// per request, anchored at the admission of its line (so long-lived
// connections are not penalized for their age). A request may tighten
// (never extend) the budget with a `deadline_ms` envelope member, also
// measured from admission. An over-deadline request gets a 504 envelope
// -- including when the result was computed but missed the budget.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "upa/obs/metrics.hpp"
#include "upa/obs/trace.hpp"
#include "upa/serve/connection_server.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::serve {

struct ServerConfig {
  /// Bind address; the default confines the service to loopback.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Worker threads draining the request queue -- the model's i.
  std::size_t workers = 2;
  /// Total admitted requests in the system (queued + in service) --
  /// the model's K. Must be >= workers.
  std::size_t capacity = 8;
  /// Per-request deadline in seconds (0 disables), anchored at the
  /// admission of the request line.
  double deadline_seconds = 0.0;
  /// Per-connection deadline: a connection idle this long between
  /// request lines, or a client that leaves a response unread this
  /// long, is closed.
  double read_timeout_seconds = 10.0;
  /// Distributed tracing mode, the only span switch. Records one
  /// wall-domain `serve_request` span per request (attrs: method, code,
  /// queue-wait) into the server's own tracer (read it back via spans());
  /// per sampled request it grows trace-linkage attrs (trace_id,
  /// parent_span, conn, seq) plus serve_phase child spans
  /// (queue_wait, handler, serialize). Off by default:
  /// the hot path then records no span, and responses are byte-identical
  /// to a trace-enabled server's. Metrics do not depend on it: the
  /// per-tick snapshot (publish_metrics; docs/modeling-guide.md,
  /// "Telemetry stream schema") is always streamed.
  bool trace = false;
  /// Label stamped on telemetry lines; empty = "upa_served:<port>".
  std::string telemetry_process;
};

/// Point-in-time counter snapshot (all values since start()).
struct ServerStats {
  std::uint64_t accepted = 0;    ///< TCP connections accepted
  std::uint64_t admitted = 0;    ///< request lines admitted to the queue
  std::uint64_t rejected = 0;    ///< request lines refused with 503 (full)
  std::uint64_t completed = 0;   ///< admitted requests fully handled
  std::uint64_t requests = 0;    ///< request lines answered (any code)
  std::uint64_t deadline_missed = 0;  ///< requests answered with 504
  std::uint64_t protocol_errors = 0;  ///< unparseable request lines
  std::size_t in_system = 0;       ///< requests queued or in service
  std::size_t max_in_system = 0;   ///< high-water mark of in_system
  std::size_t workers = 0;     ///< current worker target (the model's i)
  std::size_t capacity = 0;    ///< current admission bound (the model's K)
  std::size_t retiring = 0;    ///< workers past the target, still draining
  std::uint64_t reconfigures = 0;  ///< applied reconfigure() calls
  /// Wall seconds workers spent inside request handlers, summed over
  /// `handled_requests` -- handled / busy_seconds estimates the
  /// per-server service rate nu without the queue-wait bias of the
  /// end-to-end latency histogram (a controller's nu-hat input).
  double busy_seconds = 0.0;
  std::uint64_t handled_requests = 0;
};

class Server {
 public:
  /// Validates the config; the dispatcher gains a server-bound `stats`
  /// method on top of the built-in evaluator methods.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns reactor + workers. Throws ModelError on
  /// socket failures (port in use, no permission) and if already started.
  void start();

  /// Graceful drain: stops accepting, serves every request in the
  /// system, closes every connection, joins all threads. Idempotent;
  /// safe to call from a signal watcher thread. Returns once every
  /// worker has exited.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return connections_.running();
  }

  /// The bound TCP port (resolved after start() for port 0 configs).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return connections_.port();
  }

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] ServerStats stats() const;

  /// Online elastic resize -- the `reconfigure` RPC verb. Atomically
  /// swaps the admission bound (K) and retargets the worker pool (i);
  /// 0 keeps the current value of either knob. Grow spawns threads
  /// immediately; shrink is drain-aware: excess workers retire before
  /// taking their NEXT job, so an in-flight request is never killed and
  /// no client ever sees a transport error from a resize. Lowering K
  /// below the current occupancy evicts nothing -- the new bound applies
  /// at admission only. Concurrent calls serialize; throws ModelError on
  /// invalid targets (workers < 1, capacity < workers), while the
  /// server is draining, or before start().
  ReconfigureResult reconfigure(std::size_t workers, std::size_t capacity);

  /// The one metrics path, streamed every `subscribe` tick: cumulative
  /// totals as serve.* counters (serve.code.<n> per response code),
  /// levels as serve.* gauges, and the latency and handler-time
  /// histograms. docs/modeling-guide.md ("Telemetry stream schema")
  /// lists every name. Intended for a fresh registry per snapshot --
  /// publishing twice double-counts.
  void publish_metrics(obs::MetricsRegistry& metrics) const;

  /// Copy of the recorded spans (empty unless `trace`) and the count
  /// the tracer's cap dropped. Thread-safe.
  [[nodiscard]] std::vector<obs::Span> spans() const;
  [[nodiscard]] std::uint64_t dropped_spans() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Everything observe_request() needs about one finished request.
  /// Phase stamps are offsets from the request anchor, in seconds.
  struct RequestObservation {
    std::string method = "?";
    int code = 200;
    double queue_wait_seconds = 0.0;
    double latency_seconds = 0.0;
    double handler_begin = 0.0;
    double handler_end = 0.0;
    double serialize_begin = 0.0;
    double serialize_end = 0.0;
    bool has_handler = false;
    bool has_serialize = false;
    bool has_trace = false;       ///< request carried a valid trace member
    std::string trace_id;
    std::uint64_t parent_span = 0;
    bool sampled = true;
    std::uint64_t conn = 0;       ///< connection serial
    std::uint64_t seq = 0;        ///< request index on the connection
  };

  /// One request line -> one response line (counters + deadline checks).
  /// The line's admission starts the deadline budget and the latency/
  /// queue-wait clocks.
  [[nodiscard]] std::string respond_line(const std::string& line,
                                         const RequestContext& context);
  void observe_request(const RequestObservation& observation);

  ServerConfig config_;
  Dispatcher dispatcher_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> deadline_missed_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};

  // latency_mutex_ guards latency_, latency_by_method_, handler_seconds_,
  // requests_by_code_, and tracer_.
  // Traced requests record their whole span batch (root + phase
  // children) under one hold of this mutex, so the telemetry streamer's
  // span cursor -- advanced under the same mutex -- only ever observes
  // complete batches.
  mutable std::mutex latency_mutex_;
  obs::Histogram latency_;
  std::map<std::string, obs::Histogram> latency_by_method_;
  /// Handler wall time per request that ran a handler: count is
  /// ServerStats::handled_requests, sum is busy_seconds.
  obs::Histogram handler_seconds_;
  std::map<int, std::uint64_t> requests_by_code_;
  obs::Tracer tracer_;

  // Last member: destroyed first, so no worker outlives the state above.
  ConnectionServer connections_;
};

}  // namespace upa::serve
