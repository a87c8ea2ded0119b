#pragma once
// The connection server both daemons run -- `upa_served` (serve::Server)
// and `upa_dispatch` (dispatch::Front) -- and whose own request handling
// IS the paper's M/M/i/K station. `workers` threads (the paper's i
// operational servers) drain one bounded queue; `capacity` (the paper's
// K) bounds the total number of admitted connections in the system --
// queued plus in service. Admission control is explicit and
// non-blocking: when the system is full the acceptor writes a one-line
// 503 envelope to the new connection and closes it without ever reading
// the request, so the accept loop can never stall behind a slow client
// or a full queue.
//
// Each admitted connection is a keep-alive loop of newline-delimited
// request lines. Every line goes to the owner's RequestHandler, except a
// `subscribe` line, which hands the socket to a TelemetryStreamer (a
// long-lived subscriber must not hold one of the K admission slots).
//
// Both knobs are runtime-elastic: reconfigure() retargets the worker
// pool and swaps the admission bound atomically. Grow spawns threads at
// once; shrink retires excess workers only between connections, so an
// in-flight request always completes.
//
// Lifecycle: start() binds, listens, and spawns the acceptor plus the
// workers; stop() (idempotent, also run by the destructor) closes the
// listen socket so no new connection is admitted, lets the workers drain
// every admitted connection, and joins all threads. The first line read
// on an admitted connection is always waited for (the connection was
// admitted, so its request is served); every later read -- including
// the one after a blank line -- is parked, and stop() wakes parked reads
// at once. In-flight requests always complete, but a kept-alive
// connection gets no further requests once the drain begins, and both
// socket directions carry `read_timeout_seconds`, so stop() always
// terminates even against a client that keeps sending or stops reading.
// Post-stop connects are refused by the OS.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "upa/obs/metrics.hpp"
#include "upa/obs/trace.hpp"
#include "upa/serve/telemetry.hpp"

namespace upa::serve {

/// Bounds both directions of socket I/O. The send timeout matters as
/// much as the recv one: without it a client that stops reading (full
/// socket buffer) pins a worker in send_all forever, and stop() can
/// never join that worker. No-op for seconds <= 0.
void set_io_timeouts(int fd, double seconds);

/// Writes the whole buffer; false on a broken/slow peer. MSG_NOSIGNAL
/// keeps a disappeared peer from killing the process with SIGPIPE.
bool send_all(int fd, const std::string& data);

/// Pulls one '\n'-terminated line (a trailing '\r' stripped) out of
/// (buffer + socket). Returns false on EOF, timeout, error, or a line
/// longer than 1 MiB -- a client bug, not a workload.
bool read_line(int fd, std::string& buffer, std::string& line);

/// What a handler knows about the request line it answers.
struct RequestContext {
  std::chrono::steady_clock::time_point admitted;   ///< connection admitted
  std::chrono::steady_clock::time_point line_read;  ///< this line read
  bool first_request = true;  ///< first line read on this connection
  std::uint64_t conn = 0;     ///< connection serial, 1-based
  std::uint64_t seq = 0;      ///< request index on the connection
};

/// One request line in, one response line (without '\n') out. Runs on
/// worker threads concurrently, so it must be thread-safe.
using RequestHandler =
    std::function<std::string(const std::string& line,
                              const RequestContext& context)>;

/// Sizes and timeouts are validated by the owning daemon's config.
struct ConnectionServerConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  std::size_t workers = 1;   ///< the model's i
  std::size_t capacity = 1;  ///< the model's K; must be >= workers
  /// Socket I/O timeout (both directions) on every admitted connection.
  double read_timeout_seconds = 10.0;
  /// Telemetry label; empty = "<process_kind>:<port>".
  std::string telemetry_process;
  std::string process_kind;
  /// Message of the 503 envelope a connection gets when it finds K
  /// connections admitted; called with the K it was judged against.
  std::function<std::string(std::size_t capacity)> reject_message;
  /// Fills a fresh registry with the owner's metrics for one telemetry
  /// tick -- the owner's publish_metrics, the daemon's only metrics path
  /// (schema: docs/modeling-guide.md, "Telemetry stream schema").
  std::function<void(obs::MetricsRegistry&)> fill_metrics;
  /// The owner's tracer to stream (null when untraced) and the mutex it
  /// records span batches under; subscribers stream its spans under that
  /// mutex, so they only ever see complete batches.
  const obs::Tracer* tracer = nullptr;
  std::mutex* span_mutex = nullptr;
};

/// Point-in-time counter snapshot (all values since construction).
struct ConnectionStats {
  std::uint64_t accepted = 0;   ///< connections admitted into the queue
  std::uint64_t rejected = 0;   ///< connections refused with 503 (full)
  std::uint64_t completed = 0;  ///< admitted connections fully handled
  std::size_t in_system = 0;      ///< current queued + in-service
  std::size_t max_in_system = 0;  ///< high-water mark of in_system
  std::size_t workers = 0;   ///< current worker target (the model's i)
  std::size_t capacity = 0;  ///< current admission bound (the model's K)
  std::size_t retiring = 0;  ///< workers past the target, still draining
  std::uint64_t reconfigures = 0;  ///< applied reconfigure() calls
};

/// What one applied reconfigure() changed.
struct ReconfigureResult {
  std::size_t workers = 0;
  std::size_t capacity = 0;
  std::size_t previous_workers = 0;
  std::size_t previous_capacity = 0;
  /// Workers above the new target that will retire as soon as they
  /// finish their current connection (drain-aware shrink).
  std::size_t retiring = 0;
};

class ConnectionServer {
 public:
  ConnectionServer(ConnectionServerConfig config, RequestHandler handler);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds, listens, and spawns acceptor + workers. Throws ModelError on
  /// socket failures (port in use, no permission) and if already started.
  void start();

  /// Graceful drain: stops accepting, serves everything already
  /// admitted, joins all threads. Idempotent; safe to call from a signal
  /// watcher thread. Returns once every worker has exited.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }

  /// The bound TCP port (resolved after start() for port 0 configs).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] ConnectionStats stats() const;

  /// Online elastic resize; 0 keeps the current value of either knob.
  /// The admission bound swaps atomically with its 503 text; lowering K
  /// below the current occupancy evicts nothing. Grow spawns threads
  /// immediately; shrink retires excess workers before they take their
  /// NEXT connection. Concurrent calls serialize (a handler may call
  /// this). Throws ModelError on invalid targets (workers < 1,
  /// capacity < workers), while draining, or before start().
  ReconfigureResult reconfigure(std::size_t workers, std::size_t capacity);

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    int fd = -1;
    Clock::time_point admitted;
  };

  void acceptor_loop();
  void worker_loop();
  void handle_connection(const Job& job);
  /// Intercepts a `subscribe` request line before the handler. Returns
  /// 0 when the line is not a subscribe (caller proceeds), 1 when the fd
  /// was handed to the telemetry streamer (caller must return without
  /// closing it), 2 when an error envelope was already sent (caller
  /// continues the connection loop).
  [[nodiscard]] int maybe_subscribe(int fd, const std::string& line);
  /// Registers a kept-alive connection about to block in recv for its
  /// next line; stop() shutdown(SHUT_RD)s every parked fd so the drain
  /// ends immediately instead of waiting out the read timeout. Returns
  /// false (without parking) once the drain has begun, which is also
  /// what keeps an endlessly-requesting client from holding the drain
  /// open: the request in flight finishes, no further ones start.
  [[nodiscard]] bool park_for_next_request(int fd);
  void unpark(int fd);
  /// Joins and erases worker threads that retired from a previous
  /// shrink (their ids are in exited_worker_ids_). Caller holds
  /// workers_mutex_.
  void reap_exited_workers();
  [[nodiscard]] std::string process_name() const;

  ConnectionServerConfig config_;
  RequestHandler handler_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accept_stop_{false};
  std::mutex stop_mutex_;  // serializes start/stop callers
  bool started_ = false;   // guarded by stop_mutex_

  // mutex_ guards queue_, in_system_, stopping_, parked_fds_, the
  // dynamic pool/admission state (workers_target_, capacity_limit_,
  // active_workers_, reject_line_), and exited_worker_ids_.
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<Job> queue_;
  std::size_t in_system_ = 0;
  bool stopping_ = false;
  std::vector<int> parked_fds_;  // connections idle between requests
  std::size_t workers_target_ = 0;
  std::size_t capacity_limit_ = 0;
  std::size_t active_workers_ = 0;  ///< live worker loops (incl. retiring)
  std::string reject_line_;  ///< 503 envelope, rebuilt when K changes
  std::vector<std::thread::id> exited_worker_ids_;  ///< retired, joinable

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::size_t> max_in_system_{0};
  std::atomic<std::uint64_t> reconfigures_{0};
  std::atomic<std::uint64_t> conn_serial_{0};

  std::unique_ptr<TelemetryStreamer> telemetry_;

  // Thread handles last: every member above outlives the threads.
  std::thread acceptor_;
  // workers_mutex_ guards the workers_ thread handles and serializes
  // reconfigure() callers. Never held while joining a RUNNING worker
  // (a worker executing a reconfigure RPC needs it) -- stop() moves
  // handles out before joining, and reap_exited_workers() only joins
  // threads that already left worker_loop().
  std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
};

}  // namespace upa::serve
