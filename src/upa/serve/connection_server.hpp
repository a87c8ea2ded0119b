#pragma once
// The connection server both daemons run -- `upa_served` (serve::Server)
// and `upa_dispatch` (dispatch::Front) -- and whose own request handling
// IS the paper's M/M/i/K station, with the request line as the customer.
// `workers` (the paper's i operational servers) bounds the requests in
// service; `capacity` (the paper's K) bounds the request lines in the
// system -- queued plus in service.
//
// One epoll reactor thread owns every socket. It accepts, reads without
// blocking, frames newline-delimited request lines, and judges each line
// against K: a line that finds K requests in the system gets a one-line
// 503 envelope written by the reactor, the handler never runs for it,
// and the connection stays open for its next line. An admitted line goes
// to the owner's RequestHandler, which answers it now or later. A
// connection has at most one request in flight: it is read again only
// after its response is written, so responses keep request order. A
// `subscribe` line hands the socket to a TelemetryStreamer (a long-lived
// subscriber holds no slot).
//
// Where the handler runs is the owner's choice, and the handler contract
// is the same either way: it returns the response line now, or nothing
// ("pending") and hands the response to complete() later, on the reactor
// thread.
//  - On `workers` threads (upa_served, whose handler computes): an
//    admitted line goes to one bounded FIFO queue; a worker runs the
//    handler and writes the response straight to the non-blocking
//    socket, handing any short write back to the reactor's EPOLLOUT path.
//  - On the reactor thread (`handle_on_reactor`; upa_dispatch, whose
//    handler only moves bytes): no worker thread exists. `workers` is the
//    number of requests in service -- handled and not yet answered -- and
//    admitted lines past it wait in FIFO order. Such a handler must never
//    block; it drives its own sockets and deadlines with the reactor's
//    watch() and after(), and work from other threads reaches it through
//    post().
//
// On worker threads, an idle keep-alive connection holds no admission
// slot, and no thread that other work needs. A worker that has written a
// response keeps that connection only while nothing else is queued -- for
// at most its idle deadline -- and admits and serves its next line
// itself, so a request/response client pays no reactor wake-up and no
// hand-off per request. When a line is queued for want of an idle worker,
// the worker that has held a connection longest is poked: it gives the
// connection back to the reactor and takes the line (the drain and a
// shrink poke them all). A queued line goes to the idle worker that last
// served its connection, else to the one that idled last -- warm caches,
// and the allocator arena that already holds the connection's working
// set.
//
// Both knobs are runtime-elastic: reconfigure() retargets the worker
// pool and swaps the admission bound atomically. Grow spawns threads at
// once; shrink retires excess workers only between requests, so an
// in-flight request always completes.
//
// Lifecycle: start() binds, listens, and spawns the reactor plus the
// workers; stop() (idempotent, also run by the destructor) stops
// accepting, lets every request in the system finish, closes each
// connection once its response is written, and joins all threads. Lines
// that arrive while the drain still has requests in flight are served;
// once the system is empty every remaining connection is closed, and the
// owner's watches, timers and posted tasks are dropped.
// `read_timeout_seconds` is the reactor's deadline per connection: an
// idle connection that sends nothing for that long, or a client that
// stops reading a response for that long, is closed -- so stop() always
// terminates, even against a client that keeps sending or stops
// reading. Post-stop connects are refused by the OS.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "upa/obs/metrics.hpp"
#include "upa/obs/trace.hpp"
#include "upa/serve/telemetry.hpp"

namespace upa::serve {

/// Bounds both directions of blocking socket I/O. The send timeout
/// matters as much as the recv one: without it a peer that stops reading
/// (full socket buffer) pins the sender in send_all forever. No-op for
/// seconds <= 0.
void set_io_timeouts(int fd, double seconds);

/// Writes the whole buffer to a blocking socket; false on a broken/slow
/// peer. MSG_NOSIGNAL keeps a disappeared peer from killing the process
/// with SIGPIPE.
bool send_all(int fd, const std::string& data);

/// What a handler knows about the request line it answers.
struct RequestContext {
  std::chrono::steady_clock::time_point admitted;  ///< line admitted
  std::chrono::steady_clock::time_point dequeued;  ///< a worker took it
  std::uint64_t conn = 0;  ///< connection serial, 1-based
  std::uint64_t seq = 0;   ///< request index on the connection
  /// Names the request to ConnectionServer::complete() when the handler
  /// answers it later; opaque.
  void* token = nullptr;
};

/// One request line in, one response line (without '\n') out: now, or
/// std::nullopt ("pending") with the response handed to
/// ConnectionServer::complete() later. On worker threads it runs
/// concurrently, so it must be thread-safe; on the reactor thread it
/// must not block.
using RequestHandler = std::function<std::optional<std::string>(
    const std::string& line, const RequestContext& context)>;

/// Sizes and timeouts are validated by the owning daemon's config.
struct ConnectionServerConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  std::size_t workers = 1;   ///< the model's i
  std::size_t capacity = 1;  ///< the model's K; must be >= workers
  /// Run the handler on the reactor thread, with no worker threads:
  /// `workers` then bounds the requests handled and not yet answered,
  /// and admitted lines past it wait in FIFO order.
  bool handle_on_reactor = false;
  /// Per-connection deadline: how long a connection may stay idle
  /// between request lines, and how long a response may wait for the
  /// client to read it, before the reactor closes the connection.
  double read_timeout_seconds = 10.0;
  /// Telemetry label; empty = "<process_kind>:<port>".
  std::string telemetry_process;
  std::string process_kind;
  /// Message of the 503 envelope a request line gets when it finds K
  /// requests in the system; called with the K it was judged against.
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
  std::uint64_t accepted = 0;   ///< TCP connections accepted
  std::uint64_t admitted = 0;   ///< request lines admitted to the queue
  std::uint64_t rejected = 0;   ///< request lines refused with 503 (full)
  std::uint64_t completed = 0;  ///< admitted requests fully handled
  std::size_t in_system = 0;      ///< requests queued or in service now
  std::size_t max_in_system = 0;  ///< high-water mark of in_system
  std::size_t workers = 0;   ///< current i: worker target, or the bound
                             ///< on requests in service on the reactor
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
  /// finish their current request (drain-aware shrink).
  std::size_t retiring = 0;
};

class ConnectionServer {
 public:
  ConnectionServer(ConnectionServerConfig config, RequestHandler handler);
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Binds, listens, and spawns the reactor + workers. Throws ModelError
  /// on socket failures (port in use, no permission) and if already
  /// started.
  void start();

  /// Graceful drain: stops accepting, serves every request in the
  /// system, closes every connection, joins all threads. Idempotent;
  /// safe to call from a signal watcher thread. Returns once every
  /// worker has exited.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }

  /// The bound TCP port (resolved after start() for port 0 configs).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] ConnectionStats stats() const;

  /// Online elastic resize; 0 keeps the current value of either knob.
  /// The admission bound swaps atomically with its 503 text; lowering K
  /// below the current occupancy evicts nothing. Grow spawns threads
  /// immediately; shrink retires excess workers before they take their
  /// NEXT request. Concurrent calls serialize (a handler may call
  /// this). Throws ModelError on invalid targets (workers < 1,
  /// capacity < workers), while draining, or before start().
  ReconfigureResult reconfigure(std::size_t workers, std::size_t capacity);

  // --- The reactor's services to its owner. post() is thread-safe; the
  // rest may only be called on the reactor thread: from the handler,
  // from a watcher, a timer or a posted task.

  using Clock = std::chrono::steady_clock;

  /// Runs `task` on the reactor thread, soon. Tasks posted before start()
  /// run once the reactor does; tasks still queued at stop() are dropped.
  void post(std::function<void()> task);

  /// Reports readiness of an owner's socket (epoll event bits).
  using Watcher = std::function<void(std::uint32_t events)>;
  /// Adds `fd` to the reactor's epoll set, level-triggered for `events`
  /// (EPOLLERR and EPOLLHUP are always reported). The watcher may
  /// unwatch and close its own fd. False when epoll refuses the fd.
  [[nodiscard]] bool watch(int fd, std::uint32_t events, Watcher watcher);
  /// Changes the events a watched fd reports.
  void rewatch(int fd, std::uint32_t events);
  /// Removes `fd` from the epoll set; the caller still owns and closes it.
  void unwatch(int fd);

  /// A pending timer; cancel() of a fired or cancelled one is a no-op.
  struct TimerId {
    Clock::time_point when;
    std::uint64_t serial = 0;
  };
  /// Runs `task` once, `seconds` from now. The reactor sleeps no longer
  /// than the next timer, so a timer fires within about a millisecond of
  /// its time, not at the deadline-sweep tick.
  TimerId after(double seconds, std::function<void()> task);
  void cancel(const TimerId& timer);

  /// Answers the pending request named by `token` (its RequestContext):
  /// writes `response` (without '\n') and frees its slot in service for
  /// the next queued line. Exactly once per pending request.
  void complete(void* token, std::string response);

 private:
  /// One accepted socket (defined in the .cpp). The reactor owns it;
  /// while one of its requests is queued or in service, or its worker
  /// holds it between requests, only that worker touches it, and the
  /// reactor takes it back from the handback list.
  struct Connection;

  /// An admitted request line on its way to a worker.
  struct Job {
    Connection* conn = nullptr;
    std::string line;
    RequestContext context;
  };

  /// A worker giving `conn` back to the reactor: with the bytes a short
  /// write left for the EPOLLOUT path; `failed` (the reactor closes it);
  /// `rearmed`, when the worker re-armed it for reading itself; or with
  /// none of these, for the reactor to frame what it has buffered.
  struct Handback {
    Connection* conn = nullptr;
    std::string unsent;
    bool failed = false;
    bool rearmed = false;
  };

  /// A worker waiting for work: idle on `cv`, or lingering on the
  /// connection it last answered until `poke_fd` is written. A job goes
  /// to the idle worker that last served its connection, else to the
  /// most recently idle one -- either way to warm caches and the
  /// allocator arena that already holds the connection's working set.
  struct Waiter {
    std::condition_variable cv;
    bool woken = false;
    std::uint64_t id = 0;
    int poke_fd = -1;  ///< eventfd that ends a linger
    bool poked = false;
  };

  void reactor_loop();
  void accept_ready();
  /// Reads what the socket holds; false when the connection must close.
  [[nodiscard]] bool read_ready(Connection& conn);
  /// Frames and judges buffered lines until one is admitted, a reply
  /// waits on EPOLLOUT, or the buffer holds no full line (then the
  /// connection is re-armed for reading). Closes the connection on EOF,
  /// an oversized line, or a failed write.
  void advance(Connection& conn);
  /// Writes a reactor-made reply. False when it did not all go out now:
  /// the rest waits on EPOLLOUT, or the connection was closed.
  [[nodiscard]] bool reply(Connection& conn, std::string bytes);
  /// After a response is written: true when the connection takes its
  /// next line; false (and closed) once the drain has begun.
  [[nodiscard]] bool keep_open(Connection& conn);
  void flush_ready(Connection& conn);
  /// Applies the workers' handbacks, notices the start of the drain, and
  /// runs the posted tasks. Runs before each batch of events is handled,
  /// so a connection's handback is always applied before its next line
  /// is read.
  void take_handbacks();
  void close_idle_past_deadline();
  [[nodiscard]] Clock::time_point deadline_from_now() const;
  void arm(Connection& conn, std::uint32_t events);
  void close_connection(Connection& conn);
  /// Reactor mode: runs the handler for an admitted line. True when it
  /// answered now and the connection is free for its next line; false
  /// when the request is pending, or the connection waits on EPOLLOUT or
  /// was closed.
  [[nodiscard]] bool handle_inline(Job job);
  /// Writes a handler's response to the request in service on `conn`
  /// and frees its slot. True when the connection is free for its next
  /// line; false when the reply waits on EPOLLOUT or the connection was
  /// closed.
  [[nodiscard]] bool answer(Connection& conn, std::string response);
  /// After a handler answered: the request leaves the system and, on the
  /// reactor, its slot in service.
  void settle();
  /// Reactor mode: hands queued lines to free slots in service, in FIFO
  /// order.
  void run_queued();
  /// Runs the timers that are due; returns the epoll_wait timeout in ms
  /// until the next one, at most `tick_millis`.
  [[nodiscard]] int run_due_timers(int tick_millis);
  void worker_loop();
  /// Runs the handler and writes the response. True when the response
  /// went out whole and the connection is idle, still held by the
  /// worker; false after handing it back to the reactor.
  [[nodiscard]] bool serve(Job& job);
  /// Keeps the connection the worker just answered while no other work
  /// is queued, for at most its idle deadline, and reads its next line
  /// straight off the socket: a request/response client's next line then
  /// costs no reactor wake-up and no hand-off. True with `job` refilled
  /// when that line was admitted here; false after handing the
  /// connection back (work was queued, the deadline passed, or the
  /// input needs the reactor).
  [[nodiscard]] bool linger(Job& job, Waiter& me);
  void hand_back(Handback back);
  /// Wakes idle worker `preferred`, else the most recently idle one;
  /// idle_ must not be empty. Caller holds mutex_.
  void wake_idle_locked(std::uint64_t preferred);
  /// Ends a lingering worker's hold; the caller has taken it off
  /// lingering_ and holds mutex_.
  void poke_locked(Waiter& waiter);
  /// Wakes every idle worker and pokes every lingering one, so they see
  /// a changed target or the drain. Caller holds mutex_.
  void wake_all_locked();
  /// Intercepts a `subscribe` request line before admission. Returns
  /// false when the line is not a subscribe; otherwise true, with the fd
  /// handed to the telemetry streamer (`reply` empty) or an error
  /// envelope to write in `reply`.
  [[nodiscard]] bool maybe_subscribe(int fd, const std::string& line,
                                     std::string& reply);
  /// Joins and erases worker threads that retired from a previous
  /// shrink (their ids are in exited_worker_ids_). Caller holds
  /// workers_mutex_.
  void reap_exited_workers();
  [[nodiscard]] std::string process_name() const;

  ConnectionServerConfig config_;
  RequestHandler handler_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: handbacks or posts waiting, or the drain
                      ///< began
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::mutex stop_mutex_;  // serializes start/stop callers
  bool started_ = false;   // guarded by stop_mutex_

  // Reactor-thread state: every open connection by fd, how many of them
  // are not idle (a request in the system, or a reply being flushed) --
  // the drain ends when that reaches zero -- and whether the reactor has
  // seen the drain begin.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::size_t busy_connections_ = 0;
  bool draining_seen_ = false;
  Clock::time_point next_deadline_sweep_;
  // The owner's watched fds, its timers by due time, and (reactor mode)
  // the requests handled and not yet answered.
  std::unordered_map<int, Watcher> watchers_;
  std::map<std::pair<Clock::time_point, std::uint64_t>, std::function<void()>>
      timers_;
  std::uint64_t timer_serial_ = 0;
  std::size_t in_service_ = 0;
  bool running_queued_ = false;

  // mutex_ guards idle_, worker_serial_, queue_, in_system_,
  // max_in_system_, handbacks_, posted_, lingering_, draining_, stopping_,
  // the pool/admission state (workers_target_, capacity_limit_,
  // active_workers_, reject_line_), and exited_worker_ids_.
  mutable std::mutex mutex_;
  std::vector<Waiter*> idle_;  ///< a stack: the back idled last
  std::vector<Waiter*> lingering_;  ///< the front has lingered longest
  std::uint64_t worker_serial_ = 0;
  std::deque<Job> queue_;
  std::size_t in_system_ = 0;
  std::vector<Handback> handbacks_;
  std::vector<std::function<void()>> posted_;
  std::size_t max_in_system_ = 0;
  bool draining_ = false;  ///< stop() began: no accepts, no reconfigure
  bool stopping_ = false;  ///< the reactor is done: idle workers exit
  std::size_t workers_target_ = 0;
  std::size_t capacity_limit_ = 0;
  std::size_t active_workers_ = 0;  ///< live worker loops (incl. retiring)
  std::string reject_line_;  ///< 503 envelope, rebuilt when K changes
  std::vector<std::thread::id> exited_worker_ids_;  ///< retired, joinable

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> reconfigures_{0};
  std::uint64_t conn_serial_ = 0;  ///< reactor thread only

  std::unique_ptr<TelemetryStreamer> telemetry_;

  // Thread handles last: every member above outlives the threads.
  std::thread reactor_;
  // workers_mutex_ guards the workers_ thread handles and serializes
  // reconfigure() callers. Never held while joining a RUNNING worker
  // (a worker executing a reconfigure RPC needs it) -- stop() moves
  // handles out before joining, and reap_exited_workers() only joins
  // threads that already left worker_loop().
  std::mutex workers_mutex_;
  std::vector<std::thread> workers_;
};

}  // namespace upa::serve
