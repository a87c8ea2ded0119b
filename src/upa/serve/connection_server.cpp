#include "upa/serve/connection_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::serve {

namespace {

/// Protocol guard: a request line longer than this is a client bug, not
/// a workload; the connection is dropped instead of buffering unbounded.
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Events one epoll_wait returns at most, and connections one listen
/// wake-up accepts at most (so a connect storm cannot starve handbacks).
constexpr int kMaxEvents = 64;
constexpr int kMaxAcceptsPerWake = 64;

/// Tags the epoll data of an owner's watched fd; a connection's data is
/// its bare fd.
constexpr std::uint64_t kWatchedFd = std::uint64_t{1} << 32;

std::string envelope_line(const Json& id, int code,
                          const std::string& message) {
  return make_error_response(id, code, message).dump() + "\n";
}

/// Adds one to an eventfd counter, waking whoever polls it.
void notify_eventfd(int fd) {
  const std::uint64_t one = 1;
  (void)::write(fd, &one, sizeof one);
}

void set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, blocking ? flags & ~O_NONBLOCK : flags | O_NONBLOCK);
}

/// Writes as much of `data` as a non-blocking socket takes now. Returns
/// the bytes written, or npos when the peer is gone.
std::size_t send_some(int fd, const std::string& data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return std::string::npos;
    }
  }
  return offset;
}

}  // namespace

/// Owned by the reactor's connection map. While a request of it is
/// queued or in service, or its worker holds it between requests (`busy`
/// with `out` empty), only that worker touches it; the reactor takes it
/// back from the handback list.
struct ConnectionServer::Connection {
  int fd = -1;
  std::uint64_t serial = 0;
  std::uint64_t requests = 0;  ///< lines admitted so far (the next seq)
  std::uint64_t worker = 0;    ///< id of the worker that served it last
  std::string in;              ///< bytes read, not yet framed
  std::string out;             ///< reply bytes the socket has not taken
  bool busy = false;           ///< a request in the system, or `out` left
  bool eof = false;            ///< the peer shut its write side
  Clock::time_point deadline;  ///< idle / send deadline
};

void set_io_timeouts(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                                       tv.tv_sec)) *
                                        1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

ConnectionServer::ConnectionServer(ConnectionServerConfig config,
                                   RequestHandler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  UPA_REQUIRE(handler_ && config_.reject_message &&
                  (config_.tracer == nullptr ||
                   config_.span_mutex != nullptr),
              "ConnectionServer needs a handler, a reject message, and a "
              "span mutex when a tracer is set");
  workers_target_ = config_.workers;
  capacity_limit_ = config_.capacity;
  reject_line_ = envelope_line(Json(), ErrorCode::kQueueFull,
                               config_.reject_message(capacity_limit_));
}

ConnectionServer::~ConnectionServer() { stop(); }

std::string ConnectionServer::process_name() const {
  return config_.telemetry_process.empty()
             ? config_.process_kind + ":" + std::to_string(port_)
             : config_.telemetry_process;
}

void ConnectionServer::start() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  UPA_REQUIRE(!started_, "start called twice");

  // SOCK_CLOEXEC: a fork+exec elsewhere in the process (the farm
  // orchestrator restarting a replica) must not leak this socket into
  // the child, where a lingering duplicate would keep peers from ever
  // seeing EOF.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                       0);
  UPA_REQUIRE(listen_fd_ >= 0,
              std::string("socket() failed: ") + std::strerror(errno));

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  std::string failure;
  int wake_fd = -1;
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    failure = "bind_address is not an IPv4 address: " + config_.bind_address;
  } else if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof addr) != 0) {
    failure = "bind(" + config_.bind_address + ":" +
              std::to_string(config_.port) +
              ") failed: " + std::strerror(errno);
  } else if (::listen(listen_fd_, 256) != 0) {
    failure = std::string("listen() failed: ") + std::strerror(errno);
  } else if ((epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC)) < 0 ||
             (wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) < 0) {
    failure = std::string("epoll/eventfd setup failed: ") +
              std::strerror(errno);
  } else {
    // Level-triggered: the listen socket and the wake-up stay armed.
    for (const int fd : {listen_fd_, wake_fd}) {
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
        failure = std::string("epoll_ctl failed: ") + std::strerror(errno);
      }
    }
  }
  if (!failure.empty()) {
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    throw common::ModelError(failure);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  std::size_t initial_workers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // post() reads the wake fd under mutex_, from any thread.
    wake_fd_ = wake_fd;
    draining_ = false;
    stopping_ = false;
    queue_.clear();
    handbacks_.clear();
    in_system_ = 0;
    exited_worker_ids_.clear();
    // A restart resumes at the last configured targets, which may have
    // been retargeted by reconfigure() since construction. On the
    // reactor, i is a bound on requests in service, not threads.
    initial_workers = config_.handle_on_reactor ? 0 : workers_target_;
    active_workers_ = initial_workers;
  }
  busy_connections_ = 0;
  in_service_ = 0;
  draining_seen_ = false;
  next_deadline_sweep_ = Clock::now();

  TelemetryStreamerOptions telemetry;
  telemetry.process = process_name();
  telemetry.io_timeout_seconds = config_.read_timeout_seconds;
  telemetry.fill_metrics = config_.fill_metrics;
  telemetry.copy_spans = [this](std::size_t& cursor) {
    std::vector<obs::Span> out;
    if (config_.tracer == nullptr) return out;
    std::lock_guard<std::mutex> lock(*config_.span_mutex);
    const std::vector<obs::Span>& spans = config_.tracer->spans();
    for (; cursor < spans.size(); ++cursor) out.push_back(spans[cursor]);
    return out;
  };
  telemetry.dropped_spans = [this]() -> std::uint64_t {
    if (config_.tracer == nullptr) return 0;
    std::lock_guard<std::mutex> lock(*config_.span_mutex);
    return config_.tracer->dropped();
  };
  telemetry_ = std::make_unique<TelemetryStreamer>(std::move(telemetry));

  started_ = true;
  running_.store(true);

  reactor_ = std::thread([this] { reactor_loop(); });
  std::lock_guard<std::mutex> pool_lock(workers_mutex_);
  workers_.reserve(initial_workers);
  for (std::size_t w = 0; w < initial_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ConnectionServer::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    wake_all_locked();  // lingering workers give their connections back
  }
  // The reactor stops accepting, serves what is in the system, closes
  // every connection, and returns.
  notify_eventfd(wake_fd_);
  if (reactor_.joinable()) reactor_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    wake_all_locked();
  }
  // Pop-loop join: workers_mutex_ is never held while joining a running
  // worker, because a worker applying a reconfigure RPC needs it. Any
  // thread a racing reconfigure spawns is pushed under workers_mutex_
  // while its spawning worker is still alive -- hence still being
  // joined here -- so this loop always finds every handle.
  for (;;) {
    std::thread victim;
    {
      std::lock_guard<std::mutex> pool_lock(workers_mutex_);
      if (workers_.empty()) break;
      victim = std::move(workers_.back());
      workers_.pop_back();
    }
    if (victim.joinable()) victim.join();
  }
  // The owner's watches, timers and unrun tasks die with the reactor.
  watchers_.clear();
  timers_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exited_worker_ids_.clear();
    active_workers_ = 0;
    posted_.clear();
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (telemetry_ != nullptr) telemetry_->stop();
  for (int* fd : {&listen_fd_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  started_ = false;
  running_.store(false);
}

ConnectionStats ConnectionServer::stats() const {
  ConnectionStats s;
  s.accepted = accepted_.load();
  s.admitted = admitted_.load();
  s.rejected = rejected_.load();
  s.completed = completed_.load();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.in_system = in_system_;
    s.max_in_system = max_in_system_;
    s.workers = workers_target_;
    s.capacity = capacity_limit_;
    s.retiring = active_workers_ > workers_target_
                     ? active_workers_ - workers_target_
                     : 0;
  }
  s.reconfigures = reconfigures_.load();
  return s;
}

ReconfigureResult ConnectionServer::reconfigure(std::size_t workers,
                                                std::size_t capacity) {
  // The owner's message callback runs before any lock is taken.
  const std::string reject_line =
      capacity == 0 ? std::string()
                    : envelope_line(Json(), ErrorCode::kQueueFull,
                                    config_.reject_message(capacity));
  std::lock_guard<std::mutex> pool_lock(workers_mutex_);
  ReconfigureResult r;
  std::size_t spawn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UPA_REQUIRE(running_.load(), "reconfigure requires a started server");
    UPA_REQUIRE(!draining_, "server is draining; reconfigure refused");
    const std::size_t new_workers =
        workers == 0 ? workers_target_ : workers;
    const std::size_t new_capacity =
        capacity == 0 ? capacity_limit_ : capacity;
    UPA_REQUIRE(new_workers >= 1, "reconfigure: workers must be >= 1");
    UPA_REQUIRE(new_capacity >= new_workers,
                "reconfigure: capacity must be >= workers (K >= i)");
    r.previous_workers = workers_target_;
    r.previous_capacity = capacity_limit_;
    r.workers = new_workers;
    r.capacity = new_capacity;
    if (new_capacity != capacity_limit_) {
      // The admission bound swaps atomically with the 503 text: the
      // reactor reads both under this mutex, so no request line is ever
      // judged against one K and told about another. Lowering K below
      // the current occupancy evicts nothing -- the bound applies at
      // admission only and occupancy decays to it as work completes.
      capacity_limit_ = new_capacity;
      reject_line_ = reject_line;
    }
    workers_target_ = new_workers;
    if (!config_.handle_on_reactor && active_workers_ < workers_target_) {
      // Pre-credit the spawns under mutex_ so a concurrent shrink
      // computed against active_workers_ never double-retires.
      spawn = workers_target_ - active_workers_;
      active_workers_ = workers_target_;
    }
    r.retiring = active_workers_ > workers_target_
                     ? active_workers_ - workers_target_
                     : 0;
  }
  reap_exited_workers();
  for (std::size_t w = 0; w < spawn; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  reconfigures_.fetch_add(1);
  // Shrinks need idle and lingering workers to notice the lowered
  // target; grows need a backlog handed to the fresh threads -- or, on
  // the reactor, to the new slots in service -- at once.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    wake_all_locked();
  }
  if (config_.handle_on_reactor) post([this] { run_queued(); });
  return r;
}

void ConnectionServer::reap_exited_workers() {
  std::vector<std::thread::id> exited;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exited.swap(exited_worker_ids_);
  }
  // These threads already returned from worker_loop(), so joining them
  // under workers_mutex_ cannot wait on anything that needs it.
  for (const std::thread::id id : exited) {
    for (auto it = workers_.begin(); it != workers_.end(); ++it) {
      if (it->get_id() == id) {
        it->join();
        workers_.erase(it);
        break;
      }
    }
  }
}

void ConnectionServer::reactor_loop() {
  // Deadlines are swept every tick, so a connection outlives its deadline
  // by at most one tick.
  const int tick_millis = static_cast<int>(std::clamp(
      config_.read_timeout_seconds * 250.0, 1.0, 100.0));
  epoll_event events[kMaxEvents];
  bool final_sweep = false;
  int timeout_millis = tick_millis;
  for (;;) {
    const int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                                   final_sweep ? 0 : timeout_millis);
    take_handbacks();
    for (int e = 0; e < ready; ++e) {
      if (const std::uint64_t data = events[e].data.u64;
          (data & kWatchedFd) != 0) {
        const auto it = watchers_.find(static_cast<int>(data - kWatchedFd));
        if (it == watchers_.end()) continue;
        // A copy: the watcher may unwatch its own fd.
        const Watcher watcher = it->second;
        watcher(events[e].events);
        continue;
      }
      const int fd = events[e].data.fd;
      if (fd == listen_fd_) {
        if (!draining_seen_) accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t count = 0;
        (void)::read(wake_fd_, &count, sizeof count);
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if (!conn.out.empty()) {
        flush_ready(conn);
      } else if (read_ready(conn)) {
        conn.deadline = deadline_from_now();
        advance(conn);
      } else {
        close_connection(conn);
      }
    }
    // The next wait ends at the next timer, not at the tick.
    timeout_millis = run_due_timers(tick_millis);
    const Clock::time_point now = Clock::now();
    if (now >= next_deadline_sweep_) {
      close_idle_past_deadline();
      next_deadline_sweep_ = now + std::chrono::milliseconds(tick_millis);
    }
    // The drain ends when nothing is in the system and one last
    // non-blocking poll finds no line to admit; lines that arrive while
    // requests are still in flight are served.
    if (draining_seen_ && busy_connections_ == 0) {
      if (final_sweep) break;
      final_sweep = true;
    } else {
      final_sweep = false;
    }
  }
  while (!connections_.empty()) {
    close_connection(*connections_.begin()->second);
  }
}

void ConnectionServer::accept_ready() {
  for (int k = 0; k < kMaxAcceptsPerWake; ++k) {
    // SOCK_CLOEXEC for the same reason as the listen socket.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: the backlog is empty
    }
    accepted_.fetch_add(1);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->serial = ++conn_serial_;
    conn->deadline = deadline_from_now();
    epoll_event event{};
    event.events = EPOLLIN | EPOLLONESHOT;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
  }
}

bool ConnectionServer::read_ready(Connection& conn) {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(n));
      // A short read drained the socket; the re-armed oneshot reports
      // anything that arrives later.
      if (static_cast<std::size_t>(n) < sizeof chunk ||
          conn.in.size() > kMaxLineBytes) {
        return true;
      }
    } else if (n == 0) {
      conn.eof = true;
      return true;
    } else if (errno == EINTR) {
      continue;
    } else {
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
}

void ConnectionServer::advance(Connection& conn) {
  for (;;) {
    const std::size_t newline = conn.in.find('\n');
    if (newline == std::string::npos) {
      if (conn.eof || conn.in.size() > kMaxLineBytes) {
        close_connection(conn);
      } else {
        arm(conn, EPOLLIN);
      }
      return;
    }
    std::string line(conn.in, 0, newline);
    conn.in.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    std::string bytes;
    if (maybe_subscribe(conn.fd, line, bytes)) {
      if (bytes.empty()) {
        // The telemetry streamer owns the fd now.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        connections_.erase(conn.fd);
        return;
      }
      if (!reply(conn, std::move(bytes)) || !keep_open(conn)) return;
      continue;
    }

    // The admission bound and its 503 text are reconfigurable at
    // runtime, so both are read under mutex_ per line -- the rejection
    // a client sees always names the K it was judged against.
    bool admitted = false;
    bool handle_now = false;
    Job job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (in_system_ < capacity_limit_) {
        ++in_system_;
        max_in_system_ = std::max(max_in_system_, in_system_);
        job.conn = &conn;
        job.line = std::move(line);
        job.context.admitted = Clock::now();
        job.context.conn = conn.serial;
        job.context.seq = conn.requests++;
        admitted = true;
        if (config_.handle_on_reactor) {
          // A free slot in service takes it now; otherwise it waits its
          // turn behind the lines queued before it.
          handle_now = in_service_ < workers_target_ && queue_.empty();
          if (handle_now) {
            ++in_service_;
          } else {
            queue_.push_back(std::move(job));
          }
        } else {
          queue_.push_back(std::move(job));
          // An idle worker takes it; failing that, the worker that has
          // held a connection longest is poked off it; failing both,
          // the next worker to finish picks it up.
          if (!idle_.empty()) {
            wake_idle_locked(conn.worker);
          } else if (!lingering_.empty()) {
            Waiter* oldest = lingering_.front();
            lingering_.erase(lingering_.begin());
            poke_locked(*oldest);
          }
        }
      } else {
        bytes = reject_line_;
      }
    }
    if (admitted) {
      // From here the job's worker, or its pending handler, owns the
      // connection's shared fields.
      admitted_.fetch_add(1);
      conn.busy = true;
      ++busy_connections_;
      if (handle_now && handle_inline(std::move(job))) continue;
      return;
    }
    rejected_.fetch_add(1);
    if (!reply(conn, std::move(bytes)) || !keep_open(conn)) return;
  }
}

bool ConnectionServer::reply(Connection& conn, std::string bytes) {
  const std::size_t sent = send_some(conn.fd, bytes);
  if (sent == std::string::npos) {
    close_connection(conn);
    return false;
  }
  if (sent < bytes.size()) {
    conn.out = bytes.substr(sent);
    conn.busy = true;
    ++busy_connections_;
    arm(conn, EPOLLOUT);
    return false;
  }
  return true;
}

bool ConnectionServer::keep_open(Connection& conn) {
  if (!draining_seen_) return true;
  close_connection(conn);
  return false;
}

void ConnectionServer::flush_ready(Connection& conn) {
  const std::size_t sent = send_some(conn.fd, conn.out);
  if (sent == std::string::npos) {
    close_connection(conn);
    return;
  }
  conn.out.erase(0, sent);
  conn.deadline = deadline_from_now();
  if (!conn.out.empty()) {
    arm(conn, EPOLLOUT);
    return;
  }
  conn.busy = false;
  --busy_connections_;
  if (keep_open(conn)) advance(conn);
}

void ConnectionServer::take_handbacks() {
  std::vector<Handback> backs;
  std::vector<std::function<void()>> posted;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    backs.swap(handbacks_);
    posted.swap(posted_);
    draining = draining_;
  }
  if (draining && !draining_seen_) {
    draining_seen_ = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  const Clock::time_point deadline = deadline_from_now();
  for (Handback& back : backs) {
    Connection& conn = *back.conn;
    conn.deadline = deadline;
    if (back.rearmed) {
      conn.busy = false;
      --busy_connections_;
    } else if (back.failed) {
      close_connection(conn);
    } else if (!back.unsent.empty()) {
      conn.out = std::move(back.unsent);
      arm(conn, EPOLLOUT);
    } else {
      conn.busy = false;
      --busy_connections_;
      if (keep_open(conn)) advance(conn);
    }
  }
  for (std::function<void()>& task : posted) task();
}

void ConnectionServer::close_idle_past_deadline() {
  const Clock::time_point now = Clock::now();
  std::vector<Connection*> expired;
  for (const auto& [fd, conn] : connections_) {
    // A request in service has no deadline; its handler bounds it.
    const bool in_service = conn->busy && conn->out.empty();
    if (!in_service && now > conn->deadline) expired.push_back(conn.get());
  }
  for (Connection* conn : expired) close_connection(*conn);
}

ConnectionServer::Clock::time_point ConnectionServer::deadline_from_now()
    const {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                config_.read_timeout_seconds));
}

void ConnectionServer::arm(Connection& conn, std::uint32_t events) {
  epoll_event event{};
  event.events = events | EPOLLONESHOT;
  event.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event) != 0) {
    close_connection(conn);
  }
}

void ConnectionServer::close_connection(Connection& conn) {
  if (conn.busy) --busy_connections_;
  const int fd = conn.fd;
  // Explicit removal: a forked child briefly holding a duplicate of the
  // fd would otherwise keep it registered after close().
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);
}

void ConnectionServer::worker_loop() {
  Waiter me;
  // Without its eventfd a worker just never holds a connection.
  me.poke_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    me.id = ++worker_serial_;
  }
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (queue_.empty() && !stopping_ &&
             active_workers_ <= workers_target_) {
        me.woken = false;
        idle_.push_back(&me);
        me.cv.wait(lock, [&me] { return me.woken; });
      }
      // Drain-aware shrink: the retire check sits between requests, so
      // a worker only ever leaves with no job in hand. The id is
      // recorded for reap_exited_workers(); the handle stays in workers_
      // until a later reconfigure or stop() joins it. Workers leave at
      // stop() only after the reactor has drained the system.
      if ((!stopping_ && active_workers_ > workers_target_) ||
          queue_.empty()) {
        --active_workers_;
        exited_worker_ids_.push_back(std::this_thread::get_id());
        if (me.poke_fd >= 0) ::close(me.poke_fd);
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    do {
      job.conn->worker = me.id;
    } while (serve(job) && linger(job, me));
  }
}

bool ConnectionServer::serve(Job& job) {
  job.context.dequeued = Clock::now();
  job.context.token = job.conn;
  std::optional<std::string> answer = handler_(job.line, job.context);
  if (!answer) return false;  // pending: complete() answers on the reactor
  std::string& response = *answer;
  response += '\n';
  Connection& conn = *job.conn;
  const std::size_t sent = send_some(conn.fd, response);
  settle();
  if (sent == response.size() && !conn.eof &&
      conn.in.find('\n') == std::string::npos) {
    return true;  // idle: the worker lingers on it
  }
  Handback back;
  back.conn = &conn;
  if (sent == std::string::npos) {
    back.failed = true;
  } else if (sent < response.size()) {
    back.unsent = response.substr(sent);
  }
  hand_back(std::move(back));
  return false;
}

bool ConnectionServer::linger(Job& job, Waiter& me) {
  Connection& conn = *job.conn;
  const Clock::time_point deadline = deadline_from_now();
  bool expired = false;
  bool alive = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!queue_.empty() || draining_ || stopping_ ||
        active_workers_ > workers_target_ || me.poke_fd < 0) {
      break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      expired = true;  // idle past its deadline: the reactor closes it
      break;
    }
    me.poked = false;
    lingering_.push_back(&me);
    lock.unlock();
    pollfd fds[2] = {{conn.fd, POLLIN, 0}, {me.poke_fd, POLLIN, 0}};
    const timespec timeout{
        static_cast<time_t>(left.count() / 1000000000),
        static_cast<long>(left.count() % 1000000000)};
    const int ready = ::ppoll(fds, 2, &timeout, nullptr);
    const bool spoke = ready > 0 && fds[0].revents != 0;
    alive = !spoke || read_ready(conn);
    lock.lock();
    if (me.poked) {
      // The poker took this worker off lingering_ and wants it free.
      std::uint64_t count = 0;
      (void)::read(me.poke_fd, &count, sizeof count);
      break;
    }
    lingering_.erase(std::find(lingering_.begin(), lingering_.end(), &me));
    if (!alive) break;
    if (!spoke) continue;  // timed out: the loop top sees the deadline
    // The connection spoke. A whole non-blank line that finds room and
    // no queue ahead of it is served right here; anything else (EOF, a
    // partial line, a subscribe, a queue, a full system) goes back to
    // the reactor, which frames and judges the buffer itself.
    const std::size_t newline = conn.in.find('\n');
    if (newline != std::string::npos && queue_.empty() &&
        in_system_ < capacity_limit_ && !draining_) {
      std::string line(conn.in, 0, newline);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty() && line.find("subscribe") == std::string::npos) {
        conn.in.erase(0, newline + 1);
        ++in_system_;
        max_in_system_ = std::max(max_in_system_, in_system_);
        job.line = std::move(line);
        job.context.admitted = Clock::now();
        job.context.seq = conn.requests++;
        admitted_.fetch_add(1);
        return true;
      }
    }
    break;
  }
  lock.unlock();
  Handback back;
  back.conn = &conn;
  back.failed = expired || !alive;
  // Bytes already read, or an EOF, would never raise EPOLLIN again.
  back.rearmed = !back.failed && conn.in.empty() && !conn.eof;
  hand_back(std::move(back));
  return false;
}

bool ConnectionServer::handle_inline(Job job) {
  Connection& conn = *job.conn;
  job.context.dequeued = Clock::now();
  job.context.token = &conn;
  std::optional<std::string> response = handler_(job.line, job.context);
  if (!response) return false;  // pending: complete() answers it
  return answer(conn, std::move(*response));
}

void ConnectionServer::complete(void* token, std::string response) {
  Connection& conn = *static_cast<Connection*>(token);
  if (answer(conn, std::move(response))) advance(conn);
}

bool ConnectionServer::answer(Connection& conn, std::string response) {
  settle();
  conn.busy = false;
  --busy_connections_;
  conn.deadline = deadline_from_now();
  response.push_back('\n');
  const bool open = reply(conn, std::move(response)) && keep_open(conn);
  // The freed slot goes to the lines queued before this connection's
  // next one.
  run_queued();
  return open;
}

void ConnectionServer::settle() {
  completed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  --in_system_;
  if (config_.handle_on_reactor) --in_service_;
}

void ConnectionServer::run_queued() {
  // Re-entered from a handler that answered at once: the outer call is
  // still draining the queue. Worker threads drain their own queue.
  if (!config_.handle_on_reactor || running_queued_) return;
  running_queued_ = true;
  for (;;) {
    Job job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty() || in_service_ >= workers_target_) break;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_service_;
    }
    Connection& conn = *job.conn;
    if (handle_inline(std::move(job))) advance(conn);
  }
  running_queued_ = false;
}

void ConnectionServer::post(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mutex_);
  posted_.push_back(std::move(task));
  if (wake_fd_ >= 0) notify_eventfd(wake_fd_);
}

bool ConnectionServer::watch(int fd, std::uint32_t events, Watcher watcher) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = kWatchedFd | static_cast<std::uint32_t>(fd);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) return false;
  watchers_.insert_or_assign(fd, std::move(watcher));
  return true;
}

void ConnectionServer::rewatch(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = kWatchedFd | static_cast<std::uint32_t>(fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
}

void ConnectionServer::unwatch(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  watchers_.erase(fd);
}

ConnectionServer::TimerId ConnectionServer::after(
    double seconds, std::function<void()> task) {
  const TimerId id{Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)),
                   ++timer_serial_};
  timers_.emplace(std::make_pair(id.when, id.serial), std::move(task));
  return id;
}

void ConnectionServer::cancel(const TimerId& timer) {
  timers_.erase(std::make_pair(timer.when, timer.serial));
}

int ConnectionServer::run_due_timers(int tick_millis) {
  while (!timers_.empty()) {
    const auto first = timers_.begin();
    const Clock::time_point now = Clock::now();
    if (first->first.first > now) {
      const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
          first->first.first - now);
      return static_cast<int>(
          std::min<std::int64_t>(wait.count(), tick_millis));
    }
    const std::function<void()> task = std::move(first->second);
    timers_.erase(first);
    task();
  }
  return tick_millis;
}

void ConnectionServer::wake_idle_locked(std::uint64_t preferred) {
  auto it = std::find_if(idle_.begin(), idle_.end(), [&](Waiter* w) {
    return w->id == preferred;
  });
  if (it == idle_.end()) it = std::prev(idle_.end());
  Waiter* waiter = *it;
  idle_.erase(it);
  // Notified under mutex_: a woken worker may leave, destroying its
  // Waiter, as soon as the mutex is released.
  waiter->woken = true;
  waiter->cv.notify_one();
}

void ConnectionServer::poke_locked(Waiter& waiter) {
  // Written under mutex_: the worker closes its eventfd only after it
  // has left lingering_, which it cannot do while the mutex is held.
  waiter.poked = true;
  notify_eventfd(waiter.poke_fd);
}

void ConnectionServer::wake_all_locked() {
  for (Waiter* waiter : idle_) {
    waiter->woken = true;
    waiter->cv.notify_one();
  }
  idle_.clear();
  for (Waiter* waiter : lingering_) poke_locked(*waiter);
  lingering_.clear();
}

void ConnectionServer::hand_back(Handback back) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An idle connection is re-armed for reading right here, so the
    // reactor is not woken for it; the handback only tells it the
    // connection is idle again. Both happen under mutex_, which the
    // reactor takes before it handles any event, so it applies the
    // handback before it can see the connection's next line, and cannot
    // close the connection while the re-arm is under way. Once the drain
    // has begun the reactor closes the connection instead.
    back.rearmed = back.rearmed && !draining_;
    if (back.rearmed) {
      epoll_event event{};
      event.events = EPOLLIN | EPOLLONESHOT;
      event.data.fd = back.conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, back.conn->fd, &event);
    }
    wake = !back.rearmed;
    handbacks_.push_back(std::move(back));
  }
  if (wake) notify_eventfd(wake_fd_);
}

bool ConnectionServer::maybe_subscribe(int fd, const std::string& line,
                                       std::string& reply) {
  // Cheap pre-filter: almost every request line lacks the literal and
  // skips the extra parse entirely.
  if (line.find("subscribe") == std::string::npos) return false;
  Json request;
  try {
    request = parse_json(line);
  } catch (const std::exception&) {
    return false;  // the handler produces the canonical 400
  }
  if (!request.is_object()) return false;
  const Json* method = request.find("method");
  if (method == nullptr || !method->is_string() ||
      method->as_string() != "subscribe") {
    return false;
  }
  const Json* id_member = request.find("id");
  const Json id = id_member != nullptr ? *id_member : Json();

  double interval_ms = 500.0;
  const Json* params = request.find("params");
  if (params != nullptr && !params->is_object() && !params->is_null()) {
    reply = envelope_line(id, ErrorCode::kBadRequest,
                          "'params' must be an object when present");
    return true;
  }
  if (params != nullptr && params->is_object()) {
    if (const Json* v = params->find("interval_ms"); v != nullptr) {
      if (!v->is_number() || !(v->as_number() >= 10.0) ||
          !(v->as_number() <= 60000.0)) {
        reply = envelope_line(id, ErrorCode::kBadRequest,
                              "param 'interval_ms' must be a number in "
                              "[10, 60000]");
        return true;
      }
      interval_ms = v->as_number();
    }
  }

  Json result = Json::object();
  result.set("subscribed", Json(true));
  result.set("process", Json(process_name()));
  result.set("interval_ms", Json(interval_ms));
  const std::string ack = make_result_response(id, std::move(result)).dump();
  // The streamer writes with blocking sends under its own send timeout.
  set_blocking(fd, true);
  if (telemetry_ != nullptr &&
      telemetry_->add_subscriber(fd, interval_ms / 1000.0, ack)) {
    return true;
  }
  set_blocking(fd, false);
  reply = envelope_line(id, ErrorCode::kQueueFull,
                        "telemetry subscriber limit reached");
  return true;
}

}  // namespace upa::serve
