#include "upa/serve/connection_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

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

/// How often the acceptor re-checks the stop flag while idle.
constexpr int kAcceptPollMillis = 100;

std::string envelope_line(const Json& id, int code,
                          const std::string& message) {
  return make_error_response(id, code, message).dump() + "\n";
}

}  // namespace

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

bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer, 0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (buffer.size() > kMaxLineBytes) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF, timeout (EAGAIN), or hard error
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
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
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  UPA_REQUIRE(listen_fd_ >= 0,
              std::string("socket() failed: ") + std::strerror(errno));

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  std::string failure;
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
  }
  if (!failure.empty()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw common::ModelError(failure);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  std::size_t initial_workers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
    queue_.clear();
    in_system_ = 0;
    exited_worker_ids_.clear();
    // A restart resumes at the last configured targets, which may have
    // been retargeted by reconfigure() since construction.
    active_workers_ = workers_target_;
    initial_workers = workers_target_;
  }
  accept_stop_.store(false);

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

  acceptor_ = std::thread([this] { acceptor_loop(); });
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
    stopping_ = true;
    // Wake connections parked in recv between requests: SHUT_RD makes
    // their recv return 0 at once, so the drain never waits out a read
    // timeout on an idle kept-alive client. Safe under mutex_: a worker
    // closes an fd only after unparking it.
    for (const int fd : parked_fds_) ::shutdown(fd, SHUT_RD);
  }
  accept_stop_.store(true);
  work_ready_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exited_worker_ids_.clear();
    active_workers_ = 0;
  }
  if (telemetry_ != nullptr) telemetry_->stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
  running_.store(false);
}

ConnectionStats ConnectionServer::stats() const {
  ConnectionStats s;
  s.accepted = accepted_.load();
  s.rejected = rejected_.load();
  s.completed = completed_.load();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.in_system = in_system_;
    s.workers = workers_target_;
    s.capacity = capacity_limit_;
    s.retiring = active_workers_ > workers_target_
                     ? active_workers_ - workers_target_
                     : 0;
  }
  s.max_in_system = max_in_system_.load();
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
    UPA_REQUIRE(!stopping_, "server is draining; reconfigure refused");
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
      // acceptor reads both under this mutex, so no connection is ever
      // judged against one K and told about another. Lowering K below
      // the current occupancy evicts nothing -- the bound applies at
      // admission only and occupancy decays to it as work completes.
      capacity_limit_ = new_capacity;
      reject_line_ = reject_line;
    }
    workers_target_ = new_workers;
    if (active_workers_ < workers_target_) {
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
  // Shrinks need idle workers to notice the lowered target; grows need
  // a backlog handed to the fresh threads at once.
  work_ready_.notify_all();
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

void ConnectionServer::acceptor_loop() {
  while (!accept_stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMillis);
    if (ready <= 0) continue;  // timeout tick or EINTR: re-check stop flag
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;

    // The admission bound and its 503 text are reconfigurable at
    // runtime, so both are read under mutex_ per connection -- the
    // rejection a client sees always names the K it was judged against.
    bool admitted = false;
    std::string reject_line;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_ && in_system_ < capacity_limit_) {
        ++in_system_;
        std::size_t seen = max_in_system_.load();
        while (in_system_ > seen &&
               !max_in_system_.compare_exchange_weak(seen, in_system_)) {
        }
        queue_.push_back(Job{fd, Clock::now()});
        admitted = true;
      } else {
        reject_line = reject_line_;
      }
    }
    if (admitted) {
      accepted_.fetch_add(1);
      work_ready_.notify_one();
      continue;
    }

    // Reject without ever blocking the accept loop: the socket is made
    // non-blocking, one short send is attempted (a fresh connection's
    // send buffer always has room for ~100 bytes; if not, the client
    // sees the close alone), and the connection is dropped unread.
    rejected_.fetch_add(1);
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    (void)::send(fd, reject_line.data(), reject_line.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
}

void ConnectionServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] {
        return !queue_.empty() || stopping_ ||
               active_workers_ > workers_target_;
      });
      // Drain-aware shrink: the retire check sits between connections,
      // so a worker only ever leaves with no job in hand. The id is
      // recorded for reap_exited_workers(); the handle stays in workers_
      // until a later reconfigure or stop() joins it. A stopping worker
      // leaves once the queue is drained.
      if ((!stopping_ && active_workers_ > workers_target_) ||
          queue_.empty()) {
        --active_workers_;
        exited_worker_ids_.push_back(std::this_thread::get_id());
        return;
      }
      job = queue_.front();
      queue_.pop_front();
    }
    handle_connection(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_system_;
    }
    completed_.fetch_add(1);
  }
}

void ConnectionServer::handle_connection(const Job& job) {
  set_io_timeouts(job.fd, config_.read_timeout_seconds);
  RequestContext context;
  context.admitted = job.admitted;
  context.conn = conn_serial_.fetch_add(1) + 1;
  std::string buffer;
  bool first_read = true;
  for (;;) {
    std::string line;
    // The first read is always waited for -- its connection was
    // admitted -- but every later one (after a blank line too) is parked
    // so stop() can wake the blocking recv and end the drain at once.
    if (first_read) {
      if (!read_line(job.fd, buffer, line)) break;
    } else {
      if (!park_for_next_request(job.fd)) break;
      const bool got = read_line(job.fd, buffer, line);
      unpark(job.fd);
      if (!got) break;
    }
    context.first_request = first_read;
    first_read = false;
    if (line.empty()) continue;
    switch (maybe_subscribe(job.fd, line)) {
      case 1:
        // The telemetry streamer owns the fd now; the worker slot is
        // released when this returns (a long-lived subscriber must not
        // consume one of the model's K admission slots).
        return;
      case 2:
        continue;
      default:
        break;
    }
    context.line_read = Clock::now();
    const std::string response = handler_(line, context);
    ++context.seq;
    if (!send_all(job.fd, response + "\n")) break;
  }
  ::close(job.fd);
}

int ConnectionServer::maybe_subscribe(int fd, const std::string& line) {
  // Cheap pre-filter: almost every request line lacks the literal and
  // skips the extra parse entirely.
  if (line.find("subscribe") == std::string::npos) return 0;
  Json request;
  try {
    request = parse_json(line);
  } catch (const std::exception&) {
    return 0;  // the handler produces the canonical 400
  }
  if (!request.is_object()) return 0;
  const Json* method = request.find("method");
  if (method == nullptr || !method->is_string() ||
      method->as_string() != "subscribe") {
    return 0;
  }
  const Json* id_member = request.find("id");
  const Json id = id_member != nullptr ? *id_member : Json();

  double interval_ms = 500.0;
  const Json* params = request.find("params");
  if (params != nullptr && !params->is_object() && !params->is_null()) {
    (void)send_all(fd, envelope_line(id, ErrorCode::kBadRequest,
                                     "'params' must be an object when "
                                     "present"));
    return 2;
  }
  if (params != nullptr && params->is_object()) {
    if (const Json* v = params->find("interval_ms"); v != nullptr) {
      if (!v->is_number() || !(v->as_number() >= 10.0) ||
          !(v->as_number() <= 60000.0)) {
        (void)send_all(fd, envelope_line(id, ErrorCode::kBadRequest,
                                         "param 'interval_ms' must be a "
                                         "number in [10, 60000]"));
        return 2;
      }
      interval_ms = v->as_number();
    }
  }

  Json result = Json::object();
  result.set("subscribed", Json(true));
  result.set("process", Json(process_name()));
  result.set("interval_ms", Json(interval_ms));
  const std::string ack = make_result_response(id, std::move(result)).dump();
  if (telemetry_ == nullptr ||
      !telemetry_->add_subscriber(fd, interval_ms / 1000.0, ack)) {
    (void)send_all(fd, envelope_line(id, ErrorCode::kQueueFull,
                                     "telemetry subscriber limit reached"));
    return 2;
  }
  return 1;
}

bool ConnectionServer::park_for_next_request(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return false;
  parked_fds_.push_back(fd);
  return true;
}

void ConnectionServer::unpark(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = parked_fds_.begin(); it != parked_fds_.end(); ++it) {
    if (*it == fd) {
      parked_fds_.erase(it);
      return;
    }
  }
}

}  // namespace upa::serve
