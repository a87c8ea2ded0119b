#include "upa/dispatch/front.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <future>
#include <optional>
#include <random>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::dispatch {

namespace {

constexpr std::size_t kOutcomeCount = 5;  // AttemptOutcome cardinality

AttemptOutcome from_call_outcome(serve::CallOutcome outcome) {
  switch (outcome) {
    case serve::CallOutcome::kOk: return AttemptOutcome::kOk;
    case serve::CallOutcome::kRejected: return AttemptOutcome::kRejected;
    case serve::CallOutcome::kDeadline: return AttemptOutcome::kDeadline;
    case serve::CallOutcome::kError: return AttemptOutcome::kError;
    case serve::CallOutcome::kTransportError:
      return AttemptOutcome::kTransport;
  }
  return AttemptOutcome::kTransport;
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The one parse of a request line; nullopt when it is not JSON.
std::optional<serve::Json> try_parse(const std::string& line) {
  try {
    return serve::parse_json(line);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

struct Front::Link {
  Link(std::size_t upstream, std::uint64_t pool_generation)
      : index(upstream), generation(pool_generation) {}
  ~Link() {
    if (fd >= 0) ::close(fd);
  }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  std::size_t index;        ///< its upstream
  std::uint64_t generation; ///< its pool's generation when it was opened
  int fd = -1;
  Forward* forward = nullptr;  ///< the attempt it carries; null in the pool
  bool connecting = false;     ///< a non-blocking connect is under way
  bool want_out = false;       ///< watched for EPOLLOUT: a write is short
  std::string in;              ///< response bytes read so far
};

/// Its timers and its link's watcher hold its address: it lives in
/// forwards_ from make_forward() until it is delivered.
struct Front::Forward {
  Forward() = default;
  Forward(const Forward&) = delete;
  Forward& operator=(const Forward&) = delete;

  std::string line;  ///< the client's line, forwarded verbatim
  std::optional<serve::Json> request;
  bool parsed = false;  ///< `request` holds the line's one parse
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  /// A client request's completion token; null for forward_line, whose
  /// waiter is `done`.
  void* token = nullptr;
  std::function<void(ForwardResult)> done;
  std::list<Forward>::iterator self;
  bool launching = false;  ///< inside launch(): finish() only marks it
  bool finished = false;

  bool record = false;  ///< trace this request
  std::string method = "?";
  serve::TraceContext context;
  Clock::time_point begin;
  std::vector<std::size_t> order;  ///< the balancer's preference order
  std::size_t attempt_no = 0;
  ForwardResult out;
  std::vector<TracedAttempt> traced;

  // The attempt in flight.
  TracedAttempt span;
  std::string attempt_line;  ///< with its trace context and '\n'
  std::size_t sent = 0;      ///< bytes of attempt_line the link took
  std::unique_ptr<Link> link;
  bool pooled = false;  ///< the link came from the pool (the stale rule)
  serve::ConnectionServer::TimerId timer;  ///< deadline, then backoff

  const std::optional<serve::Json>& parsed_request() {
    if (!parsed) {
      request = try_parse(line);
      parsed = true;
    }
    return request;
  }
};

Front::Front(FrontConfig config)
    : config_(std::move(config)),
      pool_(config_.upstreams),
      balancer_(pool_, config_.policy),
      jitter_rng_(config_.retry.jitter_seed),
      connections_(
          serve::ConnectionServerConfig{
              .bind_address = config_.bind_address,
              .port = config_.port,
              .workers = config_.workers,
              .capacity = config_.max_clients,
              .handle_on_reactor = true,
              .read_timeout_seconds = config_.read_timeout_seconds,
              .telemetry_process = config_.telemetry_process,
              .process_kind = "upa_dispatch",
              .reject_message =
                  [](std::size_t capacity) {
                    return "dispatcher at max_clients (" +
                           std::to_string(capacity) + ")";
                  },
              .fill_metrics =
                  [this](obs::MetricsRegistry& metrics) {
                    publish_metrics(metrics);
                  },
              .tracer = config_.trace ? &tracer_ : nullptr,
              .span_mutex = &latency_mutex_},
          [this](const std::string& line,
                 const serve::RequestContext& context) {
            return respond_line(line, context);
          }) {
  UPA_REQUIRE(config_.workers >= 1, "FrontConfig.workers must be >= 1");
  UPA_REQUIRE(config_.max_clients >= config_.workers,
              "FrontConfig.max_clients must be >= workers");
  UPA_REQUIRE(config_.read_timeout_seconds > 0.0,
              "FrontConfig.read_timeout_seconds must be > 0");
  UPA_REQUIRE(config_.upstream_connect_timeout_seconds > 0.0,
              "FrontConfig.upstream_connect_timeout_seconds must be > 0");
  UPA_REQUIRE(config_.upstream_call_timeout_seconds > 0.0,
              "FrontConfig.upstream_call_timeout_seconds must be > 0");
  UPA_REQUIRE(config_.retry.max_attempts >= 1,
              "RetryConfig.max_attempts must be >= 1");
  UPA_REQUIRE(config_.retry.backoff_initial_seconds >= 0.0 &&
                  config_.retry.backoff_max_seconds >=
                      config_.retry.backoff_initial_seconds,
              "RetryConfig backoff bounds must satisfy 0 <= initial <= max");
  UPA_REQUIRE(config_.retry.jitter >= 0.0 && config_.retry.jitter <= 1.0,
              "RetryConfig.jitter must be in [0, 1]");
  check_health_config(config_.health);
  pools_.resize(pool_.size());
  // The probes block on the checker's own thread; the pool it closes is
  // the reactor's.
  health_ = std::make_unique<HealthChecker>(
      pool_, config_.health, [this](std::size_t index) {
        connections_.post([this, index] { close_pool(index); });
      });
  latency_by_outcome_.reserve(kOutcomeCount);
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    latency_by_outcome_.emplace_back(obs::geometric_buckets(1e-4, 2.0, 18));
  }
  latency_by_upstream_.reserve(pool_.size());
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    latency_by_upstream_.emplace_back(
        obs::geometric_buckets(1e-4, 2.0, 18));
  }
  // Entropy, not determinism: originated trace ids must differ between
  // front processes even when everything else (ports, seeds) matches.
  trace_origin_base_ = (static_cast<std::uint64_t>(std::random_device{}())
                        << 32) ^
                       std::random_device{}();
}

Front::~Front() { stop(); }

void Front::start() {
  std::lock_guard<std::mutex> lock(start_stop_mutex_);
  health_->start();  // initial sweep runs before any traffic is forwarded
  try {
    connections_.start();
  } catch (...) {
    health_->stop();
    throw;
  }
}

void Front::stop() {
  std::lock_guard<std::mutex> lock(start_stop_mutex_);
  connections_.stop();
  health_->stop();
  // The reactor is gone: a forward_line still in flight is abandoned (its
  // waiter sees a broken promise), and every upstream socket closes.
  forwards_.clear();
  for (Pool& pool : pools_) {
    pool.idle.clear();
    ++pool.generation;
  }
}

FrontStats Front::stats() const {
  const serve::ConnectionStats c = connections_.stats();
  FrontStats s;
  s.accepted = c.accepted;
  s.admitted = c.admitted;
  s.rejected = c.rejected;
  s.completed = c.completed;
  s.requests = requests_.load();
  s.forwarded_ok = forwarded_ok_.load();
  s.forwarded_rejected = forwarded_rejected_.load();
  s.forwarded_deadline = forwarded_deadline_.load();
  s.forwarded_error = forwarded_error_.load();
  s.forwarded_transport = forwarded_transport_.load();
  s.retries = retries_.load();
  s.failovers = failovers_.load();
  s.retries_exhausted = retries_exhausted_.load();
  s.stats_served = stats_served_.load();
  s.in_system = c.in_system;
  s.max_in_system = c.max_in_system;
  return s;
}

std::vector<UpstreamSnapshot> Front::upstreams() const {
  return pool_.snapshot();
}

void Front::publish_metrics(obs::MetricsRegistry& metrics) const {
  const FrontStats s = stats();
  const std::pair<const char*, std::uint64_t> totals[] = {
      {"accepted", s.accepted},
      {"admitted", s.admitted},
      {"rejected", s.rejected},
      {"completed", s.completed},
      {"requests", s.requests},
      {"forwarded_ok", s.forwarded_ok},
      {"forwarded_rejected", s.forwarded_rejected},
      {"forwarded_deadline", s.forwarded_deadline},
      {"forwarded_error", s.forwarded_error},
      {"forwarded_transport", s.forwarded_transport},
      {"retries", s.retries},
      {"failovers", s.failovers},
      {"retries_exhausted", s.retries_exhausted},
      {"stats_served", s.stats_served}};
  for (const auto& [name, value] : totals) {
    metrics.counter(std::string("dispatch.") + name).add(value);
  }
  metrics.gauge("dispatch.in_system").set(static_cast<double>(s.in_system));
  metrics.gauge("dispatch.max_in_system")
      .set(static_cast<double>(s.max_in_system));
  for (const UpstreamSnapshot& u : pool_.snapshot()) {
    const std::string prefix = "dispatch.upstream." + u.address.label() + ".";
    metrics.gauge(prefix + "healthy").set(u.healthy ? 1.0 : 0.0);
    metrics.gauge(prefix + "outstanding")
        .set(static_cast<double>(u.outstanding));
    const std::pair<const char*, std::uint64_t> upstream_totals[] = {
        {"attempts", u.attempts},
        {"ok", u.ok},
        {"rejected", u.rejected},
        {"deadline", u.deadline},
        {"errors", u.errors},
        {"transport", u.transport},
        {"probe_failures", u.probe_failures},
        {"ejections", u.ejections},
        {"readmissions", u.readmissions}};
    for (const auto& [name, value] : upstream_totals) {
      metrics.counter(prefix + name).add(value);
    }
  }
  std::lock_guard<std::mutex> lock(latency_mutex_);
  for (std::size_t i = 0; i < latency_by_outcome_.size(); ++i) {
    const std::string name =
        "dispatch.attempt_latency_seconds." +
        attempt_outcome_name(static_cast<AttemptOutcome>(i));
    metrics.histogram(name, latency_by_outcome_[i].upper_bounds())
        .merge_from(latency_by_outcome_[i]);
  }
  for (std::size_t i = 0; i < latency_by_upstream_.size(); ++i) {
    if (latency_by_upstream_[i].count() == 0) continue;
    const std::string name = "dispatch.upstream." +
                             pool_.address(i).label() + ".latency_seconds";
    metrics.histogram(name, latency_by_upstream_[i].upper_bounds())
        .merge_from(latency_by_upstream_[i]);
  }
}

std::vector<obs::Span> Front::spans() const {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  return tracer_.spans();
}

std::uint64_t Front::dropped_spans() const {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  return tracer_.dropped();
}

Front::Forward& Front::make_forward(const std::string& line,
                                   std::optional<serve::Json> request,
                                   std::uint64_t conn, std::uint64_t seq) {
  Forward& f = forwards_.emplace_back();
  f.self = std::prev(forwards_.end());
  f.line = line;
  f.parsed = request.has_value() || config_.trace ||
             balancer_.policy() == BalancePolicy::kConsistentHash;
  f.request = request ? std::move(request)
                      : f.parsed ? try_parse(line) : std::nullopt;
  f.conn = conn;
  f.seq = seq;
  f.begin = Clock::now();

  // Trace setup. Balancer affinity and the exhausted envelope always use
  // the ORIGINAL client line; only the per-attempt upstream line is
  // rewritten with a trace context. A malformed incoming `trace` member
  // is forwarded verbatim and recorded as nothing -- the upstream's
  // dispatcher produces the canonical 400 envelope for it.
  if (config_.trace && f.request && f.request->is_object()) {
    if (const serve::Json* m = f.request->find("method");
        m != nullptr && m->is_string()) {
      f.method = m->as_string();
    }
    try {
      if (const std::optional<serve::TraceContext> incoming =
              serve::parse_trace_context(*f.request)) {
        f.context = *incoming;  // forward the client's trace decision
        f.record = f.context.sampled;
      } else {
        f.context.trace_id = serve::make_trace_id(
            trace_origin_base_ + origin_serial_.fetch_add(1) + 1);
        f.context.span_id = 0;
        f.context.sampled = true;
        f.record = true;
      }
    } catch (const common::ModelError&) {
      f.record = false;
    }
  }

  // Only consistent-hash reads the key; the others skip building it.
  std::string key;
  if (balancer_.policy() == BalancePolicy::kConsistentHash) {
    key = f.request ? affinity_key(*f.request, line) : line;
  }
  f.order = balancer_.pick(key);
  return f;
}

bool Front::launch(Forward& f) {
  f.launching = true;
  begin_attempt(f);
  f.launching = false;
  return f.finished;
}

void Front::begin_attempt(Forward& f) {
  // Walk the balancer's preference order: healthy replicas first, so for
  // budget <= N every retry lands on a different, untried replica; past
  // N the walk wraps (better a repeat than a give-up).
  const std::size_t index = f.order[f.attempt_no % f.order.size()];
  pool_.begin_call(index);
  f.span = TracedAttempt{};
  f.span.upstream_index = index;
  f.span.begin = Clock::now();
  if (f.record) {
    // Each attempt gets a fresh span reference: the upstream's
    // serve_request span parents on exactly this attempt, so a retry
    // that lands on another replica stays distinguishable.
    f.span.ref = span_ref_.fetch_add(1);
    f.attempt_line = serve::with_trace_context(
        *f.request, serve::TraceContext{f.context.trace_id, f.span.ref, true});
  } else {
    f.attempt_line = f.line;
  }
  f.attempt_line.push_back('\n');
  f.sent = 0;

  Pool& pool = pools_[index];
  if (pool.idle.empty()) {
    connect_link(f);
    return;
  }
  f.link = std::move(pool.idle.back());
  pool.idle.pop_back();
  f.link->forward = &f;
  f.pooled = true;
  arm_deadline(f, config_.upstream_call_timeout_seconds);
  (void)write_request(f);
}

void Front::arm_deadline(Forward& f, double seconds) {
  f.timer = connections_.after(seconds, [&f, this] {
    close_link(std::move(f.link));
    attempt_ended(f, AttemptOutcome::kTransport, {});
  });
}

void Front::connect_link(Forward& f) {
  const std::size_t index = f.span.upstream_index;
  const UpstreamAddress& address = pool_.address(index);
  f.pooled = false;
  f.sent = 0;
  auto link = std::make_unique<Link>(index, pools_[index].generation);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(address.port);
  // SOCK_CLOEXEC: a replica the farm orchestrator forks must not inherit
  // the front's upstream sockets.
  link->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  int rc = -1;
  if (link->fd >= 0 &&
      ::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) == 1) {
    const int one = 1;
    ::setsockopt(link->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    rc = ::connect(link->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    link->connecting = rc != 0 && errno == EINPROGRESS;
  }
  Link* raw = link.get();
  if ((rc != 0 && !raw->connecting) ||
      !connections_.watch(raw->fd, raw->connecting ? EPOLLOUT : EPOLLIN,
                          [this, raw](std::uint32_t events) {
                            on_link_ready(*raw, events);
                          })) {
    attempt_ended(f, AttemptOutcome::kTransport, {});  // refused at once
    return;
  }
  raw->forward = &f;
  f.link = std::move(link);
  if (raw->connecting) {
    arm_deadline(f, config_.upstream_connect_timeout_seconds);
  } else {
    arm_deadline(f, config_.upstream_call_timeout_seconds);
    (void)write_request(f);
  }
}

bool Front::write_request(Forward& f) {
  Link& link = *f.link;
  while (f.sent < f.attempt_line.size()) {
    const ssize_t n = ::send(link.fd, f.attempt_line.data() + f.sent,
                             f.attempt_line.size() - f.sent, MSG_NOSIGNAL);
    if (n > 0) {
      f.sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!link.want_out) {
        link.want_out = true;
        connections_.rewatch(link.fd, EPOLLIN | EPOLLOUT);
      }
      return true;
    } else {
      link_broke(f, errno == EPIPE || errno == ECONNRESET);
      return false;
    }
  }
  if (link.want_out) {
    link.want_out = false;
    connections_.rewatch(link.fd, EPOLLIN);
  }
  return true;
}

void Front::on_link_ready(Link& link, std::uint32_t events) {
  if (link.forward == nullptr) {
    // Idle in its pool and readable: the upstream closed it (or sent
    // bytes nobody asked for). Either way it cannot carry a request.
    std::vector<std::unique_ptr<Link>>& idle = pools_[link.index].idle;
    const auto it = std::find_if(idle.begin(), idle.end(), [&](const auto& l) {
      return l.get() == &link;
    });
    if (it != idle.end()) {
      std::unique_ptr<Link> dead = std::move(*it);
      idle.erase(it);
      close_link(std::move(dead));
    }
    return;
  }
  Forward& f = *link.forward;
  if (link.connecting) {
    int error = 0;
    socklen_t length = sizeof error;
    ::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &error, &length);
    if (error != 0) {
      connections_.cancel(f.timer);
      close_link(std::move(f.link));
      attempt_ended(f, AttemptOutcome::kTransport, {});
      return;
    }
    if ((events & EPOLLOUT) == 0) return;
    link.connecting = false;
    connections_.rewatch(link.fd, EPOLLIN);
    connections_.cancel(f.timer);
    arm_deadline(f, config_.upstream_call_timeout_seconds);
    (void)write_request(f);
    return;
  }
  if ((events & EPOLLOUT) != 0 && f.sent < f.attempt_line.size() &&
      !write_request(f)) {
    return;
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) read_response(f);
}

void Front::read_response(Forward& f) {
  Link& link = *f.link;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(link.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      const std::size_t from = link.in.size();
      link.in.append(chunk, static_cast<std::size_t>(n));
      // A whole line is the answer, whatever follows it.
      if (static_cast<std::size_t>(n) < sizeof chunk ||
          link.in.find('\n', from) != std::string::npos) {
        break;
      }
    } else if (n == 0) {
      link_broke(f, link.in.empty());
      return;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      link_broke(f, link.in.empty() && errno == ECONNRESET);
      return;
    }
  }
  const std::size_t newline = link.in.find('\n');
  if (newline == std::string::npos) return;
  std::string response(link.in, 0, newline);
  if (!response.empty() && response.back() == '\r') response.pop_back();
  // Bytes past the one response line would be misread as the next
  // request's answer: such a connection is not pooled again.
  const bool clean = link.in.size() == newline + 1;
  link.in.clear();
  const AttemptOutcome outcome =
      from_call_outcome(serve::classify_response(response).outcome);
  connections_.cancel(f.timer);
  if (clean) {
    pool_link(std::move(f.link));
  } else {
    close_link(std::move(f.link));
  }
  attempt_ended(f, outcome, std::move(response));
}

void Front::link_broke(Forward& f, bool before_response) {
  connections_.cancel(f.timer);
  close_link(std::move(f.link));
  // A pooled connection the upstream closed while it sat idle fails
  // before any response byte: one fresh connect retries the line within
  // this attempt. Anything else is the attempt's transport failure.
  if (f.pooled && before_response) {
    connect_link(f);
  } else {
    attempt_ended(f, AttemptOutcome::kTransport, {});
  }
}

void Front::attempt_ended(Forward& f, AttemptOutcome outcome,
                          std::string response) {
  const std::size_t index = f.span.upstream_index;
  f.span.end = Clock::now();
  f.span.outcome = outcome;
  const double latency = seconds_between(f.span.begin, f.span.end);
  pool_.end_call(index, outcome, latency);
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    latency_by_outcome_[static_cast<std::size_t>(outcome)].record(latency);
    latency_by_upstream_[index].record(latency);
  }
  f.out.attempts.push_back(ForwardAttempt{index, outcome});
  if (f.record) f.traced.push_back(f.span);

  if (outcome == AttemptOutcome::kOk || outcome == AttemptOutcome::kError) {
    // Definitive answers pass through verbatim; 400/404/500 are
    // deterministic and would only be recomputed by a retry.
    f.out.response_line = std::move(response);
    f.out.final_outcome = outcome;
    finish(f);
    return;
  }
  if (++f.attempt_no >= config_.retry.max_attempts) {
    f.out.exhausted = true;
    f.out.final_outcome = outcome;
    f.out.response_line = exhausted_envelope(f.parsed_request(), f.out.attempts);
    retries_exhausted_.fetch_add(1);
    finish(f);
    return;
  }
  retries_.fetch_add(1);
  if (f.order[f.attempt_no % f.order.size()] != index) failovers_.fetch_add(1);
  const double delay = backoff_seconds(f.attempt_no);
  if (delay <= 0.0) {
    begin_attempt(f);
  } else {
    f.timer = connections_.after(delay, [&f, this] { begin_attempt(f); });
  }
}

void Front::finish(Forward& f) {
  if (f.record) {
    record_request_trace(f.method, f.context, f.out, f.traced, f.begin,
                         f.conn, f.seq);
  }
  if (f.launching) {
    f.finished = true;  // launch()'s caller answers it
    return;
  }
  deliver(f);
}

void Front::deliver(Forward& f) {
  if (f.token != nullptr) {
    count_outcome(f.out);
    connections_.complete(f.token, std::move(f.out.response_line));
  } else {
    f.done(std::move(f.out));
  }
  forwards_.erase(f.self);
}

void Front::pool_link(std::unique_ptr<Link> link) {
  link->forward = nullptr;
  Pool& pool = pools_[link->index];
  if (link->generation == pool.generation) {
    pool.idle.push_back(std::move(link));
  } else {
    close_link(std::move(link));
  }
}

void Front::close_link(std::unique_ptr<Link> link) {
  if (link != nullptr && link->fd >= 0) connections_.unwatch(link->fd);
}

void Front::close_pool(std::size_t index) {
  Pool& pool = pools_[index];
  ++pool.generation;
  for (std::unique_ptr<Link>& link : pool.idle) close_link(std::move(link));
  pool.idle.clear();
}

double Front::backoff_seconds(std::size_t retry_number) {
  double delay = config_.retry.backoff_initial_seconds *
                 std::pow(2.0, static_cast<double>(retry_number - 1));
  delay = std::min(delay, config_.retry.backoff_max_seconds);
  if (delay <= 0.0) return 0.0;
  return delay * (1.0 - config_.retry.jitter * jitter_rng_.uniform01());
}

std::string Front::exhausted_envelope(
    const std::optional<serve::Json>& request,
    const std::vector<ForwardAttempt>& attempts) const {
  // An unparseable line keeps a null id, like the upstreams' own
  // unparseable-line envelopes.
  serve::Json id;
  if (request) {
    if (const serve::Json* i = request->find("id"); i != nullptr) id = *i;
  }
  serve::Json trail = serve::Json::array();
  for (const ForwardAttempt& a : attempts) {
    serve::Json entry = serve::Json::object();
    entry.set("upstream", serve::Json(pool_.address(a.upstream_index).label()));
    entry.set("outcome", serve::Json(attempt_outcome_name(a.outcome)));
    trail.push_back(std::move(entry));
  }
  // Same member order as make_error_response, plus the attempt trail.
  serve::Json error = serve::Json::object();
  error.set("code", serve::Json(serve::ErrorCode::kQueueFull));
  error.set("message", serve::Json("retries_exhausted"));
  error.set("attempts", std::move(trail));
  serve::Json envelope = serve::Json::object();
  envelope.set("id", id);
  envelope.set("ok", serve::Json(false));
  envelope.set("error", std::move(error));
  return envelope.dump();
}

ForwardResult Front::forward_line(const std::string& request_line) {
  UPA_REQUIRE(running(), "forward_line requires a started front");
  // Shared: a task or forward that stop() drops breaks the promise, so
  // the waiter never hangs.
  auto promise = std::make_shared<std::promise<ForwardResult>>();
  std::future<ForwardResult> result = promise->get_future();
  connections_.post([this, request_line, promise] {
    Forward& f = make_forward(request_line, std::nullopt, 0, 0);
    f.done = [promise](ForwardResult r) { promise->set_value(std::move(r)); };
    if (launch(f)) deliver(f);
  });
  return result.get();
}

void Front::record_request_trace(const std::string& method,
                                 const serve::TraceContext& context,
                                 const ForwardResult& result,
                                 const std::vector<TracedAttempt>& attempts,
                                 Clock::time_point request_begin,
                                 std::uint64_t conn, std::uint64_t seq) {
  const AttemptOutcome client_visible =
      result.exhausted ? AttemptOutcome::kRejected : result.final_outcome;

  // The whole request's spans land as one complete batch under
  // latency_mutex_ -- the same lock the telemetry copy_spans callback
  // takes -- so a subscriber never streams a root without its attempt
  // children. Steady-clock stamps are mapped onto the tracer's wall
  // timeline retrospectively, anchored at "now".
  std::lock_guard<std::mutex> lock(latency_mutex_);
  const Clock::time_point now = Clock::now();
  const double wall_now = tracer_.wall_now();
  const auto wall_at = [&](Clock::time_point tp) {
    return wall_now - seconds_between(tp, now);
  };

  const obs::SpanId root = tracer_.begin(
      obs::SpanLevel::kDispatchRequest, method, wall_at(request_begin),
      obs::TimeDomain::kWallSeconds);
  tracer_.attr(root, "trace_id", context.trace_id);
  tracer_.attr(root, "parent_span", static_cast<double>(context.span_id));
  tracer_.attr(root, "conn", static_cast<double>(conn));
  tracer_.attr(root, "seq", static_cast<double>(seq));
  tracer_.attr(root, "outcome", attempt_outcome_name(client_visible));
  tracer_.attr(root, "attempts", static_cast<double>(attempts.size()));
  if (result.exhausted) tracer_.attr(root, "exhausted", 1.0);
  for (const TracedAttempt& a : attempts) {
    const obs::SpanId child = tracer_.begin(
        obs::SpanLevel::kDispatchAttempt, "attempt", wall_at(a.begin),
        obs::TimeDomain::kWallSeconds, root);
    tracer_.attr(child, "ref", static_cast<double>(a.ref));
    tracer_.attr(child, "upstream", pool_.address(a.upstream_index).label());
    tracer_.attr(child, "outcome", attempt_outcome_name(a.outcome));
    tracer_.end(child, wall_at(a.end));
  }
  tracer_.end(root, wall_now);
}

std::string Front::dispatch_stats_line(const serve::Json& request) {
  stats_served_.fetch_add(1);
  serve::Json id;
  if (const serve::Json* i = request.find("id"); i != nullptr) id = *i;
  const FrontStats s = stats();
  serve::Json result = serve::Json::object();
  result.set("policy", serve::Json(balance_policy_name(config_.policy)));
  result.set("upstream_count", serve::Json(pool_.size()));
  result.set("requests", serve::Json(static_cast<double>(s.requests)));
  result.set("forwarded_ok",
             serve::Json(static_cast<double>(s.forwarded_ok)));
  result.set("forwarded_rejected",
             serve::Json(static_cast<double>(s.forwarded_rejected)));
  result.set("forwarded_deadline",
             serve::Json(static_cast<double>(s.forwarded_deadline)));
  result.set("forwarded_error",
             serve::Json(static_cast<double>(s.forwarded_error)));
  result.set("forwarded_transport",
             serve::Json(static_cast<double>(s.forwarded_transport)));
  result.set("retries", serve::Json(static_cast<double>(s.retries)));
  result.set("failovers", serve::Json(static_cast<double>(s.failovers)));
  result.set("retries_exhausted",
             serve::Json(static_cast<double>(s.retries_exhausted)));
  serve::Json upstreams = serve::Json::array();
  const std::vector<UpstreamSnapshot> snapshots = pool_.snapshot();
  std::lock_guard<std::mutex> latency_lock(latency_mutex_);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const UpstreamSnapshot& u = snapshots[i];
    serve::Json entry = serve::Json::object();
    entry.set("address", serve::Json(u.address.label()));
    entry.set("healthy", serve::Json(u.healthy));
    entry.set("outstanding", serve::Json(u.outstanding));
    entry.set("attempts", serve::Json(static_cast<double>(u.attempts)));
    entry.set("ok", serve::Json(static_cast<double>(u.ok)));
    entry.set("rejected", serve::Json(static_cast<double>(u.rejected)));
    entry.set("deadline", serve::Json(static_cast<double>(u.deadline)));
    entry.set("errors", serve::Json(static_cast<double>(u.errors)));
    entry.set("transport", serve::Json(static_cast<double>(u.transport)));
    entry.set("probe_failures",
              serve::Json(static_cast<double>(u.probe_failures)));
    entry.set("ejections", serve::Json(static_cast<double>(u.ejections)));
    entry.set("readmissions",
              serve::Json(static_cast<double>(u.readmissions)));
    // Snapshot order is pool index order, so histogram i matches entry i.
    entry.set("latency", serve::histogram_json(latency_by_upstream_[i]));
    upstreams.push_back(std::move(entry));
  }
  result.set("upstreams", std::move(upstreams));
  return serve::make_result_response(id, std::move(result)).dump();
}

std::optional<std::string> Front::respond_line(
    const std::string& line, const serve::RequestContext& context) {
  requests_.fetch_add(1);
  // Unparseable lines are forwarded anyway: the upstream produces the
  // canonical 400 envelope, keeping responses byte-identical to a direct
  // connection. A line that cannot name dispatch_stats skips the parse
  // unless tracing or hashing needs it.
  std::optional<serve::Json> request;
  if (line.find("dispatch_stats") != std::string::npos) {
    request = try_parse(line);
    if (request) {
      if (const serve::Json* m = request->find("method");
          m != nullptr && m->is_string() &&
          m->as_string() == "dispatch_stats") {
        return dispatch_stats_line(*request);
      }
    }
  }
  Forward& f = make_forward(line, std::move(request), context.conn,
                            context.seq);
  f.token = context.token;
  if (!launch(f)) return std::nullopt;  // complete() answers it
  // Every attempt failed without waiting: answer now.
  count_outcome(f.out);
  std::string response = std::move(f.out.response_line);
  forwards_.erase(f.self);
  return response;
}

void Front::count_outcome(const ForwardResult& result) {
  // Counters classify the response the client actually got: a spent
  // budget surfaces as the 503 retries_exhausted envelope, so it counts
  // as a rejection regardless of how the last attempt died.
  const AttemptOutcome client_visible =
      result.exhausted ? AttemptOutcome::kRejected : result.final_outcome;
  switch (client_visible) {
    case AttemptOutcome::kOk: forwarded_ok_.fetch_add(1); break;
    case AttemptOutcome::kRejected: forwarded_rejected_.fetch_add(1); break;
    case AttemptOutcome::kDeadline: forwarded_deadline_.fetch_add(1); break;
    case AttemptOutcome::kError: forwarded_error_.fetch_add(1); break;
    case AttemptOutcome::kTransport:
      forwarded_transport_.fetch_add(1);
      break;
  }
}

}  // namespace upa::dispatch
