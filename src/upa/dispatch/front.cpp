#include "upa/dispatch/front.hpp"

#include <algorithm>
#include <cmath>
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
  idle_.resize(pool_.size());
  health_ = std::make_unique<HealthChecker>(
      pool_, config_.health, [this](std::size_t index) { close_pool(index); });
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
  for (std::size_t i = 0; i < idle_.size(); ++i) close_pool(i);
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

ForwardAttempt Front::attempt_once(std::size_t index,
                                   const std::string& line,
                                   std::string& response_out) {
  const UpstreamAddress& address = pool_.address(index);
  pool_.begin_call(index);
  const Clock::time_point begin = Clock::now();
  ForwardAttempt attempt;
  attempt.upstream_index = index;
  std::uint64_t generation = 0;
  serve::Client client = checkout(index, generation);
  // A pooled connection the upstream closed while it sat idle fails
  // before any response byte: one fresh connect retries the line within
  // this attempt. Anything else is the attempt's transport failure.
  for (bool pooled = client.connected();; pooled = false) {
    try {
      if (!pooled) {
        client.connect(address.host, address.port,
                       config_.upstream_connect_timeout_seconds,
                       config_.upstream_call_timeout_seconds);
      }
      response_out = client.call_line(line);
      attempt.outcome =
          from_call_outcome(serve::classify_response(response_out).outcome);
      checkin(index, std::move(client), generation);
      break;
    } catch (const std::exception&) {
      const bool stale = pooled && client.closed_before_response();
      client.close();
      response_out.clear();
      if (!stale) break;
    }
  }
  const double latency = seconds_between(begin, Clock::now());
  pool_.end_call(index, attempt.outcome, latency);
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    latency_by_outcome_[static_cast<std::size_t>(attempt.outcome)].record(
        latency);
    latency_by_upstream_[index].record(latency);
  }
  return attempt;
}

serve::Client Front::checkout(std::size_t index, std::uint64_t& generation) {
  std::lock_guard<std::mutex> lock(idle_mutex_);
  IdleClients& idle = idle_[index];
  generation = idle.generation;
  if (idle.clients.empty()) return serve::Client();
  serve::Client client = std::move(idle.clients.back());
  idle.clients.pop_back();
  return client;
}

void Front::checkin(std::size_t index, serve::Client client,
                    std::uint64_t generation) {
  std::lock_guard<std::mutex> lock(idle_mutex_);
  IdleClients& idle = idle_[index];
  if (idle.generation == generation) {
    idle.clients.push_back(std::move(client));
  }
}

void Front::close_pool(std::size_t index) {
  std::vector<serve::Client> closing;
  std::lock_guard<std::mutex> lock(idle_mutex_);
  ++idle_[index].generation;
  closing.swap(idle_[index].clients);
}

void Front::backoff_sleep(std::size_t retry_number) {
  double delay = config_.retry.backoff_initial_seconds *
                 std::pow(2.0, static_cast<double>(retry_number - 1));
  delay = std::min(delay, config_.retry.backoff_max_seconds);
  if (delay <= 0.0) return;
  double u = 0.0;
  {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    u = jitter_rng_.uniform01();
  }
  delay *= 1.0 - config_.retry.jitter * u;
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
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
  return forward_line_traced(request_line, try_parse(request_line), 0, 0);
}

ForwardResult Front::forward_line_traced(
    const std::string& request_line,
    const std::optional<serve::Json>& request, std::uint64_t conn,
    std::uint64_t seq) {
  const Clock::time_point request_begin = Clock::now();

  // Trace setup. Balancer affinity and the exhausted envelope always use
  // the ORIGINAL client line; only the per-attempt upstream line is
  // rewritten with a trace context. A malformed incoming `trace` member
  // is forwarded verbatim and recorded as nothing -- the upstream's
  // dispatcher produces the canonical 400 envelope for it.
  bool record = false;
  std::string method = "?";
  serve::TraceContext context;
  if (config_.trace && request && request->is_object()) {
    if (const serve::Json* m = request->find("method");
        m != nullptr && m->is_string()) {
      method = m->as_string();
    }
    try {
      if (const std::optional<serve::TraceContext> incoming =
              serve::parse_trace_context(*request)) {
        context = *incoming;  // forward the client's trace decision
        record = context.sampled;
      } else {
        context.trace_id = serve::make_trace_id(
            trace_origin_base_ + origin_serial_.fetch_add(1) + 1);
        context.span_id = 0;
        context.sampled = true;
        record = true;
      }
    } catch (const common::ModelError&) {
      record = false;
    }
  }

  ForwardResult out;
  std::vector<TracedAttempt> traced;
  // Only consistent-hash reads the key; the others skip building it.
  std::string key;
  if (balancer_.policy() == BalancePolicy::kConsistentHash) {
    key = request ? affinity_key(*request, request_line) : request_line;
  }
  const std::vector<std::size_t> order = balancer_.pick(key);
  const std::size_t budget = config_.retry.max_attempts;

  bool answered = false;
  for (std::size_t attempt_no = 0; attempt_no < budget && !answered;
       ++attempt_no) {
    // Walk the balancer's preference order: healthy replicas first, so
    // for budget <= N every retry lands on a different, untried
    // replica; past N the walk wraps (better a repeat than a give-up).
    const std::size_t index = order[attempt_no % order.size()];
    if (attempt_no > 0) {
      retries_.fetch_add(1);
      if (index != out.attempts.back().upstream_index) {
        failovers_.fetch_add(1);
      }
      backoff_sleep(attempt_no);
    }
    TracedAttempt span;
    span.upstream_index = index;
    std::string attempt_line = request_line;
    if (record) {
      // Each attempt gets a fresh span reference: the upstream's
      // serve_request span parents on exactly this attempt, so a retry
      // that lands on another replica stays distinguishable.
      span.ref = span_ref_.fetch_add(1);
      attempt_line = serve::with_trace_context(
          *request,
          serve::TraceContext{context.trace_id, span.ref, true});
    }
    std::string response;
    span.begin = Clock::now();
    const ForwardAttempt attempt = attempt_once(index, attempt_line,
                                                response);
    span.end = Clock::now();
    span.outcome = attempt.outcome;
    out.attempts.push_back(attempt);
    traced.push_back(span);
    if (attempt.outcome == AttemptOutcome::kOk ||
        attempt.outcome == AttemptOutcome::kError) {
      // Definitive answers pass through verbatim; 400/404/500 are
      // deterministic and would only be recomputed by a retry.
      out.response_line = std::move(response);
      out.final_outcome = attempt.outcome;
      answered = true;
    }
  }

  if (!answered) {
    out.exhausted = true;
    out.final_outcome = out.attempts.back().outcome;
    out.response_line = exhausted_envelope(request, out.attempts);
    retries_exhausted_.fetch_add(1);
  }
  if (record) {
    record_request_trace(method, context, out, traced, request_begin,
                         conn, seq);
  }
  return out;
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

std::string Front::respond_line(const std::string& line,
                                const serve::RequestContext& context) {
  requests_.fetch_add(1);
  // The line's one parse. Unparseable lines are forwarded anyway: the
  // upstream produces the canonical 400 envelope, keeping responses
  // byte-identical to a direct connection.
  const std::optional<serve::Json> request = try_parse(line);
  if (request) {
    if (const serve::Json* m = request->find("method");
        m != nullptr && m->is_string() &&
        m->as_string() == "dispatch_stats") {
      return dispatch_stats_line(*request);
    }
  }

  const ForwardResult fr =
      forward_line_traced(line, request, context.conn, context.seq);
  // Counters classify the response the client actually got: a spent
  // budget surfaces as the 503 retries_exhausted envelope, so it counts
  // as a rejection regardless of how the last attempt died.
  const AttemptOutcome client_visible =
      fr.exhausted ? AttemptOutcome::kRejected : fr.final_outcome;
  switch (client_visible) {
    case AttemptOutcome::kOk: forwarded_ok_.fetch_add(1); break;
    case AttemptOutcome::kRejected: forwarded_rejected_.fetch_add(1); break;
    case AttemptOutcome::kDeadline: forwarded_deadline_.fetch_add(1); break;
    case AttemptOutcome::kError: forwarded_error_.fetch_add(1); break;
    case AttemptOutcome::kTransport:
      forwarded_transport_.fetch_add(1);
      break;
  }
  return fr.response_line;
}

}  // namespace upa::dispatch
