#include "upa/serve/server.hpp"

#include <cmath>
#include <utility>

#include "upa/common/error.hpp"

namespace upa::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Optional size param for the reconfigure RPC: absent -> 0 ("keep").
/// Throws ModelError on anything but a nonnegative integer number.
std::size_t reconfigure_param(const Json& params, const char* name) {
  if (!params.is_object()) return 0;
  const Json* v = params.find(name);
  if (v == nullptr) return 0;
  UPA_REQUIRE(v->is_number(), std::string("param '") + name +
                                  "' must be a number");
  const double value = v->as_number();
  UPA_REQUIRE(value >= 0.0 && value == std::floor(value) &&
                  value <= 1e6,
              std::string("param '") + name +
                  "' must be an integer in [0, 1e6]");
  return static_cast<std::size_t>(value);
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      latency_(obs::geometric_buckets(1e-4, 2.0, 18)),
      handler_seconds_(latency_.upper_bounds()),
      connections_(
          ConnectionServerConfig{
              .bind_address = config_.bind_address,
              .port = config_.port,
              .workers = config_.workers,
              .capacity = config_.capacity,
              .read_timeout_seconds = config_.read_timeout_seconds,
              .telemetry_process = config_.telemetry_process,
              .process_kind = "upa_served",
              .reject_message =
                  [](std::size_t capacity) {
                    return "server queue full (capacity " +
                           std::to_string(capacity) + ")";
                  },
              .fill_metrics =
                  [this](obs::MetricsRegistry& metrics) {
                    publish_metrics(metrics);
                  },
              .tracer = config_.trace ? &tracer_ : nullptr,
              .span_mutex = &latency_mutex_},
          [this](const std::string& line, const RequestContext& context) {
            return respond_line(line, context);
          }) {
  UPA_REQUIRE(config_.workers >= 1, "ServerConfig.workers must be >= 1");
  UPA_REQUIRE(config_.capacity >= config_.workers,
              "ServerConfig.capacity must be >= workers (K >= i)");
  UPA_REQUIRE(config_.deadline_seconds >= 0.0,
              "ServerConfig.deadline_seconds must be >= 0");
  UPA_REQUIRE(config_.read_timeout_seconds > 0.0,
              "ServerConfig.read_timeout_seconds must be > 0");
  dispatcher_.register_method("stats", [this](const Json&) {
    const ServerStats s = stats();
    Json out = Json::object();
    out.set("workers", Json(s.workers));
    out.set("capacity", Json(s.capacity));
    out.set("accepted", Json(static_cast<double>(s.accepted)));
    out.set("rejected", Json(static_cast<double>(s.rejected)));
    out.set("completed", Json(static_cast<double>(s.completed)));
    out.set("requests", Json(static_cast<double>(s.requests)));
    out.set("deadline_missed", Json(static_cast<double>(s.deadline_missed)));
    out.set("protocol_errors", Json(static_cast<double>(s.protocol_errors)));
    out.set("in_system", Json(s.in_system));
    out.set("max_in_system", Json(s.max_in_system));
    out.set("retiring", Json(s.retiring));
    out.set("reconfigures", Json(static_cast<double>(s.reconfigures)));
    out.set("busy_seconds", Json(s.busy_seconds));
    out.set("handled_requests",
            Json(static_cast<double>(s.handled_requests)));
    Json method_latency = Json::object();
    {
      std::lock_guard<std::mutex> lock(latency_mutex_);
      for (const auto& [name, histogram] : latency_by_method_) {
        if (histogram.count() == 0) continue;
        Json m = histogram_json(histogram);
        m.set("mean", Json(histogram.sum() /
                           static_cast<double>(histogram.count())));
        method_latency.set(name, std::move(m));
      }
    }
    out.set("method_latency", std::move(method_latency));
    return out;
  });
  dispatcher_.register_method("reconfigure", [this](const Json& params) {
    const std::size_t workers = reconfigure_param(params, "workers");
    const std::size_t capacity = reconfigure_param(params, "capacity");
    UPA_REQUIRE(workers > 0 || capacity > 0,
                "reconfigure requires 'workers' and/or 'capacity'");
    const ReconfigureResult r = reconfigure(workers, capacity);
    Json out = Json::object();
    out.set("workers", Json(r.workers));
    out.set("capacity", Json(r.capacity));
    out.set("previous_workers", Json(r.previous_workers));
    out.set("previous_capacity", Json(r.previous_capacity));
    out.set("retiring", Json(r.retiring));
    out.set("in_system", Json(connections_.stats().in_system));
    return out;
  });
  // One handler-latency histogram per registered method, plus a catch-
  // all for unknown-method / unparseable requests. Built once here so
  // the per-request path is a map find, never an insert.
  for (const std::string& name : dispatcher_.method_names()) {
    latency_by_method_.emplace(name,
                               obs::Histogram(latency_.upper_bounds()));
  }
  latency_by_method_.emplace("other",
                             obs::Histogram(latency_.upper_bounds()));
}

Server::~Server() { stop(); }

void Server::start() { connections_.start(); }

void Server::stop() { connections_.stop(); }

ServerStats Server::stats() const {
  const ConnectionStats c = connections_.stats();
  ServerStats s;
  s.accepted = c.accepted;
  s.rejected = c.rejected;
  s.completed = c.completed;
  s.requests = requests_.load();
  s.deadline_missed = deadline_missed_.load();
  s.protocol_errors = protocol_errors_.load();
  s.in_system = c.in_system;
  s.max_in_system = c.max_in_system;
  s.workers = c.workers;
  s.capacity = c.capacity;
  s.retiring = c.retiring;
  s.reconfigures = c.reconfigures;
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    s.busy_seconds = handler_seconds_.sum();
    s.handled_requests = handler_seconds_.count();
  }
  return s;
}

ReconfigureResult Server::reconfigure(std::size_t workers,
                                      std::size_t capacity) {
  return connections_.reconfigure(workers, capacity);
}

void Server::publish_metrics(obs::MetricsRegistry& metrics) const {
  const ServerStats s = stats();
  metrics.counter("serve.accepted").add(s.accepted);
  metrics.counter("serve.rejected").add(s.rejected);
  metrics.counter("serve.completed").add(s.completed);
  metrics.counter("serve.requests").add(s.requests);
  metrics.counter("serve.deadline_missed").add(s.deadline_missed);
  metrics.counter("serve.protocol_errors").add(s.protocol_errors);
  metrics.counter("serve.reconfigures").add(s.reconfigures);
  metrics.gauge("serve.in_system").set(static_cast<double>(s.in_system));
  metrics.gauge("serve.max_in_system")
      .set(static_cast<double>(s.max_in_system));
  metrics.gauge("serve.workers").set(static_cast<double>(s.workers));
  metrics.gauge("serve.capacity").set(static_cast<double>(s.capacity));
  metrics.gauge("serve.retiring").set(static_cast<double>(s.retiring));
  std::lock_guard<std::mutex> lock(latency_mutex_);
  for (const auto& [code, count] : requests_by_code_) {
    metrics.counter("serve.code." + std::to_string(code)).add(count);
  }
  metrics.histogram("serve.handler_seconds", handler_seconds_.upper_bounds())
      .merge_from(handler_seconds_);
  metrics
      .histogram("serve.request_latency_seconds", latency_.upper_bounds())
      .merge_from(latency_);
  for (const auto& [name, histogram] : latency_by_method_) {
    if (histogram.count() == 0) continue;
    metrics
        .histogram("serve.method_latency_seconds." + name,
                   histogram.upper_bounds())
        .merge_from(histogram);
  }
}

std::vector<obs::Span> Server::spans() const {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  return tracer_.spans();
}

std::uint64_t Server::dropped_spans() const {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  return tracer_.dropped();
}

std::string Server::respond_line(const std::string& line,
                                 const RequestContext& context) {
  // The admission-anchored budget and timings apply only to the
  // connection's first request; later requests on a kept-alive
  // connection are each fresh and anchor at their own line read --
  // otherwise every request after the budget elapsed would 504 and the
  // latency histogram would absorb the whole connection age.
  const Clock::time_point line_read = context.line_read;
  const Clock::time_point anchor =
      context.first_request ? context.admitted : line_read;
  RequestObservation observation;
  observation.first_request = context.first_request;
  observation.queue_wait_seconds = seconds_between(anchor, line_read);
  observation.conn = context.conn;
  observation.seq = context.seq;

  Json request;
  bool parsed = true;
  try {
    request = parse_json(line);
  } catch (const std::exception&) {
    parsed = false;
  }

  std::string method = "?";
  Json id;
  if (parsed) {
    if (const Json* m = request.find("method");
        m != nullptr && m->is_string()) {
      method = m->as_string();
    }
    if (const Json* i = request.find("id"); i != nullptr) id = *i;
    try {
      if (const auto context = parse_trace_context(request); context) {
        observation.has_trace = true;
        observation.trace_id = context->trace_id;
        observation.parent_span = context->span_id;
        observation.sampled = context->sampled;
      }
    } catch (const common::ModelError&) {
      // Malformed trace member: dispatch() below produces the 400; the
      // request is recorded without linkage attrs.
    }
  }

  // Effective deadline: the server-wide budget counts from the request
  // anchor (connection admission for a connection's first request, line
  // read for later ones); a request-level `deadline_ms` counts from
  // when its line was read and can only tighten the budget.
  Clock::time_point deadline = Clock::time_point::max();
  if (config_.deadline_seconds > 0.0) {
    deadline = anchor + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                config_.deadline_seconds));
  }
  if (parsed) {
    if (const Json* ms = request.find("deadline_ms");
        ms != nullptr && ms->is_number() && ms->as_number() > 0.0) {
      const auto request_deadline =
          line_read + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(ms->as_number() /
                                                        1000.0));
      if (request_deadline < deadline) deadline = request_deadline;
    }
  }

  int code = 200;
  std::string response;
  if (!parsed) {
    protocol_errors_.fetch_add(1);
    code = ErrorCode::kBadRequest;
    response = make_error_response(Json(), code,
                                   "request line is not valid JSON")
                   .dump();
  } else if (Clock::now() > deadline) {
    // Spent its whole budget waiting in the queue.
    deadline_missed_.fetch_add(1);
    code = ErrorCode::kDeadlineExceeded;
    response = make_error_response(id, code,
                                   "deadline exceeded before dispatch")
                   .dump();
  } else {
    observation.has_handler = true;
    observation.handler_begin = seconds_between(anchor, Clock::now());
    Json envelope = dispatcher_.dispatch(request);
    observation.handler_end = seconds_between(anchor, Clock::now());
    if (const Json* err = envelope.find("error"); err != nullptr) {
      if (const Json* c = err->find("code"); c != nullptr) {
        code = static_cast<int>(c->as_number());
      }
    }
    if (Clock::now() > deadline) {
      // Computed, but past the budget: the client contract is a 504,
      // even though the work was done (counted as a miss either way).
      deadline_missed_.fetch_add(1);
      code = ErrorCode::kDeadlineExceeded;
      response = make_error_response(
                     id, code, "deadline exceeded during evaluation")
                     .dump();
    } else {
      observation.has_serialize = true;
      observation.serialize_begin = seconds_between(anchor, Clock::now());
      response = envelope.dump();
      observation.serialize_end = seconds_between(anchor, Clock::now());
    }
  }
  requests_.fetch_add(1);

  observation.method = method;
  observation.code = code;
  observation.latency_seconds = seconds_between(anchor, Clock::now());
  observe_request(observation);
  return response;
}

void Server::observe_request(const RequestObservation& o) {
  std::lock_guard<std::mutex> lock(latency_mutex_);
  latency_.record(o.latency_seconds);
  if (o.has_handler) {
    // Pure handler wall time: the controller's nu-hat numerator is its
    // count over its sum, free of queue-wait bias.
    handler_seconds_.record(o.handler_end - o.handler_begin);
  }
  auto by_method = latency_by_method_.find(o.method);
  if (by_method == latency_by_method_.end()) {
    by_method = latency_by_method_.find("other");
  }
  by_method->second.record(o.latency_seconds);
  ++requests_by_code_[o.code];
  // Spans are the --trace feature: an untraced daemon keeps no per-request
  // record, so its memory does not grow with the requests it serves.
  if (!config_.trace) return;
  const double end = tracer_.wall_now();
  const double start = end - o.latency_seconds;
  const obs::SpanId id =
      tracer_.begin(obs::SpanLevel::kServeRequest, o.method, start,
                    obs::TimeDomain::kWallSeconds);
  tracer_.attr(id, "code", static_cast<double>(o.code));
  tracer_.attr(id, "queue_wait_seconds", o.queue_wait_seconds);
  if (o.sampled) {
    // Cross-process linkage + session-mining attrs, then retrospective
    // phase children. The whole batch lands under one latency_mutex_
    // hold, so a telemetry subscriber's span cursor never splits it.
    if (o.has_trace) {
      tracer_.attr(id, "trace_id", o.trace_id);
      tracer_.attr(id, "parent_span", static_cast<double>(o.parent_span));
    }
    tracer_.attr(id, "conn", static_cast<double>(o.conn));
    tracer_.attr(id, "seq", static_cast<double>(o.seq));
    const auto clamp = [&o](double offset) {
      if (offset < 0.0) return 0.0;
      return offset > o.latency_seconds ? o.latency_seconds : offset;
    };
    const auto phase = [&](const char* name, double begin_offset,
                           double end_offset) {
      const double b = clamp(begin_offset);
      const double e = clamp(end_offset) < b ? b : clamp(end_offset);
      const obs::SpanId child =
          tracer_.begin(obs::SpanLevel::kServePhase, name, start + b,
                        obs::TimeDomain::kWallSeconds, id);
      tracer_.end(child, start + e);
    };
    phase(o.first_request ? "admission_wait" : "queue_wait", 0.0,
          o.queue_wait_seconds);
    if (o.has_handler) phase("handler", o.handler_begin, o.handler_end);
    if (o.has_serialize) {
      phase("serialize", o.serialize_begin, o.serialize_end);
    }
  }
  tracer_.end(id, end);
}

}  // namespace upa::serve
