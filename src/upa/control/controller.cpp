#include "upa/control/controller.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/obs/trace.hpp"

namespace upa::control {

using serve::CallOutcome;
using serve::CallResult;
using serve::Client;
using serve::Json;

namespace {

/// Pulls one number out of a metrics tick section (`counters`, or one
/// histogram object); throws ModelError on a tick missing it (an
/// incompatible server).
double tick_number(const Json& section, const char* name) {
  const Json* v = section.find(name);
  UPA_REQUIRE(v != nullptr && v->is_number(),
              std::string("telemetry tick lacks '") + name + "'");
  return v->as_number();
}

std::size_t result_size(const Json& result, const char* name) {
  const Json* v = result.find(name);
  UPA_REQUIRE(v != nullptr && v->is_number() && v->as_number() >= 0.0,
              std::string("stats result lacks '") + name + "'");
  return static_cast<std::size_t>(v->as_number());
}

}  // namespace

Controller::Controller(ControllerOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      estimator_(options_.estimator) {
  UPA_REQUIRE(options_.port != 0, "ControllerOptions.port must be set");
  UPA_REQUIRE(options_.tick_interval_seconds >= 0.01 &&
                  options_.tick_interval_seconds <= 60.0,
              "tick interval must be in [0.01, 60] seconds");
  UPA_REQUIRE(options_.apply_attempts >= 1,
              "apply_attempts must be >= 1");
  UPA_REQUIRE(options_.apply_backoff_seconds >= 0.0,
              "apply backoff must be >= 0");
}

Controller::~Controller() { stop(); }

double Controller::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Controller::start() {
  UPA_REQUIRE(!thread_.joinable(), "Controller::start called twice");
  stop_.store(false);

  // Seed the policy's view of (i, K) from the live server, so the first
  // decision diffs against reality instead of an assumed default.
  Client seed;
  seed.connect(options_.host, options_.port,
               options_.connect_timeout_seconds);
  const CallResult stats_result = seed.call("stats", Json::object());
  UPA_REQUIRE(stats_result.ok(),
              "stats RPC failed while seeding the controller: " +
                  stats_result.error_message);
  const Json* result = stats_result.result();
  UPA_REQUIRE(result != nullptr, "stats RPC returned no result");
  const std::size_t workers = result_size(*result, "workers");
  const std::size_t capacity = result_size(*result, "capacity");
  policy_.emplace(options_.policy, workers, capacity);
  seed.close();

  subscription_ = Client();
  subscription_.connect(options_.host, options_.port,
                        options_.connect_timeout_seconds);
  Json params = Json::object();
  params.set("interval_ms",
             Json(options_.tick_interval_seconds * 1000.0));
  const CallResult ack =
      subscription_.call("subscribe", std::move(params));
  UPA_REQUIRE(ack.ok(), "subscribe refused: " + ack.error_message);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = ControllerStats{};
    stats_.workers = workers;
    stats_.capacity = capacity;
    stats_.connected = true;
  }
  estimator_.reset();
  thread_ = std::thread([this] { run(); });
}

void Controller::stop() {
  stop_.store(true);
  if (subscription_.connected()) subscription_.shutdown_both();
  if (thread_.joinable()) thread_.join();
  subscription_.close();
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.connected = false;
}

ControllerStats Controller::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Controller::run() {
  while (!stop_.load()) {
    std::string line;
    try {
      line = subscription_.read_line();
    } catch (const std::exception&) {
      // EOF (server stopped), timeout, or stop()'s shutdown_both.
      break;
    }
    Json parsed;
    try {
      parsed = serve::parse_json(line);
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
      continue;
    }
    if (!parsed.is_object()) continue;
    const Json* kind = parsed.find("telemetry");
    if (kind == nullptr || !kind->is_string() ||
        kind->as_string() != "metrics") {
      continue;  // span lines and acks are not control input
    }
    try {
      handle_metrics_line(parsed);
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.errors;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.connected = false;
}

void Controller::handle_metrics_line(const Json& line) {
  const Json* counters = line.find("counters");
  const Json* histograms = line.find("histograms");
  const Json* handler = histograms != nullptr
                            ? histograms->find("serve.handler_seconds")
                            : nullptr;
  UPA_REQUIRE(counters != nullptr && counters->is_object() &&
                  handler != nullptr && handler->is_object(),
              "telemetry tick lacks counters or serve.handler_seconds");
  CounterSample sample;
  sample.t = now_seconds();
  const double accepted = tick_number(*counters, "serve.accepted");
  sample.rejected = tick_number(*counters, "serve.rejected");
  sample.arrivals = accepted + sample.rejected;
  sample.handled = tick_number(*handler, "count");
  sample.busy_seconds = tick_number(*handler, "sum");
  estimator_.observe(sample);
  const RateEstimate estimate = estimator_.estimate();
  const PolicyDecision decision = policy_->decide(estimate, sample.t);

  obs::Observer* ob = options_.obs;
  obs::SpanId span = 0;
  if (ob != nullptr) {
    span = ob->tracer.begin(obs::SpanLevel::kControlDecision,
                            decision.reason, ob->tracer.wall_now(),
                            obs::TimeDomain::kWallSeconds);
    ob->tracer.attr(span, "lambda", estimate.lambda);
    ob->tracer.attr(span, "nu", estimate.nu);
    ob->tracer.attr(span, "loss", estimate.loss);
    ob->tracer.attr(span, "plan_workers",
                    static_cast<double>(decision.workers));
    ob->tracer.attr(span, "plan_capacity",
                    static_cast<double>(decision.capacity));
  }

  bool applied = false;
  if (decision.act) {
    applied = apply(decision.workers, decision.capacity);
    if (applied) {
      policy_->applied(decision.workers, decision.capacity,
                       now_seconds());
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.ticks;
    ++stats_.decisions;
    if (decision.act && applied) ++stats_.applies;
    if (decision.act && !applied) ++stats_.apply_failures;
    stats_.workers = policy_->current_workers();
    stats_.capacity = policy_->current_capacity();
    stats_.lambda = estimate.lambda;
    stats_.nu = estimate.nu;
    stats_.loss = estimate.loss;
  }

  if (ob != nullptr) {
    ob->tracer.attr(span, "applied", applied ? 1.0 : 0.0);
    ob->tracer.end(span, ob->tracer.wall_now());
    const ControllerStats s = stats();
    ob->metrics.gauge("ctl.lambda").set(s.lambda);
    ob->metrics.gauge("ctl.nu").set(s.nu);
    ob->metrics.gauge("ctl.loss").set(s.loss);
    ob->metrics.gauge("ctl.workers").set(static_cast<double>(s.workers));
    ob->metrics.gauge("ctl.capacity")
        .set(static_cast<double>(s.capacity));
    ob->metrics.gauge("ctl.applies").set(static_cast<double>(s.applies));
    ob->metrics.gauge("ctl.ticks").set(static_cast<double>(s.ticks));
  }
}

bool Controller::apply(std::size_t workers, std::size_t capacity) {
  for (std::size_t attempt = 0; attempt < options_.apply_attempts;
       ++attempt) {
    if (stop_.load()) return false;
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options_.apply_backoff_seconds));
    }
    try {
      Client client;
      client.connect(options_.host, options_.port,
                     options_.connect_timeout_seconds);
      Json params = Json::object();
      params.set("workers", Json(static_cast<double>(workers)));
      params.set("capacity", Json(static_cast<double>(capacity)));
      const CallResult r = client.call("reconfigure", std::move(params));
      if (r.ok()) return true;
      if (r.outcome != CallOutcome::kRejected &&
          r.outcome != CallOutcome::kTransportError) {
        return false;  // 400/500: a retry cannot change the answer
      }
    } catch (const std::exception&) {
      // connect refused/timed out: contention or restart; retry below
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.apply_retries;
  }
  return false;
}

}  // namespace upa::control
