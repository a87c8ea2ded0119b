#include "upa/serve/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"
#include "upa/common/numeric.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/inject/campaign.hpp"
#include "upa/inject/injectors.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/anti_entropy.hpp"
#include "upa/ta/end_to_end_sim.hpp"
#include "upa/ta/services.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

namespace upa::serve {

namespace {

// --- params helpers ------------------------------------------------------

double get_number(const Json& params, const std::string& key,
                  double fallback) {
  const Json* v = params.find(key);
  if (v == nullptr) return fallback;
  return v->as_number();
}

/// Largest integer a double represents exactly (2^53). The default cap
/// for integer params; the double-to-size_t cast below would be
/// undefined behavior for values above SIZE_MAX, and these come straight
/// from untrusted request lines.
constexpr double kMaxSafeInteger = 9007199254740992.0;

std::size_t get_size(const Json& params, const std::string& key,
                     std::size_t fallback,
                     double max_value = kMaxSafeInteger) {
  const Json* v = params.find(key);
  if (v == nullptr) return fallback;
  const double d = v->as_number();
  UPA_REQUIRE(d >= 0.0 && d == std::floor(d),
              "param '" + key + "' must be a non-negative integer");
  UPA_REQUIRE(d <= max_value, "param '" + key + "' must be <= " +
                                  format_number(max_value));
  return static_cast<std::size_t>(d);
}

bool get_bool(const Json& params, const std::string& key, bool fallback) {
  const Json* v = params.find(key);
  if (v == nullptr) return fallback;
  return v->as_bool();
}

std::string get_string(const Json& params, const std::string& key,
                       const std::string& fallback) {
  const Json* v = params.find(key);
  if (v == nullptr) return fallback;
  return v->as_string();
}

/// Model parameters from a params object, mirroring the upa_cli override
/// names; anything absent keeps the paper's Table 7 default.
ta::TaParameters ta_params_from(const Json& params) {
  ta::TaParameters p = ta::TaParameters::paper_defaults();
  p = p.with_reservation_systems(get_size(params, "n", 1, 1e3));
  p.n_web = get_size(params, "nw", p.n_web, 1e3);
  p.lambda_web = get_number(params, "lambda", p.lambda_web);
  p.mu_web = get_number(params, "mu", p.mu_web);
  p.coverage = get_number(params, "coverage", p.coverage);
  p.beta = get_number(params, "beta", p.beta);
  p.alpha = get_number(params, "alpha", p.alpha);
  p.nu = get_number(params, "nu", p.nu);
  p.buffer = get_size(params, "buffer", p.buffer, 1e6);
  if (get_bool(params, "basic", false))
    p.architecture = ta::Architecture::kBasic;
  if (get_bool(params, "perfect", false))
    p.coverage_model = ta::CoverageModel::kPerfect;
  p.validate();
  return p;
}

ta::UserClass user_class_from(const Json& params) {
  const std::string name = get_string(params, "class", "B");
  if (name == "A" || name == "a") return ta::UserClass::kA;
  if (name == "B" || name == "b") return ta::UserClass::kB;
  throw common::ModelError("param 'class' must be A or B, got " + name);
}

/// End-to-end simulator options from params. Defaults are sized for an
/// interactive service (seconds, not minutes, per request); threads
/// default to 1 because each RPC already runs on a server worker --
/// multiplying parallelism per request would oversubscribe the host.
ta::EndToEndOptions end_to_end_options_from(const Json& params) {
  ta::EndToEndOptions o;
  o.horizon_hours = get_number(params, "horizon", 2000.0);
  o.think_time_hours = get_number(params, "think", 0.0);
  o.sessions_per_replication = get_size(params, "sessions", 2000, 1e7);
  o.replications = get_size(params, "reps", 2, 1e5);
  o.seed = get_size(params, "seed", 42);
  o.threads = get_size(params, "threads", 1, 1024);
  o.retry.max_retries = get_size(params, "retries", 0, 1e4);
  o.retry.backoff_base_hours = get_number(params, "backoff", 0.25);
  o.retry.backoff_multiplier = get_number(params, "backoff_mult", 2.0);
  o.retry.response_timeout_seconds =
      get_number(params, "timeout_ms", 0.0) / 1000.0;
  o.retry.abandonment_probability = get_number(params, "abandon", 0.0);
  o.validate();
  return o;
}

Json json_vector(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push_back(Json(v));
  return out;
}

Json json_interval(const sim::ConfidenceInterval& ci) {
  Json out = Json::object();
  out.set("mean", Json(ci.mean));
  out.set("half_width", Json(ci.half_width));
  out.set("low", Json(ci.low));
  out.set("high", Json(ci.high));
  return out;
}

// --- built-in methods ----------------------------------------------------

Json method_ping(const Json&) {
  Json out = Json::object();
  out.set("pong", Json(true));
  return out;
}

Json method_sleep(const Json& params) {
  const double seconds = get_number(params, "seconds", 0.0);
  UPA_REQUIRE(seconds >= 0.0 && seconds <= 60.0,
              "param 'seconds' must be in [0, 60]");
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  Json out = Json::object();
  out.set("slept_seconds", Json(seconds));
  return out;
}

Json method_steady_state(const Json& params) {
  const ta::TaParameters p = ta_params_from(params);
  const auto farm = ta::web_farm_params(p);
  const std::string model = get_string(params, "model", "imperfect");
  markov::Ctmc chain = [&] {
    if (model == "perfect") return core::perfect_coverage_chain(farm);
    if (model == "imperfect")
      return core::imperfect_coverage_chain(farm).chain;
    throw common::ModelError("param 'model' must be perfect or imperfect, got " +
                             model);
  }();
  const auto report = chain.steady_state_robust();
  Json out = Json::object();
  out.set("model", Json(model));
  out.set("states", Json(chain.state_count()));
  out.set("method", Json(markov::stationary_method_name(report.method)));
  out.set("residual", Json(report.residual));
  out.set("distribution", json_vector(report.distribution));
  return out;
}

Json method_mmck_metrics(const Json& params) {
  const double alpha = get_number(params, "alpha", 100.0);
  const double nu = get_number(params, "nu", 100.0);
  const std::size_t servers = get_size(params, "servers", 4, 1e4);
  const std::size_t capacity = get_size(params, "capacity", 10, 1e6);
  const auto m = queueing::mmck_metrics(alpha, nu, servers, capacity);
  Json out = Json::object();
  out.set("rho", Json(m.rho));
  out.set("loss_probability", Json(m.blocking));
  out.set("mean_in_system", Json(m.mean_in_system));
  out.set("mean_in_queue", Json(m.mean_in_queue));
  out.set("throughput", Json(m.throughput));
  out.set("mean_response", Json(m.mean_response));
  out.set("mean_busy_servers", Json(m.mean_busy_servers));
  out.set("state_probabilities", json_vector(m.state_probabilities));
  return out;
}

Json method_web_farm_availability(const Json& params) {
  const ta::TaParameters p = ta_params_from(params);
  const auto farm = ta::web_farm_params(p);
  const auto queue = ta::web_queue_params(p);
  const bool perfect = p.coverage_model == ta::CoverageModel::kPerfect ||
                       p.architecture == ta::Architecture::kBasic;
  const double a =
      perfect ? core::web_service_availability_perfect(farm, queue)
              : core::web_service_availability_imperfect(farm, queue);
  Json out = Json::object();
  out.set("coverage_model", Json(perfect ? "perfect" : "imperfect"));
  out.set("availability", Json(a));
  out.set("downtime_minutes_per_year",
          Json(common::downtime_minutes_per_year(a)));
  if (const Json* deadline = params.find("deadline"); deadline != nullptr) {
    const double tau = deadline->as_number();
    const double ad =
        perfect ? core::web_service_availability_perfect_with_deadline(
                      farm, queue, tau)
                : core::web_service_availability_imperfect_with_deadline(
                      farm, queue, tau);
    out.set("deadline_seconds", Json(tau));
    out.set("availability_with_deadline", Json(ad));
  }
  return out;
}

Json method_composite_availability(const Json& params) {
  const ta::TaParameters p = ta_params_from(params);
  const auto farm = ta::web_farm_params(p);
  const auto queue = ta::web_queue_params(p);
  const bool perfect = p.coverage_model == ta::CoverageModel::kPerfect ||
                       p.architecture == ta::Architecture::kBasic;
  const auto composite = perfect ? core::composite_perfect(farm, queue)
                                 : core::composite_imperfect(farm, queue);
  const auto breakdown = composite.breakdown();
  Json out = Json::object();
  out.set("coverage_model", Json(perfect ? "perfect" : "imperfect"));
  out.set("availability", Json(breakdown.availability));
  out.set("performance_loss", Json(breakdown.performance_loss));
  out.set("downtime_loss", Json(breakdown.downtime_loss));
  out.set("states", Json(composite.chain().state_count()));
  return out;
}

Json method_user_availability(const Json& params) {
  const ta::TaParameters p = ta_params_from(params);
  const ta::UserClass uclass = user_class_from(params);
  const double a = ta::user_availability_eq10(uclass, p);
  Json out = Json::object();
  out.set("class", Json(ta::user_class_name(uclass)));
  out.set("availability", Json(a));
  out.set("downtime_hours_per_year",
          Json(common::downtime_hours_per_year(a)));
  Json categories = Json::object();
  for (const auto& [category, ua] :
       ta::category_breakdown(uclass, p).unavailability) {
    categories.set(ta::category_name(category), Json(ua));
  }
  out.set("category_unavailability", categories);
  return out;
}

Json method_run_campaign(const Json& params) {
  const ta::TaParameters p = ta_params_from(params);
  const ta::UserClass uclass = user_class_from(params);

  inject::CampaignOptions options;
  options.end_to_end = end_to_end_options_from(params);
  options.threads = 1;

  const auto target = inject::fault_target_from_name(
      get_string(params, "target", "web-farm"));
  const double start = get_number(params, "outage_start", 100.0);
  const double duration = get_number(params, "outage_hours", 2.0);
  std::vector<inject::CampaignPlan> plans;
  plans.push_back(
      {inject::fault_target_name(target) + " outage",
       inject::scripted_outage(target, start, duration,
                               options.end_to_end.horizon_hours)});

  const auto campaign = inject::run_campaign(uclass, p, options, plans);
  Json entries = Json::array();
  for (const auto& e : campaign.entries) {
    Json entry = Json::object();
    entry.set("name", Json(e.name));
    entry.set("perceived_availability",
              json_interval(e.perceived_availability));
    entry.set("delta_vs_baseline", Json(e.delta_vs_baseline));
    entry.set("observed_web_service_availability",
              Json(e.observed_web_service_availability));
    entry.set("mean_retries_per_session", Json(e.mean_retries_per_session));
    entry.set("abandonment_fraction", Json(e.abandonment_fraction));
    entries.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("class", Json(ta::user_class_name(uclass)));
  out.set("entries", std::move(entries));
  return out;
}

Json method_simulate_end_to_end(const Json& params) {
  const ta::TaParameters p = ta_params_from(params);
  const ta::UserClass uclass = user_class_from(params);
  const ta::EndToEndOptions options = end_to_end_options_from(params);
  const auto result = ta::simulate_end_to_end(uclass, p, options);
  Json out = Json::object();
  out.set("class", Json(ta::user_class_name(uclass)));
  out.set("perceived_availability",
          json_interval(result.perceived_availability));
  out.set("observed_web_service_availability",
          Json(result.observed_web_service_availability));
  out.set("mean_session_duration_hours",
          Json(result.mean_session_duration_hours));
  out.set("mean_retries_per_session", Json(result.mean_retries_per_session));
  out.set("abandonment_fraction", Json(result.abandonment_fraction));
  return out;
}

Json cache_stats_json() {
  const cache::CacheStats s = cache::global().stats();
  Json out = Json::object();
  out.set("enabled", Json(cache::enabled()));
  out.set("entries", Json(cache::global().size()));
  out.set("hits", Json(static_cast<double>(s.hits)));
  out.set("misses", Json(static_cast<double>(s.misses)));
  out.set("inserts", Json(static_cast<double>(s.inserts)));
  out.set("evictions", Json(static_cast<double>(s.evictions)));
  out.set("hit_rate", Json(s.hit_rate()));
  out.set("disk_hits", Json(static_cast<double>(s.disk_hits)));
  if (const cache::PersistentCache* p = cache::global_persistence()) {
    const cache::PersistStats ps = p->stats();
    Json persist = Json::object();
    persist.set("directory", Json(p->directory()));
    persist.set("segments_loaded",
                Json(static_cast<double>(ps.segments_loaded)));
    persist.set("segments_rejected",
                Json(static_cast<double>(ps.segments_rejected)));
    persist.set("indexes_loaded",
                Json(static_cast<double>(ps.indexes_loaded)));
    persist.set("indexes_rebuilt",
                Json(static_cast<double>(ps.indexes_rebuilt)));
    persist.set("records_indexed",
                Json(static_cast<double>(ps.records_indexed)));
    persist.set("bytes_mapped", Json(static_cast<double>(ps.bytes_mapped)));
    persist.set("records_replayed",
                Json(static_cast<double>(ps.records_replayed)));
    persist.set("disk_hits", Json(static_cast<double>(ps.disk_hits)));
    persist.set("records_skipped_crc",
                Json(static_cast<double>(ps.records_skipped_crc)));
    persist.set("records_skipped_decode",
                Json(static_cast<double>(ps.records_skipped_decode)));
    persist.set("records_appended",
                Json(static_cast<double>(ps.records_appended)));
    persist.set("write_errors",
                Json(static_cast<double>(ps.write_errors)));
    persist.set("compactions", Json(static_cast<double>(ps.compactions)));
    persist.set("compact_records_dropped",
                Json(static_cast<double>(ps.compact_records_dropped)));
    out.set("persist", std::move(persist));
  }
  if (const AntiEntropyAgent* agent = global_anti_entropy()) {
    const AntiEntropyStats as = agent->stats();
    Json anti = Json::object();
    anti.set("rounds", Json(static_cast<double>(as.rounds)));
    anti.set("pulls_ok", Json(static_cast<double>(as.pulls_ok)));
    anti.set("pull_errors", Json(static_cast<double>(as.pull_errors)));
    anti.set("records_pulled",
             Json(static_cast<double>(as.records_pulled)));
    anti.set("rounds_converged",
             Json(static_cast<double>(as.rounds_converged)));
    anti.set("pages_pulled",
             Json(static_cast<double>(as.pages_pulled)));
    out.set("anti_entropy", std::move(anti));
  }
  return out;
}

/// `cache` method: lets a long-lived server flush or re-enable the
/// process-wide evaluation cache between reconfigurations without a
/// restart, and answers the anti-entropy exchange peers use to move
/// warm sets (`fingerprint`, then paged `pull`). Every op returns the
/// post-op stats snapshot.
Json method_cache(const Json& params) {
  const std::string op = get_string(params, "op", "stats");
  Json extra = Json::object();
  if (op == "clear") {
    cache::global().clear();
  } else if (op == "reset_stats") {
    cache::global().reset_stats();
  } else if (op == "enable") {
    cache::set_enabled(true);
  } else if (op == "disable") {
    cache::set_enabled(false);
  } else if (op == "fingerprint") {
    // Anti-entropy step 0: the O(1) convergence check. Two replicas
    // whose (count, fold) pairs match hold the same warm set, so the
    // round ends here instead of shipping the full digest summary.
    const cache::DigestFingerprint fp =
        cache::digest_fingerprint(cache::global());
    extra.set("digest_count", Json(static_cast<double>(fp.count)));
    extra.set("fingerprint_hex",
              Json(cache::to_hex(cache::encode_digests({fp.fold}))));
  } else if (op == "pull") {
    // Anti-entropy step 1: answer with ONLY the records the caller's
    // digest summary is missing (an empty/absent have_hex asks for
    // everything), cut into digest-ordered pages resumed via cursor.
    // max_bytes can only shrink a page below kCachePullPageBytes, so
    // no reply line outgrows the protocol's line cap.
    const std::string have_hex = get_string(params, "have_hex", "");
    const std::vector<std::uint64_t> have =
        cache::decode_digests(cache::from_hex(have_hex));
    const std::size_t max_bytes = std::min(
        get_size(params, "max_bytes", kCachePullPageBytes),
        kCachePullPageBytes);
    const std::string cursor_hex = get_string(params, "cursor", "");
    std::uint64_t cursor = 0;
    if (!cursor_hex.empty()) {
      const std::vector<std::uint64_t> decoded =
          cache::decode_digests(cache::from_hex(cursor_hex));
      UPA_REQUIRE(decoded.size() == 1, "param 'cursor' must be 16 hex chars");
      cursor = decoded.front();
    }
    const cache::DeltaPage page =
        cache::export_delta_page(cache::global(), have, cursor, max_bytes);
    extra.set("have_count", Json(static_cast<double>(have.size())));
    extra.set("delta_records", Json(static_cast<double>(page.records)));
    extra.set("skipped_no_codec",
              Json(static_cast<double>(page.skipped_no_codec)));
    extra.set("segment_hex", Json(cache::to_hex(page.blob)));
    extra.set("complete", Json(page.complete));
    extra.set("next_cursor", Json(cache::to_hex(cache::encode_digests(
                                 {page.next_cursor}))));
  } else if (op != "stats") {
    throw common::ModelError(
        "param 'op' must be stats, clear, reset_stats, enable, disable, "
        "fingerprint, or pull, got " +
        op);
  }
  Json out = cache_stats_json();
  out.set("op", Json(op));
  for (const auto& [key, value] : extra.as_object()) {
    out.set(key, value);
  }
  return out;
}

}  // namespace

std::optional<TraceContext> parse_trace_context(const Json& request) {
  const Json* trace = request.find("trace");
  if (trace == nullptr) return std::nullopt;
  UPA_REQUIRE(trace->is_object(), "'trace' must be an object when present");
  TraceContext context;

  const Json* trace_id = trace->find("trace_id");
  UPA_REQUIRE(trace_id != nullptr && trace_id->is_string(),
              "'trace.trace_id' must be a string");
  context.trace_id = trace_id->as_string();
  UPA_REQUIRE(!context.trace_id.empty() && context.trace_id.size() <= 32,
              "'trace.trace_id' must be 1-32 hex chars");
  for (const char c : context.trace_id) {
    UPA_REQUIRE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'),
                "'trace.trace_id' must be lowercase hex");
  }

  if (const Json* span_id = trace->find("span_id"); span_id != nullptr) {
    UPA_REQUIRE(span_id->is_number(), "'trace.span_id' must be a number");
    const double d = span_id->as_number();
    UPA_REQUIRE(d >= 0.0 && d == std::floor(d) && d <= kMaxSafeInteger,
                "'trace.span_id' must be a non-negative integer");
    context.span_id = static_cast<std::uint64_t>(d);
  }

  if (const Json* sampled = trace->find("sampled"); sampled != nullptr) {
    UPA_REQUIRE(sampled->is_bool(), "'trace.sampled' must be a boolean");
    context.sampled = sampled->as_bool();
  }
  return context;
}

Json trace_context_json(const TraceContext& context) {
  Json trace = Json::object();
  trace.set("trace_id", Json(context.trace_id));
  trace.set("span_id", Json(static_cast<double>(context.span_id)));
  trace.set("sampled", Json(context.sampled));
  return trace;
}

std::string with_trace_context(const Json& request,
                               const TraceContext& context) {
  Json rewritten = request;
  rewritten.set("trace", trace_context_json(context));
  return rewritten.dump();
}

std::string make_trace_id(std::uint64_t seed) {
  // splitmix64 finalizer (Steele et al.): a bijection on uint64, so
  // distinct seeds give distinct ids.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 15; i >= 0; --i) {
    id[static_cast<std::size_t>(i)] = kHex[z & 0xf];
    z >>= 4;
  }
  return id;
}

std::string call_outcome_name(CallOutcome outcome) {
  switch (outcome) {
    case CallOutcome::kOk: return "ok";
    case CallOutcome::kRejected: return "rejected";
    case CallOutcome::kDeadline: return "deadline";
    case CallOutcome::kError: return "error";
    case CallOutcome::kTransportError: return "transport_error";
  }
  return "?";
}

Json make_result_response(const Json& id, Json result) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", Json(true));
  response.set("result", std::move(result));
  return response;
}

Json make_error_response(const Json& id, int code,
                         const std::string& message) {
  Json error = Json::object();
  error.set("code", Json(code));
  error.set("message", Json(message));
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", Json(false));
  response.set("error", std::move(error));
  return response;
}

Dispatcher::Dispatcher() {
  register_method("ping", method_ping);
  register_method("sleep", method_sleep);
  register_method("steady_state", method_steady_state);
  register_method("mmck_metrics", method_mmck_metrics);
  register_method("web_farm_availability", method_web_farm_availability);
  register_method("composite_availability", method_composite_availability);
  register_method("user_availability", method_user_availability);
  register_method("run_campaign", method_run_campaign);
  register_method("simulate_end_to_end", method_simulate_end_to_end);
  register_method("cache", method_cache);
}

void Dispatcher::register_method(const std::string& name, Handler handler) {
  UPA_REQUIRE(!name.empty(), "method name must be non-empty");
  UPA_REQUIRE(handler != nullptr, "method handler must be callable");
  methods_[name] = std::move(handler);
}

std::vector<std::string> Dispatcher::method_names() const {
  std::vector<std::string> names;
  names.reserve(methods_.size());
  for (const auto& [name, handler] : methods_) names.push_back(name);
  return names;
}

Json Dispatcher::dispatch(const Json& request) const {
  if (!request.is_object()) {
    return make_error_response(Json(), ErrorCode::kBadRequest,
                               "request must be a JSON object");
  }
  const Json* id_member = request.find("id");
  const Json id = id_member != nullptr ? *id_member : Json();
  try {
    // Validate (but do not act on) any trace context: a malformed trace
    // member is a caller bug and must 400 instead of silently riding
    // along. Valid context is consumed by the server's span recording.
    (void)parse_trace_context(request);
  } catch (const common::ModelError& e) {
    return make_error_response(id, ErrorCode::kBadRequest, e.what());
  }
  const Json* method = request.find("method");
  if (method == nullptr || !method->is_string()) {
    return make_error_response(id, ErrorCode::kBadRequest,
                               "request needs a string 'method' member");
  }
  const auto it = methods_.find(method->as_string());
  if (it == methods_.end()) {
    std::string known;
    for (const std::string& name : method_names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return make_error_response(
        id, ErrorCode::kUnknownMethod,
        "unknown method '" + method->as_string() + "' (known: " + known + ")");
  }
  const Json* params = request.find("params");
  if (params != nullptr && !params->is_object() && !params->is_null()) {
    return make_error_response(id, ErrorCode::kBadRequest,
                               "'params' must be an object when present");
  }
  try {
    return make_result_response(
        id, it->second(params != nullptr ? *params : Json()));
  } catch (const common::ModelError& e) {
    return make_error_response(id, ErrorCode::kBadRequest, e.what());
  } catch (const std::exception& e) {
    return make_error_response(id, ErrorCode::kInternal, e.what());
  }
}

std::string Dispatcher::dispatch_line(const std::string& line) const {
  Json request;
  try {
    request = parse_json(line);
  } catch (const std::exception& e) {
    return make_error_response(Json(), ErrorCode::kBadRequest, e.what())
        .dump();
  }
  return dispatch(request).dump();
}

}  // namespace upa::serve
