#include "upa/serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "upa/common/error.hpp"
#include "upa/profile/operational_profile.hpp"
#include "upa/serve/client.hpp"
#include "upa/sim/rng.hpp"

namespace upa::serve {

namespace {

using Clock = std::chrono::steady_clock;

double exponential(sim::Xoshiro256& rng, double rate) {
  return -std::log(rng.uniform01_open_left()) / rate;
}

struct RequestRecord {
  CallOutcome outcome = CallOutcome::kTransportError;
  int code = 0;
  double latency_seconds = 0.0;
};

/// Trace id for the k-th originated request of a run: seed plus an odd
/// multiple of the golden-ratio constant, so distinct indices map to
/// distinct ids (odd multiplication is a bijection mod 2^64) and a
/// rerun with the same seed regenerates the same join keys.
std::string trace_id_for(std::uint64_t seed, std::uint64_t index) {
  return make_trace_id(seed + 0x9e3779b97f4a7c15ULL * (index + 1));
}

}  // namespace

std::string method_for_function(const std::string& function_name) {
  if (function_name == "Home") return "ping";
  if (function_name == "Browse") return "mmck_metrics";
  if (function_name == "Search") return "web_farm_availability";
  if (function_name == "Book") return "user_availability";
  if (function_name == "Pay") return "composite_availability";
  return "ping";
}

std::string function_for_method(const std::string& method) {
  if (method == "ping") return "Home";
  if (method == "mmck_metrics") return "Browse";
  if (method == "web_farm_availability") return "Search";
  if (method == "user_availability") return "Book";
  if (method == "composite_availability") return "Pay";
  return "";
}

LossResult run_loss_workload(const LossConfig& config) {
  UPA_REQUIRE(config.lambda > 0.0, "LossConfig.lambda must be > 0");
  UPA_REQUIRE(config.nu > 0.0, "LossConfig.nu must be > 0");
  UPA_REQUIRE(config.requests > 0, "LossConfig.requests must be > 0");

  // Pre-draw the whole schedule so the request sequence is a pure
  // function of the seed: absolute arrival offsets (cumulative Exp(
  // lambda) gaps) and per-request Exp(nu) service holds.
  sim::Xoshiro256 rng(config.seed);
  std::vector<double> arrival_offsets(config.requests);
  std::vector<double> service_seconds(config.requests);
  double t = 0.0;
  for (std::size_t k = 0; k < config.requests; ++k) {
    t += exponential(rng, config.lambda);
    arrival_offsets[k] = t;
    service_seconds[k] = exponential(rng, config.nu);
  }

  std::vector<std::string> trace_ids(config.trace ? config.requests : 0);
  for (std::size_t k = 0; k < trace_ids.size(); ++k) {
    trace_ids[k] = trace_id_for(config.seed, k);
  }

  std::vector<RequestRecord> records(config.requests);
  std::vector<std::thread> in_flight;
  in_flight.reserve(config.requests);

  const Clock::time_point epoch = Clock::now();
  for (std::size_t k = 0; k < config.requests; ++k) {
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival_offsets[k])));
    in_flight.emplace_back([&, k] {
      const Clock::time_point start = Clock::now();
      Client client;
      try {
        client.connect(config.host, config.port,
                       config.connect_timeout_seconds,
                       config.call_timeout_seconds);
      } catch (const std::exception&) {
        records[k].outcome = CallOutcome::kTransportError;
        return;
      }
      Json params = Json::object();
      params.set("seconds", Json(service_seconds[k]));
      TraceContext trace;
      if (config.trace) {
        trace.trace_id = trace_ids[k];
        trace.span_id = 0;
        trace.sampled = true;
      }
      const CallResult r = client.call("sleep", std::move(params), k,
                                       config.trace ? &trace : nullptr);
      records[k].outcome = r.outcome;
      records[k].code = r.code;
      records[k].latency_seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
    });
  }
  for (std::thread& th : in_flight) th.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - epoch).count();

  LossResult out;
  out.sent = config.requests;
  double latency_sum = 0.0;
  std::size_t latency_count = 0;
  for (const RequestRecord& r : records) {
    switch (r.outcome) {
      case CallOutcome::kOk: ++out.ok; break;
      case CallOutcome::kRejected: ++out.rejected; break;
      case CallOutcome::kDeadline: ++out.deadline_missed; break;
      case CallOutcome::kTransportError: ++out.transport_errors; break;
      case CallOutcome::kError: ++out.other_errors; break;
    }
    if (r.outcome == CallOutcome::kOk) {
      latency_sum += r.latency_seconds;
      ++latency_count;
      out.max_latency_seconds =
          std::max(out.max_latency_seconds, r.latency_seconds);
    }
  }
  out.measured_loss =
      static_cast<double>(out.rejected) / static_cast<double>(out.sent);
  out.mean_latency_seconds =
      latency_count > 0 ? latency_sum / static_cast<double>(latency_count)
                        : 0.0;
  out.wall_seconds = wall;
  out.offered_rate = wall > 0.0 ? static_cast<double>(out.sent) / wall : 0.0;
  if (config.trace) {
    out.request_log.resize(config.requests);
    for (std::size_t k = 0; k < config.requests; ++k) {
      LossRequestLog& log = out.request_log[k];
      log.trace_id = trace_ids[k];
      log.scheduled_offset_seconds = arrival_offsets[k];
      log.method = "sleep";
      log.outcome = records[k].outcome;
      log.code = records[k].code;
      log.latency_seconds = records[k].latency_seconds;
    }
  }
  return out;
}

namespace {

/// Samples the next state of the session DTMC from the profile's
/// transition row.
std::size_t sample_transition(const profile::OperationalProfile& profile,
                              std::size_t state, sim::Xoshiro256& rng) {
  const auto row = profile.transition_matrix().row(state);
  const double u = rng.uniform01();
  double cumulative = 0.0;
  for (std::size_t next = 0; next < row.size(); ++next) {
    cumulative += row[next];
    if (u < cumulative) return next;
  }
  return profile.exit_state();
}

struct SessionRecord {
  bool connected = false;
  bool rejected = false;
  bool failed = false;
  std::size_t invocations = 0;
  std::size_t failures = 0;
};

}  // namespace

SessionResult run_session_replay(const SessionConfig& config) {
  UPA_REQUIRE(config.session_rate > 0.0,
              "SessionConfig.session_rate must be > 0");
  UPA_REQUIRE(config.sessions > 0, "SessionConfig.sessions must be > 0");

  const profile::OperationalProfile profile =
      ta::fitted_session_graph(config.uclass);

  // Pre-walk every session: the visited function sequence and the
  // arrival offset are drawn up front (pure function of the seed), so
  // server-side behavior cannot perturb the replayed workload.
  sim::Xoshiro256 rng(config.seed);
  std::vector<double> arrival_offsets(config.sessions);
  std::vector<std::vector<std::string>> walks(config.sessions);
  double t = 0.0;
  for (std::size_t s = 0; s < config.sessions; ++s) {
    t += exponential(rng, config.session_rate);
    arrival_offsets[s] = t;
    std::size_t state = profile::NodeIndex::kStart;
    while (true) {
      state = sample_transition(profile, state, rng);
      if (state == profile.exit_state()) break;
      walks[s].push_back(profile.function_name(state - 1));
    }
  }

  // Trace ids are numbered over the pre-walked invocation sequence, so
  // they too are a pure function of the seed.
  std::vector<std::vector<std::string>> walk_trace_ids(
      config.trace ? config.sessions : 0);
  if (config.trace) {
    std::uint64_t next = 0;
    for (std::size_t s = 0; s < config.sessions; ++s) {
      walk_trace_ids[s].reserve(walks[s].size());
      for (std::size_t i = 0; i < walks[s].size(); ++i) {
        walk_trace_ids[s].push_back(trace_id_for(config.seed, next++));
      }
    }
  }

  std::vector<SessionRecord> records(config.sessions);
  std::vector<std::vector<SessionInvocationLog>> logs(
      config.trace ? config.sessions : 0);
  std::vector<std::thread> in_flight;
  in_flight.reserve(config.sessions);

  const Clock::time_point epoch = Clock::now();
  for (std::size_t s = 0; s < config.sessions; ++s) {
    std::this_thread::sleep_until(
        epoch + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival_offsets[s])));
    in_flight.emplace_back([&, s] {
      SessionRecord& rec = records[s];
      Client client;
      try {
        client.connect(config.host, config.port,
                       config.connect_timeout_seconds,
                       config.call_timeout_seconds);
      } catch (const std::exception&) {
        rec.failed = true;
        return;
      }
      rec.connected = true;
      std::uint64_t id = 0;
      for (const std::string& function : walks[s]) {
        const std::size_t i = static_cast<std::size_t>(id);
        const std::string method = method_for_function(function);
        Json params = Json::object();
        if (function == "Book") params.set("class", Json("B"));
        TraceContext trace;
        if (config.trace) {
          trace.trace_id = walk_trace_ids[s][i];
          trace.span_id = 0;
          trace.sampled = true;
        }
        const CallResult r =
            client.call(method, std::move(params), id++,
                        config.trace ? &trace : nullptr);
        ++rec.invocations;
        if (config.trace) {
          SessionInvocationLog log;
          log.session = s;
          log.invocation = i;
          log.function = function;
          log.method = method;
          log.trace_id = walk_trace_ids[s][i];
          log.outcome = r.outcome;
          log.code = r.code;
          logs[s].push_back(std::move(log));
        }
        if (r.outcome == CallOutcome::kRejected) {
          // Admission turned the session away. Admission judges each
          // line, so the 503 can answer any invocation of the session,
          // not only the first; everything after it is moot.
          rec.rejected = true;
          break;
        }
        if (!r.ok()) {
          ++rec.failures;
          if (r.outcome == CallOutcome::kTransportError) {
            rec.failed = true;
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : in_flight) th.join();

  SessionResult out;
  out.sessions = config.sessions;
  for (const SessionRecord& rec : records) {
    out.invocations += rec.invocations;
    out.invocation_failures += rec.failures;
    if (rec.rejected) {
      ++out.rejected;
    } else if (rec.failed) {
      ++out.failed;
    } else if (rec.connected && rec.failures == 0) {
      ++out.completed;
    } else {
      ++out.failed;
    }
  }
  out.mean_invocations_per_session =
      static_cast<double>(out.invocations) /
      static_cast<double>(out.sessions);
  out.session_success_fraction = static_cast<double>(out.completed) /
                                 static_cast<double>(out.sessions);
  if (config.trace) {
    for (std::vector<SessionInvocationLog>& session_log : logs) {
      for (SessionInvocationLog& log : session_log) {
        out.invocation_log.push_back(std::move(log));
      }
    }
  }
  return out;
}

SmokeResult run_smoke_probe(const std::string& host, std::uint16_t port) {
  SmokeResult out;
  Client client;
  try {
    client.connect(host, port);
  } catch (const std::exception&) {
    out.checks.emplace_back("connect", false);
    out.all_ok = false;
    return out;
  }
  out.checks.emplace_back("connect", true);

  const auto check = [&](const std::string& method, Json params) {
    const CallResult r = client.call(method, std::move(params));
    out.checks.emplace_back(method, r.ok());
  };

  Json tiny_sim = Json::object();
  tiny_sim.set("sessions", Json(200));
  tiny_sim.set("reps", Json(2));
  tiny_sim.set("horizon", Json(500.0));

  check("ping", Json());
  {
    Json p = Json::object();
    p.set("seconds", Json(0.001));
    check("sleep", std::move(p));
  }
  check("steady_state", Json());
  check("mmck_metrics", Json());
  check("web_farm_availability", Json());
  check("composite_availability", Json());
  {
    Json p = Json::object();
    p.set("class", Json("B"));
    check("user_availability", std::move(p));
  }
  check("run_campaign", tiny_sim);
  check("simulate_end_to_end", tiny_sim);
  {
    Json p = Json::object();
    p.set("op", Json("stats"));
    check("cache", std::move(p));
  }
  check("stats", Json());

  out.all_ok = true;
  for (const auto& [name, ok] : out.checks) out.all_ok = out.all_ok && ok;
  return out;
}

}  // namespace upa::serve
