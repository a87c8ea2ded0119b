#include "upa/serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stop_token>
#include <thread>

#include "upa/common/error.hpp"
#include "upa/profile/operational_profile.hpp"
#include "upa/serve/client.hpp"
#include "upa/sim/rng.hpp"

namespace upa::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// How long before its due time a unit's connection is opened: room for
/// a loopback connect and a thread wake-up, far below any server's idle
/// read timeout.
constexpr std::chrono::milliseconds kConnectLead{5};

/// The most generator threads one run starts. A unit holds its thread
/// until its last answer, so a server at capacity K holds K of them;
/// this is twice the largest K a caller drives (control's 64).
constexpr std::size_t kMaxGeneratorThreads = 128;

double exponential(sim::Xoshiro256& rng, double rate) {
  return -std::log(rng.uniform01_open_left()) / rate;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Trace id for the k-th originated request of a run: seed plus an odd
/// multiple of the golden-ratio constant, so distinct indices map to
/// distinct ids (odd multiplication is a bijection mod 2^64) and a
/// rerun with the same seed regenerates the same join keys.
std::string trace_id_for(std::uint64_t seed, std::uint64_t index) {
  return make_trace_id(seed + 0x9e3779b97f4a7c15ULL * (index + 1));
}

/// One request line of a unit; an empty trace_id sends it untraced.
struct Call {
  std::string method;
  Json params;
  std::uint64_t id = 0;
  std::string trace_id;
};

struct CallRecord {
  CallOutcome outcome = CallOutcome::kTransportError;
  int code = 0;
  double latency_seconds = 0.0;  ///< send to answer
};

/// One arrival: request lines sent in order on one fresh connection,
/// the first at `due_seconds` past the run's epoch. The engine fills in
/// the rest; a unit stops at its first 503 or transport error.
struct Unit {
  double due_seconds = 0.0;
  std::vector<Call> calls;
  bool connected = false;
  double late_seconds = 0.0;  ///< started minus due
  std::vector<CallRecord> records;
};

/// The one open-loop arrival loop. Each unit is handed to a generator
/// thread kConnectLead before it is due; the thread connects, waits for
/// the due time, and sends. Threads are reused, and a new one starts
/// only when none is free, so their number follows the peak of units in
/// flight. A run that would need more than kMaxGeneratorThreads throws
/// instead of delaying an arrival: a late arrival at a full M/M/i/K
/// system is exactly the rejection the measurement would miss. Writes
/// the schedule lag and the thread count into `out`; returns the wall
/// seconds from the epoch to the last answer.
template <class Config, class Result>
double run_units(const Config& config, std::vector<Unit>& units,
                 Result& out) {
  const Clock::time_point epoch = Clock::now() + kConnectLead;
  const auto due_at = [epoch](const Unit& u) {
    return epoch + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(u.due_seconds));
  };
  const auto run = [&](Unit& u) {
    Client client;
    try {
      client.connect(config.host, config.port,
                     config.connect_timeout_seconds,
                     config.call_timeout_seconds);
      u.connected = true;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_until(due_at(u));
    u.late_seconds = seconds_between(due_at(u), Clock::now());
    for (std::size_t i = 0; u.connected && i < u.calls.size(); ++i) {
      Call& c = u.calls[i];
      const TraceContext trace{c.trace_id, 0, true};
      const Clock::time_point sent = Clock::now();
      const CallResult r =
          client.call(c.method, std::move(c.params), c.id,
                      c.trace_id.empty() ? nullptr : &trace);
      u.records.push_back(
          {r.outcome, r.code, seconds_between(sent, Clock::now())});
      if (r.outcome == CallOutcome::kRejected ||
          r.outcome == CallOutcome::kTransportError) {
        break;
      }
    }
  };

  std::mutex mutex;
  std::condition_variable_any wake;
  std::deque<Unit*> ready;
  std::size_t idle = 0;  // threads done with a unit and not yet re-handed
  // Declared last, so leaving this scope -- the saturation throw too --
  // stops and joins every thread once the units handed out are done.
  std::vector<std::jthread> threads;
  const auto generator = [&](std::stop_token stop) {
    std::unique_lock<std::mutex> lock(mutex);
    while (wake.wait(lock, stop, [&] { return !ready.empty(); })) {
      Unit& u = *ready.front();
      ready.pop_front();
      lock.unlock();
      run(u);
      lock.lock();
      ++idle;
    }
  };
  for (Unit& u : units) {
    std::this_thread::sleep_until(due_at(u) - kConnectLead);
    std::lock_guard<std::mutex> lock(mutex);
    if (idle > 0) {
      --idle;
    } else if (threads.size() < kMaxGeneratorThreads) {
      threads.emplace_back(generator);
    } else {
      throw common::ModelError(
          "generator saturated: unit " + std::to_string(&u - units.data()) +
          " came due with all " + std::to_string(kMaxGeneratorThreads) +
          " generator threads busy");
    }
    ready.push_back(&u);
    wake.notify_one();
  }
  out.generator_threads = threads.size();
  threads.clear();
  const double wall = seconds_between(epoch, Clock::now());

  std::vector<double> late;
  for (const Unit& u : units) late.push_back(u.late_seconds);
  const auto p90 = late.begin() + static_cast<std::ptrdiff_t>(
                                      (late.size() * 9 + 9) / 10 - 1);
  std::nth_element(late.begin(), p90, late.end());
  out.late_p90_seconds = *p90;
  out.late_max_seconds = *std::max_element(p90, late.end());
  return wall;
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
  std::vector<Unit> units(config.requests);
  double t = 0.0;
  for (std::size_t k = 0; k < config.requests; ++k) {
    t += exponential(rng, config.lambda);
    units[k].due_seconds = t;
    Json params(Json::Object{{"seconds", exponential(rng, config.nu)}});
    units[k].calls.push_back(
        {"sleep", std::move(params), k,
         config.trace ? trace_id_for(config.seed, k) : std::string()});
  }
  LossResult out;
  out.wall_seconds = run_units(config, units, out);
  out.sent = config.requests;
  double latency_sum = 0.0;
  for (const Unit& u : units) {
    const CallRecord r = u.records.empty() ? CallRecord{} : u.records[0];
    switch (r.outcome) {
      case CallOutcome::kOk: ++out.ok; break;
      case CallOutcome::kRejected: ++out.rejected; break;
      case CallOutcome::kDeadline: ++out.deadline_missed; break;
      case CallOutcome::kTransportError: ++out.transport_errors; break;
      case CallOutcome::kError: ++out.other_errors; break;
    }
    if (r.outcome == CallOutcome::kOk) {
      latency_sum += r.latency_seconds;
      out.max_latency_seconds =
          std::max(out.max_latency_seconds, r.latency_seconds);
    }
    if (config.trace) {
      out.request_log.push_back({u.calls[0].trace_id, u.due_seconds,
                                 "sleep", r.outcome, r.code,
                                 r.latency_seconds});
    }
  }
  out.measured_loss =
      static_cast<double>(out.rejected) / static_cast<double>(out.sent);
  out.mean_latency_seconds =
      out.ok > 0 ? latency_sum / static_cast<double>(out.ok) : 0.0;
  out.offered_rate = out.wall_seconds > 0.0
                         ? static_cast<double>(out.sent) / out.wall_seconds
                         : 0.0;
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

}  // namespace

SessionResult run_session_replay(const SessionConfig& config) {
  UPA_REQUIRE(config.session_rate > 0.0,
              "SessionConfig.session_rate must be > 0");
  UPA_REQUIRE(config.sessions > 0, "SessionConfig.sessions must be > 0");

  const profile::OperationalProfile profile =
      ta::fitted_session_graph(config.uclass);

  // Pre-walk every session: the visited function sequence and the
  // arrival offset are drawn up front (pure function of the seed), so
  // server-side behavior cannot perturb the replayed workload. Trace
  // ids are numbered over the walked invocations in session order.
  sim::Xoshiro256 rng(config.seed);
  std::vector<Unit> units(config.sessions);
  std::vector<std::vector<std::string>> walks(config.sessions);
  std::uint64_t traced = 0;
  double t = 0.0;
  for (std::size_t s = 0; s < config.sessions; ++s) {
    t += exponential(rng, config.session_rate);
    units[s].due_seconds = t;
    std::size_t state = profile::NodeIndex::kStart;
    while (true) {
      state = sample_transition(profile, state, rng);
      if (state == profile.exit_state()) break;
      const std::string& function = profile.function_name(state - 1);
      Json::Object params;
      if (function == "Book") params.emplace_back("class", "B");
      units[s].calls.push_back(
          {method_for_function(function), Json(std::move(params)),
           walks[s].size(),
           config.trace ? trace_id_for(config.seed, traced++)
                        : std::string()});
      walks[s].push_back(function);
    }
  }
  SessionResult out;
  run_units(config, units, out);
  out.sessions = config.sessions;
  for (std::size_t s = 0; s < units.size(); ++s) {
    const Unit& u = units[s];
    // A 503 turns the session away at whichever invocation it answers
    // (admission judges each line); any other error fails it.
    bool rejected = false;
    std::size_t failures = 0;
    for (std::size_t i = 0; i < u.records.size(); ++i) {
      const CallRecord& r = u.records[i];
      rejected = r.outcome == CallOutcome::kRejected;
      if (!rejected && r.outcome != CallOutcome::kOk) ++failures;
      if (config.trace) {
        out.invocation_log.push_back({s, i, walks[s][i], u.calls[i].method,
                                      u.calls[i].trace_id, r.outcome,
                                      r.code});
      }
    }
    out.invocations += u.records.size();
    out.invocation_failures += failures;
    if (rejected) {
      ++out.rejected;
    } else if (u.connected && failures == 0) {
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

  const Json tiny_sim(Json::Object{
      {"sessions", Json(200)}, {"reps", Json(2)}, {"horizon", Json(500.0)}});
  check("ping", Json());
  check("sleep", Json(Json::Object{{"seconds", Json(0.001)}}));
  check("steady_state", Json());
  check("mmck_metrics", Json());
  check("web_farm_availability", Json());
  check("composite_availability", Json());
  check("user_availability", Json(Json::Object{{"class", Json("B")}}));
  check("run_campaign", tiny_sim);
  check("simulate_end_to_end", tiny_sim);
  check("cache", Json(Json::Object{{"op", Json("stats")}}));
  check("stats", Json());

  out.all_ok = true;
  for (const auto& [name, ok] : out.checks) out.all_ok = out.all_ok && ok;
  return out;
}

}  // namespace upa::serve
