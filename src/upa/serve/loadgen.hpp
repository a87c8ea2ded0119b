#pragma once
// Load generation against a upa_served instance. Two workloads plus a
// smoke probe:
//
//  - Loss workload (the dogfood experiment): open-loop Poisson arrivals
//    of single-request connections whose `sleep` service times are
//    exponential draws with rate nu. The server under test is then
//    *literally* the paper's M/M/i/K model -- i workers, K admitted
//    request lines -- and the measured rejection fraction must match
//    queueing::mmck_loss_probability(lambda, nu, i, K) to statistical
//    tolerance. "Open loop" means arrivals never wait for completions,
//    exactly like the paper's unconditioned request stream.
//
//  - Session replay: open-loop Poisson *session* arrivals, each walking
//    the paper's Table 1 operational profile (class A browsers / class
//    B buyers) as one connection issuing one evaluation RPC per visited
//    function. Admission control judges each request line, so a 503 can
//    answer any invocation; it ends the session, mirroring how the
//    paper's user either gets the web service or leaves.
//
// Both run on one engine. An arrival's request lines go out in order on
// one fresh connection, opened a few ms before the arrival is due by a
// reused generator thread, so the first line leaves at its pre-drawn
// time. Generator threads follow the peak of arrivals in flight, up to
// a fixed cap; a run that would need more throws ModelError ("generator
// saturated") rather than send an arrival late.
//
// All randomness derives from the config seed via the sim layer's
// Xoshiro256, so two runs against the same server issue identical
// request sequences at identical scheduled offsets.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "upa/serve/client.hpp"
#include "upa/ta/user_classes.hpp"

namespace upa::serve {

/// Fixed mapping from the paper's user-visible functions to evaluation
/// RPCs (Home->ping, Browse->mmck_metrics, Search->web_farm_availability,
/// Book->user_availability, Pay->composite_availability); unknown
/// functions map to ping.
[[nodiscard]] std::string method_for_function(
    const std::string& function_name);

/// Inverse of method_for_function; empty string for methods outside the
/// session mapping (used by the trace collector's profile mining).
[[nodiscard]] std::string function_for_method(const std::string& method);

struct LossConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Open-loop arrival rate lambda [1/s].
  double lambda = 150.0;
  /// Service rate nu [1/s]: each request asks the server to hold a
  /// worker for an Exp(nu) draw.
  double nu = 100.0;
  std::size_t requests = 1000;
  std::uint64_t seed = 1;
  double connect_timeout_seconds = 5.0;
  /// Per-call receive timeout; 0 inherits connect_timeout_seconds (see
  /// Client::connect). Bounds how long a request waits on a stuck or
  /// killed server before counting as a transport error.
  double call_timeout_seconds = 0.0;
  /// Originate a trace context per request and keep the per-request log
  /// (LossResult.request_log), so bench artifacts are joinable against
  /// collected traces by trace_id. Off by default: the request bytes on
  /// the wire then stay identical to the pre-tracing workload.
  bool trace = false;
};

/// One issued request, kept when LossConfig.trace is set. The trace_id
/// is a pure function of (seed, request index), so a rerun regenerates
/// the same join keys.
struct LossRequestLog {
  std::string trace_id;
  double scheduled_offset_seconds = 0.0;
  std::string method;
  CallOutcome outcome = CallOutcome::kTransportError;
  int code = 0;
  double latency_seconds = 0.0;  ///< from the send to the answer
};

struct LossResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t rejected = 0;          ///< 503 admission rejections
  std::size_t deadline_missed = 0;   ///< 504 responses
  std::size_t transport_errors = 0;  ///< refused/reset/unparseable
  std::size_t other_errors = 0;      ///< 400/404/500 envelopes
  /// rejected / sent -- the measured counterpart of p_K(i).
  double measured_loss = 0.0;
  double mean_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;
  double wall_seconds = 0.0;
  /// sent / wall_seconds; should approach lambda when the generator
  /// keeps up with its own schedule.
  double offered_rate = 0.0;
  /// Schedule lag: each arrival's first send minus its due time.
  double late_p90_seconds = 0.0;
  double late_max_seconds = 0.0;
  /// Generator threads the run started (its peak arrivals in flight).
  std::size_t generator_threads = 0;
  /// One entry per request, in issue order (empty unless config.trace).
  std::vector<LossRequestLog> request_log;
};

/// Runs the loss workload; throws ModelError on a config that cannot be
/// scheduled (non-positive rates, zero requests) and on a saturated
/// generator.
[[nodiscard]] LossResult run_loss_workload(const LossConfig& config);

struct SessionConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  ta::UserClass uclass = ta::UserClass::kB;
  std::size_t sessions = 50;
  /// Open-loop session arrival rate [1/s].
  double session_rate = 20.0;
  std::uint64_t seed = 1;
  double connect_timeout_seconds = 5.0;
  /// Per-call receive timeout; 0 inherits connect_timeout_seconds.
  double call_timeout_seconds = 0.0;
  /// Originate a trace context per invocation and keep the
  /// per-invocation log (SessionResult.invocation_log).
  bool trace = false;
};

/// One session invocation, kept when SessionConfig.trace is set.
struct SessionInvocationLog {
  std::size_t session = 0;
  std::size_t invocation = 0;  ///< 0-based position within the session
  std::string function;        ///< Table 1 function name
  std::string method;          ///< RPC it mapped to
  std::string trace_id;
  CallOutcome outcome = CallOutcome::kTransportError;
  int code = 0;
};

struct SessionResult {
  std::size_t sessions = 0;
  std::size_t completed = 0;  ///< every invocation answered ok
  std::size_t rejected = 0;   ///< session hit admission control (503)
  std::size_t failed = 0;     ///< transport/protocol failure mid-session
  std::size_t invocations = 0;
  std::size_t invocation_failures = 0;
  double mean_invocations_per_session = 0.0;
  /// completed / sessions -- the service-side availability a user of
  /// this class perceives from the evaluation service itself.
  double session_success_fraction = 0.0;
  /// Schedule lag and generator threads, as in LossResult.
  double late_p90_seconds = 0.0;
  double late_max_seconds = 0.0;
  std::size_t generator_threads = 0;
  /// One entry per issued invocation, ordered by (session, invocation)
  /// (empty unless config.trace).
  std::vector<SessionInvocationLog> invocation_log;
};

/// Replays Table 1 sessions against the server; the function -> RPC
/// mapping is fixed (Home->ping, Browse->mmck_metrics, Search->
/// web_farm_availability, Book->user_availability, Pay->
/// composite_availability). Throws ModelError like run_loss_workload.
[[nodiscard]] SessionResult run_session_replay(const SessionConfig& config);

/// One request per public RPC method over a single connection.
struct SmokeResult {
  std::vector<std::pair<std::string, bool>> checks;
  bool all_ok = false;
};
[[nodiscard]] SmokeResult run_smoke_probe(const std::string& host,
                                          std::uint16_t port);

}  // namespace upa::serve
