#pragma once
// Wire protocol of `upa_served`: newline-delimited JSON request/response
// over a byte stream, exposing the travel-agency evaluators as RPC
// methods. One request per line:
//
//   {"id": 7, "method": "mmck_metrics",
//    "params": {"alpha": 200, "nu": 100, "servers": 2, "capacity": 6}}
//
// and exactly one response line per request:
//
//   {"id": 7, "ok": true, "result": {...}}
//   {"id": 7, "ok": false, "error": {"code": 400, "message": "..."}}
//
// `id` is echoed verbatim (any JSON value; null when the request could
// not be parsed). Error codes follow the HTTP convention the paper's
// web tier would use: 400 malformed request / bad parameters, 404
// unknown method, 500 internal error, 503 admission rejected (queue
// full), 504 deadline exceeded. 503 is produced by the server's
// admission control before the request is even read -- see server.hpp.
//
// The Dispatcher is transport-free and deterministic: identical request
// lines yield byte-identical response lines (doubles are written with
// shortest round-trip formatting, object members in fixed order), with
// or without the evaluation cache -- the cache replays results bit for
// bit, so the serialized payload cannot differ.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "upa/serve/json.hpp"

namespace upa::serve {

/// Error codes used in response envelopes (HTTP-style).
struct ErrorCode {
  static constexpr int kBadRequest = 400;
  static constexpr int kUnknownMethod = 404;
  static constexpr int kInternal = 500;
  static constexpr int kQueueFull = 503;
  static constexpr int kDeadlineExceeded = 504;
};

/// Outcome of one request line, classified from its response: kRejected
/// and kDeadline are the 503 / 504 envelopes; kTransportError covers
/// refused connections, resets, and unparseable response lines. The load
/// generator, the dispatch front and its upstream pool all count by it.
enum class CallOutcome {
  kOk,
  kRejected,
  kDeadline,
  kError,           ///< any other error envelope (400/404/500)
  kTransportError,
};

/// Wire and metric name: ok, rejected, deadline, error, transport_error.
[[nodiscard]] std::string call_outcome_name(CallOutcome outcome);

/// Blob-byte budget of one `cache pull` reply page. Hex doubles it on
/// the wire, so a page stays well under the 1 MB line cap; a caller's
/// `max_bytes` is clamped to it, and a pull without one pages at it.
inline constexpr std::size_t kCachePullPageBytes = 300'000;

/// Builds the success / error envelopes. `id` is echoed verbatim.
[[nodiscard]] Json make_result_response(const Json& id, Json result);
[[nodiscard]] Json make_error_response(const Json& id, int code,
                                       const std::string& message);

/// Distributed trace context carried in the optional `trace` member of a
/// request envelope:
///
///   {"id": 7, "method": "ping", "trace":
///     {"trace_id": "a1b2c3d4e5f60718", "span_id": 42, "sampled": true}}
///
/// `trace_id` names the end-to-end request (1-32 lowercase hex chars),
/// `span_id` is the sender's attempt-span reference the receiver parents
/// its server-side spans on (0 = root), and `sampled` lets a front end
/// forward context without forcing every hop to record spans. Responses
/// never echo the trace member, so response bytes are identical with and
/// without tracing.
struct TraceContext {
  std::string trace_id;
  std::uint64_t span_id = 0;
  bool sampled = true;
};

/// Extracts the trace context from a parsed request envelope. Returns
/// nullopt when no `trace` member is present; throws common::ModelError
/// when one is present but malformed (wrong types, empty or non-hex
/// trace_id, negative / fractional / oversized span_id).
[[nodiscard]] std::optional<TraceContext> parse_trace_context(
    const Json& request);

/// The `trace` member value for a context.
[[nodiscard]] Json trace_context_json(const TraceContext& context);

/// Re-serializes `request` with its `trace` member set to `context`
/// (replacing any existing one). All other members keep their positions,
/// so the rewritten line hashes to the same balancing affinity key.
[[nodiscard]] std::string with_trace_context(const Json& request,
                                             const TraceContext& context);

/// Deterministic 16-hex-char trace id from a seed. Uses the splitmix64
/// finalizer -- a bijection on 64-bit values -- so distinct seeds always
/// yield distinct ids.
[[nodiscard]] std::string make_trace_id(std::uint64_t seed);

/// Method table mapping RPC names to handlers. Construction registers
/// the built-in evaluator methods:
///
///   ping                   liveness probe
///   sleep                  hold a worker for params.seconds (loadgen's
///                          calibrated-service-time workload)
///   steady_state           robust stationary solve of the web-farm
///                          coverage chain (Fig. 9/10)
///   mmck_metrics           M/M/c/K steady-state metrics (eq. 3)
///   web_farm_availability  composite A(WS) closed form (eqs. 5/9)
///   composite_availability CTMC + reward cross-check with breakdown
///   user_availability      user-perceived availability, eq. (10)
///   run_campaign           fault-injection campaign (scripted outage)
///   simulate_end_to_end    end-to-end session simulation
///   cache                  evaluation-cache control: op = stats |
///                          clear | reset_stats | enable | disable,
///                          plus the anti-entropy exchange: op =
///                          fingerprint | pull (see anti_entropy.hpp)
///
/// The server registers one extra method (`stats`) that closes over its
/// live counters. Handlers receive the request's `params` object (null
/// when absent) and return the `result` value; they signal caller
/// errors by throwing common::ModelError (mapped to code 400).
class Dispatcher {
 public:
  using Handler = std::function<Json(const Json& params)>;

  Dispatcher();

  /// Registers (or replaces) a method.
  void register_method(const std::string& name, Handler handler);

  [[nodiscard]] std::vector<std::string> method_names() const;

  /// Full request -> response on parsed envelopes.
  [[nodiscard]] Json dispatch(const Json& request) const;

  /// One request line -> one response line (no trailing newline). Never
  /// throws: every failure becomes an error envelope.
  [[nodiscard]] std::string dispatch_line(const std::string& line) const;

 private:
  std::map<std::string, Handler> methods_;
};

}  // namespace upa::serve
