#pragma once
// Blocking TCP client for the upa_served wire protocol: connect, send
// newline-delimited JSON request lines, read newline-delimited response
// lines. One Client per connection; used by upa_loadgen, the serve
// tests, and as the reference implementation of the protocol's client
// side.

#include <cstdint>
#include <string>

#include "upa/serve/json.hpp"
#include "upa/serve/protocol.hpp"  // CallOutcome, call_outcome_name

namespace upa::serve {

/// One response, parsed: the outcome class, the raw envelope, and the
/// result / error members pulled out for convenience.
struct CallResult {
  CallOutcome outcome = CallOutcome::kTransportError;
  int code = 0;             ///< error code (0 for ok outcomes)
  Json envelope;            ///< whole response (null on transport error)
  std::string error_message;

  [[nodiscard]] bool ok() const noexcept {
    return outcome == CallOutcome::kOk;
  }
  /// The result object; null JSON unless ok().
  [[nodiscard]] const Json* result() const noexcept {
    return envelope.find("result");
  }
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects with a timeout (seconds). Throws ModelError on failure
  /// (connection refused, timeout, bad address). `call_timeout_seconds`
  /// bounds each subsequent send and receive, so neither a server that
  /// stops reading nor one that never answers holds the caller longer;
  /// 0 inherits `timeout_seconds`, so a client is never stuck longer
  /// waiting for a response than it was willing to wait for a connect
  /// unless it asks to be.
  void connect(const std::string& host, std::uint16_t port,
               double timeout_seconds = 5.0,
               double call_timeout_seconds = 0.0);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Sends one raw request line and reads one response line. Throws
  /// ModelError on transport failure; the returned string has the
  /// trailing newline stripped.
  [[nodiscard]] std::string call_line(const std::string& request_line);

  /// True when the last call_line failed because the peer had closed or
  /// reset the connection before any byte of the response arrived --
  /// how a kept-alive connection looks after the server dropped it while
  /// idle. A timeout or a partial response line does not count.
  [[nodiscard]] bool closed_before_response() const noexcept {
    return closed_before_response_;
  }

  /// Builds {"id": id, "method": method, "params": params}, sends it,
  /// and classifies the response. Transport failures are folded into
  /// the CallResult (outcome kTransportError) instead of throwing, so
  /// load generators can count them. A non-null `trace` adds the
  /// envelope's trace member (distributed-tracing context).
  [[nodiscard]] CallResult call(const std::string& method, Json params,
                                std::uint64_t id = 0,
                                const TraceContext* trace = nullptr);

  /// One-way send of a raw line (used to issue `subscribe` before
  /// switching to read_line streaming). Throws ModelError on failure.
  void send_line(const std::string& line);

  /// Reads the next newline-delimited line (telemetry streaming).
  /// Throws ModelError on EOF, timeout, or error.
  [[nodiscard]] std::string read_line();

  /// shutdown(SHUT_RDWR) without closing the fd: wakes a reader blocked
  /// in read_line() from another thread so it can exit cleanly.
  void shutdown_both();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< unconsumed bytes past the last response line
  bool closed_before_response_ = false;
};

/// Classifies a raw response line (shared by Client::call and tests).
[[nodiscard]] CallResult classify_response(const std::string& line);

}  // namespace upa::serve
