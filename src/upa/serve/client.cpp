#include "upa/serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/connection_server.hpp"
#include "upa/serve/protocol.hpp"

namespace upa::serve {

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

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      closed_before_response_(other.closed_before_response_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    closed_before_response_ = other.closed_before_response_;
  }
  return *this;
}

void Client::connect(const std::string& host, std::uint16_t port,
                     double timeout_seconds, double call_timeout_seconds) {
  UPA_REQUIRE(fd_ < 0, "Client::connect called on a connected client");
  UPA_REQUIRE(timeout_seconds > 0.0, "connect timeout must be > 0");
  UPA_REQUIRE(call_timeout_seconds >= 0.0, "call timeout must be >= 0");
  if (call_timeout_seconds == 0.0) call_timeout_seconds = timeout_seconds;

  // SOCK_CLOEXEC: connections must not be inherited by children forked
  // elsewhere in the process (a leaked duplicate suppresses EOF for the
  // peer until its read timeout).
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  UPA_REQUIRE(fd >= 0,
              std::string("socket() failed: ") + std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw common::ModelError("Client host is not an IPv4 address: " + host);
  }

  // Non-blocking connect + poll gives a real timeout instead of the
  // kernel's multi-minute default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(timeout_seconds * 1000.0));
    if (ready <= 0) {
      ::close(fd);
      throw common::ModelError("connect(" + host + ":" +
                               std::to_string(port) + ") timed out");
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    rc = err == 0 ? 0 : -1;
    errno = err;
  }
  if (rc != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    throw common::ModelError("connect(" + host + ":" + std::to_string(port) +
                             ") failed: " + reason);
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  // A stuck server must not hang the client forever, in either
  // direction: a kept-alive connection to a server that stops reading
  // would otherwise pin the caller in send_all. The bound is the
  // caller's, not a hardcoded floor that would swallow shorter deadline
  // experiments.
  set_io_timeouts(fd, call_timeout_seconds);

  fd_ = fd;
  buffer_.clear();
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void Client::send_line(const std::string& line) {
  UPA_REQUIRE(fd_ >= 0, "Client is not connected");
  if (!send_all(fd_, line + "\n")) {
    closed_before_response_ = errno == EPIPE || errno == ECONNRESET;
    throw common::ModelError("send failed: " +
                             std::string(std::strerror(errno)));
  }
}

std::string Client::read_line() {
  UPA_REQUIRE(fd_ >= 0, "Client is not connected");
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      closed_before_response_ =
          buffer_.empty() && (n == 0 || errno == ECONNRESET);
      throw common::ModelError(
          n == 0 ? "connection closed before a response line"
                 : "recv failed: " + std::string(std::strerror(errno)));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Client::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

std::string Client::call_line(const std::string& request_line) {
  closed_before_response_ = false;
  send_line(request_line);
  return read_line();
}

CallResult Client::call(const std::string& method, Json params,
                        std::uint64_t id, const TraceContext* trace) {
  Json request = Json::object();
  request.set("id", Json(static_cast<double>(id)));
  request.set("method", Json(method));
  if (!params.is_null()) request.set("params", std::move(params));
  if (trace != nullptr) request.set("trace", trace_context_json(*trace));
  try {
    return classify_response(call_line(request.dump()));
  } catch (const std::exception& e) {
    CallResult r;
    r.outcome = CallOutcome::kTransportError;
    r.error_message = e.what();
    return r;
  }
}

CallResult classify_response(const std::string& line) {
  CallResult r;
  try {
    r.envelope = parse_json(line);
  } catch (const std::exception& e) {
    r.outcome = CallOutcome::kTransportError;
    r.error_message = e.what();
    return r;
  }
  const Json* ok = r.envelope.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    r.outcome = CallOutcome::kOk;
    return r;
  }
  const Json* error = r.envelope.find("error");
  if (error != nullptr) {
    if (const Json* code = error->find("code");
        code != nullptr && code->is_number()) {
      r.code = static_cast<int>(code->as_number());
    }
    if (const Json* message = error->find("message");
        message != nullptr && message->is_string()) {
      r.error_message = message->as_string();
    }
  }
  switch (r.code) {
    case ErrorCode::kQueueFull: r.outcome = CallOutcome::kRejected; break;
    case ErrorCode::kDeadlineExceeded:
      r.outcome = CallOutcome::kDeadline;
      break;
    default: r.outcome = CallOutcome::kError;
  }
  return r;
}

}  // namespace upa::serve
