#include "upa/dispatch/upstream.hpp"

#include <cstdlib>

#include "upa/common/error.hpp"

namespace upa::dispatch {

UpstreamAddress parse_upstream_address(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  UPA_REQUIRE(colon != std::string::npos && colon > 0 &&
                  colon + 1 < text.size(),
              "upstream address must be host:port, got '" + text + "'");
  UpstreamAddress address;
  address.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  UPA_REQUIRE(end != nullptr && *end == '\0' && port > 0 && port <= 65535,
              "upstream port must be 1..65535, got '" + port_text + "'");
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

std::vector<UpstreamAddress> parse_upstream_list(const std::string& text) {
  std::vector<UpstreamAddress> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string piece = text.substr(start, comma - start);
    if (!piece.empty()) out.push_back(parse_upstream_address(piece));
    start = comma + 1;
  }
  UPA_REQUIRE(!out.empty(), "upstream list is empty");
  return out;
}

UpstreamPool::UpstreamPool(std::vector<UpstreamAddress> addresses) {
  UPA_REQUIRE(!addresses.empty(), "UpstreamPool needs at least one upstream");
  states_.reserve(addresses.size());
  for (UpstreamAddress& address : addresses) {
    State state;
    state.address = std::move(address);
    states_.push_back(std::move(state));
  }
}

const UpstreamAddress& UpstreamPool::address(std::size_t index) const {
  UPA_REQUIRE(index < states_.size(), "upstream index out of range");
  return states_[index].address;  // immutable after construction
}

void UpstreamPool::begin_call(std::size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = states_.at(index);
  ++s.outstanding;
  ++s.attempts;
}

void UpstreamPool::end_call(std::size_t index, serve::CallOutcome outcome,
                            double latency_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = states_.at(index);
  if (s.outstanding > 0) --s.outstanding;
  s.latency_sum_seconds += latency_seconds;
  switch (outcome) {
    case serve::CallOutcome::kOk: ++s.ok; break;
    case serve::CallOutcome::kRejected: ++s.rejected; break;
    case serve::CallOutcome::kDeadline: ++s.deadline; break;
    case serve::CallOutcome::kError: ++s.errors; break;
    case serve::CallOutcome::kTransportError: ++s.transport; break;
  }
}

bool UpstreamPool::record_probe(std::size_t index, bool ok,
                                std::size_t unhealthy_threshold,
                                std::size_t healthy_threshold) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = states_.at(index);
  if (ok) {
    s.consecutive_probe_failures = 0;
    ++s.consecutive_probe_successes;
    if (!s.healthy && s.consecutive_probe_successes >= healthy_threshold) {
      s.healthy = true;
      ++s.readmissions;
      return true;
    }
    return false;
  }
  ++s.probe_failures;
  s.consecutive_probe_successes = 0;
  ++s.consecutive_probe_failures;
  if (s.healthy && s.consecutive_probe_failures >= unhealthy_threshold) {
    s.healthy = false;
    ++s.ejections;
    return true;
  }
  return false;
}

bool UpstreamPool::healthy(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return states_.at(index).healthy;
}

void UpstreamPool::balancing_view(
    std::vector<bool>& healthy_out,
    std::vector<std::size_t>& outstanding_out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  healthy_out.resize(states_.size());
  outstanding_out.resize(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    healthy_out[i] = states_[i].healthy;
    outstanding_out[i] = states_[i].outstanding;
  }
}

std::vector<UpstreamSnapshot> UpstreamPool::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<UpstreamSnapshot> out;
  out.reserve(states_.size());
  for (const State& s : states_) {
    UpstreamSnapshot snap;
    snap.address = s.address;
    snap.healthy = s.healthy;
    snap.outstanding = s.outstanding;
    snap.attempts = s.attempts;
    snap.ok = s.ok;
    snap.rejected = s.rejected;
    snap.deadline = s.deadline;
    snap.errors = s.errors;
    snap.transport = s.transport;
    snap.probe_failures = s.probe_failures;
    snap.ejections = s.ejections;
    snap.readmissions = s.readmissions;
    snap.latency_sum_seconds = s.latency_sum_seconds;
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace upa::dispatch
