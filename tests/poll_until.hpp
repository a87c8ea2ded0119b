#pragma once
// Deterministic waits for the loopback-server tests: instead of sleeping
// a guessed interval for a connection to be admitted or a request to be
// answered, poll the daemon's stats() until the expected state shows up.

#include <chrono>
#include <thread>

namespace upa::testing {

/// Polls `done` every millisecond until it returns true or `timeout`
/// elapses; returns its final value, so callers can ASSERT on it.
template <typename Predicate>
bool poll_until(Predicate done, std::chrono::duration<double> timeout =
                                    std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return done();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace upa::testing
