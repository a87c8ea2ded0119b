#pragma once
// Active health checker: one background thread that pings every
// upstream each probe interval and feeds verdicts into the pool's
// ejection/readmission thresholds. Detection delay -- the window in
// which a killed replica still receives forwarded attempts -- is
// `probe_interval_seconds * unhealthy_threshold`; the farm experiment
// maps that delay onto the composite model's coverage parameter
// (an undetected kill is exactly an *uncovered* failure) and onto the
// reconfiguration rate beta = 1 / delay.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>

#include "upa/dispatch/upstream.hpp"

namespace upa::dispatch {

struct HealthConfig {
  double probe_interval_seconds = 0.2;
  double probe_timeout_seconds = 1.0;   ///< connect + call timeout
  std::size_t unhealthy_threshold = 2;  ///< consecutive failures to eject
  std::size_t healthy_threshold = 1;    ///< consecutive successes to readmit
};

/// Validates the config (positive intervals/timeouts, thresholds >= 1);
/// throws ModelError otherwise.
void check_health_config(const HealthConfig& config);

class HealthChecker {
 public:
  /// The pool must outlive the checker. Probing starts on start().
  /// `on_eject` (optional) runs on the probing thread each time an
  /// upstream is ejected, with its pool index.
  HealthChecker(UpstreamPool& pool, HealthConfig config,
                std::function<void(std::size_t index)> on_eject = {});
  ~HealthChecker();

  HealthChecker(const HealthChecker&) = delete;
  HealthChecker& operator=(const HealthChecker&) = delete;

  void start();
  void stop();

  /// One synchronous probe sweep over all upstreams (used by tests and
  /// by start() so the first verdict never waits a full interval).
  void probe_all();

  [[nodiscard]] const HealthConfig& config() const noexcept {
    return config_;
  }

 private:
  void run();
  [[nodiscard]] bool probe_one(std::size_t index);

  UpstreamPool& pool_;
  HealthConfig config_;
  std::function<void(std::size_t index)> on_eject_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace upa::dispatch
