#include "upa/dispatch/health.hpp"

#include <chrono>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/serve/client.hpp"

namespace upa::dispatch {

void check_health_config(const HealthConfig& config) {
  UPA_REQUIRE(config.probe_interval_seconds > 0.0,
              "probe interval must be > 0");
  UPA_REQUIRE(config.probe_timeout_seconds > 0.0,
              "probe timeout must be > 0");
  UPA_REQUIRE(config.unhealthy_threshold >= 1,
              "unhealthy threshold must be >= 1");
  UPA_REQUIRE(config.healthy_threshold >= 1,
              "healthy threshold must be >= 1");
}

HealthChecker::HealthChecker(UpstreamPool& pool, HealthConfig config,
                             std::function<void(std::size_t)> on_eject)
    : pool_(pool), config_(config), on_eject_(std::move(on_eject)) {
  check_health_config(config_);
}

HealthChecker::~HealthChecker() { stop(); }

void HealthChecker::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UPA_REQUIRE(!running_, "HealthChecker already started");
    running_ = true;
    stop_requested_ = false;
  }
  probe_all();  // first verdict before any traffic is forwarded
  thread_ = std::thread([this] { run(); });
}

void HealthChecker::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

void HealthChecker::probe_all() {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const bool ok = probe_one(i);
    // A failed probe can only flip a verdict to unhealthy.
    if (pool_.record_probe(i, ok, config_.unhealthy_threshold,
                           config_.healthy_threshold) &&
        !ok && on_eject_) {
      on_eject_(i);
    }
  }
}

void HealthChecker::run() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.probe_interval_seconds));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, interval,
                       [this] { return stop_requested_; })) {
        return;
      }
    }
    probe_all();
  }
}

bool HealthChecker::probe_one(std::size_t index) {
  const UpstreamAddress& address = pool_.address(index);
  try {
    serve::Client client;
    client.connect(address.host, address.port,
                   config_.probe_timeout_seconds);
    const serve::CallResult result = client.call("ping", serve::Json());
    // A 503 still proves the process is alive and admitting probes is
    // the server's business; only transport-level failures are
    // unhealthy.
    return result.outcome != serve::CallOutcome::kTransportError;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace upa::dispatch
