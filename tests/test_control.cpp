// Closed-loop control plane: the rate estimator's windowed finite
// differences, the admission policy's grow/shrink hysteresis, the
// inverse M/M/i/K searches it plans with, and the serve layer's
// `reconfigure` actuator -- drain-aware worker retirement, atomic
// capacity re-bounding, and serialization of concurrent reconfigures.
//
// Naming note: the Control* / Reconfigure* suites run under the ASan
// and TSan CI jobs (their ctest regexes include "Control|Reconfigure").
// The loss-free flip-flop test at the bottom is the TSan acceptance
// test for the elastic worker pool: continuous load while the pool
// grows and shrinks must complete every admitted request.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "poll_until.hpp"
#include "upa/common/error.hpp"
#include "upa/control/estimator.hpp"
#include "upa/control/policy.hpp"
#include "upa/control/scenario.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/server.hpp"

namespace {

using upa::control::AdmissionPolicy;
using upa::control::CounterSample;
using upa::control::PolicyDecision;
using upa::control::PolicyOptions;
using upa::control::RateEstimate;
using upa::control::RateEstimator;
using upa::serve::CallOutcome;
using upa::serve::CallResult;
using upa::serve::Client;
using upa::serve::ErrorCode;
using upa::serve::Json;
using upa::serve::Server;
using upa::serve::ServerConfig;
using upa::testing::poll_until;

// --- Estimator -----------------------------------------------------------

/// Feeds `estimator` a constant-rate counter stream: `lambda` arrivals
/// per second of which `loss` rejects, handlers busy `utilization`
/// seconds per second, for `seconds` at 4 Hz.
void feed_constant(RateEstimator& estimator, double lambda, double loss,
                   double utilization, double seconds, double t0 = 0.0) {
  for (double t = t0; t <= t0 + seconds + 1e-9; t += 0.25) {
    CounterSample s;
    s.t = t;
    s.arrivals = lambda * t;
    s.rejected = lambda * loss * t;
    s.handled = lambda * (1.0 - loss) * t;
    s.busy_seconds = utilization * t;
    estimator.observe(s);
  }
}

TEST(ControlEstimator, NotReadyUntilTheWindowSpansEnough) {
  RateEstimator estimator;
  EXPECT_FALSE(estimator.estimate().ready);
  CounterSample s;
  s.t = 0.1;
  estimator.observe(s);
  // One sample (or a too-short span) cannot be differenced.
  EXPECT_FALSE(estimator.estimate().ready);
}

TEST(ControlEstimator, RecoversConstantRatesFromCumulativeCounters) {
  RateEstimator estimator;
  // 12/s offered, 25% rejected, handlers busy 0.75 s per second: with
  // 9 completions/s that is nu = 9 / 0.75 = 12 per server-second.
  feed_constant(estimator, 12.0, 0.25, 0.75, 5.0);
  const RateEstimate est = estimator.estimate();
  ASSERT_TRUE(est.ready);
  EXPECT_NEAR(est.lambda, 12.0, 0.5);
  EXPECT_NEAR(est.lambda_window, 12.0, 1e-6);
  EXPECT_NEAR(est.loss, 0.25, 1e-6);
  EXPECT_NEAR(est.nu, 12.0, 1e-6);
  EXPECT_GT(est.loss_stddev, 0.0);
  // The window is bounded: five seconds of samples, two-second span.
  EXPECT_LE(est.window_seconds, 2.0 + 0.25 + 1e-9);
}

TEST(ControlEstimator, ServiceRateStaysStickyThroughIdleWindows) {
  RateEstimator estimator;
  feed_constant(estimator, 10.0, 0.0, 0.5, 4.0);
  ASSERT_NEAR(estimator.estimate().nu, 20.0, 1e-6);

  // Arrivals stop: the window sees zero completions and zero busy
  // time, but nu-hat must hold its last observed value -- the planner
  // still needs a service rate to size against when load returns.
  CounterSample frozen;
  frozen.arrivals = 10.0 * 4.0;
  frozen.handled = 10.0 * 4.0;
  frozen.busy_seconds = 0.5 * 4.0;
  for (double t = 4.25; t <= 9.0; t += 0.25) {
    frozen.t = t;
    estimator.observe(frozen);
  }
  const RateEstimate idle = estimator.estimate();
  ASSERT_TRUE(idle.ready);
  EXPECT_NEAR(idle.lambda_window, 0.0, 1e-9);
  EXPECT_NEAR(idle.nu, 20.0, 1e-6);
}

TEST(ControlEstimator, ResetForgetsSmoothingAndWindow) {
  RateEstimator estimator;
  feed_constant(estimator, 30.0, 0.5, 1.0, 4.0);
  ASSERT_TRUE(estimator.estimate().ready);
  estimator.reset();
  EXPECT_FALSE(estimator.estimate().ready);
  // After a server restart the counters start over; the estimator must
  // track the fresh stream, not difference against pre-reset samples.
  feed_constant(estimator, 5.0, 0.0, 0.25, 4.0);
  const RateEstimate est = estimator.estimate();
  ASSERT_TRUE(est.ready);
  EXPECT_NEAR(est.lambda_window, 5.0, 1e-6);
  EXPECT_NEAR(est.loss, 0.0, 1e-9);
}

// --- Inverse M/M/i/K searches --------------------------------------------

TEST(ControlSearch, CapacityForLossFindsTheSmallestFeasibleK) {
  const double alpha = 36.0, nu = 12.0, target = 0.04;
  const upa::queueing::MmckSizing sized =
      upa::queueing::mmck_capacity_for_loss(alpha, nu, 4, target, 64);
  ASSERT_TRUE(sized.feasible);
  EXPECT_EQ(sized.servers, 4u);
  EXPECT_LE(sized.loss, target);
  // Smallest: one slot less must breach the target.
  ASSERT_GT(sized.capacity, 4u);
  EXPECT_GT(upa::queueing::mmck_loss_probability(alpha, nu, 4,
                                                 sized.capacity - 1),
            target);
}

TEST(ControlSearch, SmallestConfigPrefersFewerServers) {
  const double alpha = 36.0, nu = 12.0, target = 0.04;
  const upa::queueing::MmckSizing plan =
      upa::queueing::mmck_smallest_config(alpha, nu, target, 8, 64, 1);
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.loss, target);
  // No smaller server count can meet the target within the K cap.
  for (std::size_t fewer = 1; fewer < plan.servers; ++fewer) {
    EXPECT_GT(upa::queueing::mmck_loss_probability(alpha, nu, fewer, 64),
              target);
  }
}

TEST(ControlSearch, InfeasibleSearchReturnsTheCapCorner) {
  // Overload far past what the caps can absorb: the search must still
  // return the best available corner so a controller under overload
  // applies SOMETHING rather than holding a hopeless config.
  const upa::queueing::MmckSizing plan =
      upa::queueing::mmck_smallest_config(1e4, 1.0, 0.01, 4, 16, 1);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.servers, 4u);
  EXPECT_EQ(plan.capacity, 16u);
  EXPECT_GT(plan.loss, 0.01);
}

// --- Policy hysteresis ---------------------------------------------------

RateEstimate ready_estimate(double lambda, double nu, double loss = 0.0) {
  RateEstimate est;
  est.lambda = lambda;
  est.lambda_window = lambda;
  est.nu = nu;
  est.loss = loss;
  est.window_seconds = 2.0;
  est.window_arrivals = lambda * 2.0;
  est.ready = true;
  return est;
}

TEST(ControlPolicy, HoldsWhileEstimating) {
  AdmissionPolicy policy(PolicyOptions{}, 1, 3);
  RateEstimate not_ready;
  const PolicyDecision d = policy.decide(not_ready, 0.0);
  EXPECT_FALSE(d.act);
  EXPECT_EQ(d.reason, "hold:estimating");

  // Ready but no completion ever observed: nu = 0 cannot be planned on.
  const PolicyDecision no_nu = policy.decide(ready_estimate(10.0, 0.0), 1.0);
  EXPECT_FALSE(no_nu.act);
  EXPECT_EQ(no_nu.reason, "hold:no-service-rate");
}

TEST(ControlPolicy, GrowsPromptlyWhenTheCurrentConfigWouldBreach) {
  PolicyOptions options;
  options.target_loss = 0.08;
  AdmissionPolicy policy(options, 1, 3);
  // A flash crowd at 3x the service rate: (1, 3) analytically loses
  // far more than the SLO, so the very first ready tick must grow.
  const PolicyDecision d = policy.decide(ready_estimate(36.0, 12.0), 1.0);
  ASSERT_TRUE(d.act);
  EXPECT_EQ(d.reason, "grow");
  EXPECT_GT(d.workers, 1u);
  EXPECT_GE(d.capacity, d.workers);
  EXPECT_TRUE(d.feasible);
  // The plan meets the sizing target analytically.
  EXPECT_LE(d.predicted_loss, options.target_loss * options.sizing_fraction);

  policy.applied(d.workers, d.capacity, 1.0);
  // Immediately after an applied change, another grow is in cooldown.
  const PolicyDecision again =
      policy.decide(ready_estimate(80.0, 12.0), 1.1);
  EXPECT_FALSE(again.act);
  EXPECT_EQ(again.reason, "hold:grow-cooldown");
}

TEST(ControlPolicy, ShrinkMustStandForTheFullCooldown) {
  PolicyOptions options;
  options.shrink_cooldown_seconds = 5.0;
  AdmissionPolicy policy(options, 6, 32);
  const RateEstimate light = ready_estimate(4.0, 12.0);

  // A cheaper plan exists immediately, but the policy must sit on it.
  PolicyDecision d = policy.decide(light, 0.0);
  EXPECT_FALSE(d.act);
  EXPECT_EQ(d.reason, "hold:shrink-pending");
  d = policy.decide(light, 3.0);
  EXPECT_FALSE(d.act);

  // A grow in between (load spike) resets the shrink streak entirely.
  const PolicyDecision spike = policy.decide(ready_estimate(200.0, 12.0), 3.5);
  EXPECT_TRUE(spike.act);
  policy.applied(spike.workers, spike.capacity, 3.5);
  d = policy.decide(light, 4.0);
  EXPECT_FALSE(d.act) << d.reason;

  // Only after standing continuously for the cooldown does it trim.
  d = policy.decide(light, 9.6);
  ASSERT_TRUE(d.act) << d.reason;
  EXPECT_EQ(d.reason, "shrink");
  EXPECT_LT(d.workers, spike.workers);
  policy.applied(d.workers, d.capacity, 9.6);
  EXPECT_EQ(policy.current_workers(), d.workers);
  EXPECT_EQ(policy.current_capacity(), d.capacity);
}

TEST(ControlPolicy, ConvergedConfigurationHolds) {
  AdmissionPolicy policy(PolicyOptions{}, 2, 7);
  const RateEstimate est = ready_estimate(12.0, 12.0);
  // Walk the policy to its fixed point for this load (grows apply
  // immediately, shrinks after the cooldown elapses tick by tick)...
  double now = 0.0;
  for (int tick = 0; tick < 100; ++tick, now += 1.0) {
    const PolicyDecision d = policy.decide(est, now);
    if (d.act) policy.applied(d.workers, d.capacity, now);
  }
  // ...after which every tick holds: the plan IS the configuration.
  const PolicyDecision steady = policy.decide(est, now);
  EXPECT_FALSE(steady.act);
  EXPECT_EQ(steady.reason, "hold:converged");
}

// --- Scenario phase table ------------------------------------------------

TEST(ControlScenario, FaultPlanOverlayBrownsOutTheOutagePhase) {
  upa::control::ControlScenarioConfig config;
  config.scenario = "full";
  const auto phases = upa::control::control_phases(config);
  ASSERT_EQ(phases.size(), 5u);
  bool saw_fault = false;
  for (const auto& phase : phases) {
    if (!phase.faulted) continue;
    saw_fault = true;
    // The FaultPlan window degrades service, never kills it: the
    // faulted phase runs at a reduced nu, and the workload still
    // offers load (that is what the controller must absorb).
    EXPECT_LT(phase.nu, config.nu);
    EXPECT_GT(phase.nu, 0.0);
    EXPECT_GE(phase.requests, 1u);
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_THROW(
      (void)upa::control::control_phases(
          upa::control::ControlScenarioConfig{.scenario = "nope"}),
      upa::common::ModelError);
}

// --- Reconfigure actuator (loopback TCP) ---------------------------------

ServerConfig loopback_config(std::size_t workers, std::size_t capacity) {
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = workers;
  config.capacity = capacity;
  return config;
}

/// Polls until the server settles at `workers` live workers (retiring
/// drains asynchronously) or the deadline passes.
void wait_for_workers(Server& server, std::size_t workers,
                      double timeout_seconds = 5.0) {
  (void)poll_until(
      [&] {
        const auto stats = server.stats();
        return stats.workers == workers && stats.retiring == 0;
      },
      std::chrono::duration<double>(timeout_seconds));
  const auto stats = server.stats();
  EXPECT_EQ(stats.workers, workers);
  EXPECT_EQ(stats.retiring, 0u);
}

TEST(Reconfigure, ShrinkBelowInflightDrainsWithoutKillingRequests) {
  Server server(loopback_config(4, 8));
  server.start();

  // Four in-flight sleeps occupy every worker.
  std::vector<std::thread> holders;
  std::atomic<int> completed{0};
  for (int k = 0; k < 4; ++k) {
    holders.emplace_back([&] {
      Client c;
      c.connect("127.0.0.1", server.port());
      Json params = Json::object();
      params.set("seconds", Json(0.4));
      const CallResult r = c.call("sleep", std::move(params));
      EXPECT_TRUE(r.ok()) << r.error_message;
      if (r.ok()) ++completed;
    });
  }
  EXPECT_TRUE(poll_until([&] { return server.stats().in_system == 4; }));

  // Shrink to one worker while all four are mid-request: the result
  // reports the retire debt, and NO in-flight request may be killed --
  // workers only retire between requests.
  const auto result = server.reconfigure(1, 0);
  EXPECT_EQ(result.previous_workers, 4u);
  EXPECT_EQ(result.workers, 1u);
  EXPECT_EQ(result.capacity, 8u);  // 0 = keep
  EXPECT_EQ(result.retiring, 3u);

  for (auto& t : holders) t.join();
  EXPECT_EQ(completed.load(), 4);
  wait_for_workers(server, 1);

  // The shrunken pool still serves.
  Client check;
  check.connect("127.0.0.1", server.port());
  EXPECT_TRUE(check.call("ping", Json()).ok());
  server.stop();
}

TEST(Reconfigure, GrowUnderFullQueueAddsServiceImmediately) {
  // One worker, four slots: three sleeps saturate it -- one in service,
  // two queued. Growing to four workers must pick the queued work up
  // without waiting for the first sleep to finish.
  Server server(loopback_config(1, 4));
  server.start();

  std::vector<std::thread> holders;
  std::atomic<int> completed{0};
  const auto begin = std::chrono::steady_clock::now();
  for (int k = 0; k < 3; ++k) {
    holders.emplace_back([&] {
      Client c;
      c.connect("127.0.0.1", server.port());
      Json params = Json::object();
      params.set("seconds", Json(0.5));
      const CallResult r = c.call("sleep", std::move(params));
      EXPECT_TRUE(r.ok()) << r.error_message;
      if (r.ok()) ++completed;
    });
  }
  EXPECT_TRUE(poll_until([&] { return server.stats().in_system == 3; }));

  const auto result = server.reconfigure(4, 8);
  EXPECT_EQ(result.workers, 4u);
  EXPECT_EQ(result.capacity, 8u);
  EXPECT_EQ(result.retiring, 0u);

  for (auto& t : holders) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_EQ(completed.load(), 3);
  // Serial draining would need ~1.5 s; parallel pickup finishes the two
  // queued sleeps concurrently after the grow (~0.65 s + slack).
  EXPECT_LT(elapsed, 1.3) << "grow did not add service to a full queue";
  server.stop();
}

TEST(Reconfigure, CapacityBelowOccupancyGatesAdmissionOnly) {
  Server server(loopback_config(2, 8));
  server.start();

  // Four connections in the system, then K drops to 2 below them.
  std::vector<std::thread> holders;
  std::atomic<int> completed{0};
  for (int k = 0; k < 4; ++k) {
    holders.emplace_back([&] {
      Client c;
      c.connect("127.0.0.1", server.port());
      Json params = Json::object();
      params.set("seconds", Json(0.5));
      const CallResult r = c.call("sleep", std::move(params));
      EXPECT_TRUE(r.ok()) << r.error_message;
      if (r.ok()) ++completed;
    });
  }
  EXPECT_TRUE(poll_until([&] { return server.stats().in_system == 4; }));

  const auto result = server.reconfigure(0, 2);
  EXPECT_EQ(result.workers, 2u);  // 0 = keep
  EXPECT_EQ(result.capacity, 2u);
  EXPECT_EQ(result.previous_capacity, 8u);

  // The four admitted connections are NOT evicted: all four are still in
  // the system, mid-way through their 0.5 s sleeps...
  const auto after = server.stats();
  EXPECT_EQ(after.in_system, 4u);
  EXPECT_EQ(after.completed, 0u);
  EXPECT_EQ(completed.load(), 0);
  // ...but a new connection sees the new bound immediately.
  Client rejected;
  rejected.connect("127.0.0.1", server.port());
  const CallResult r = rejected.call("ping", Json());
  EXPECT_EQ(r.outcome, CallOutcome::kRejected);
  EXPECT_EQ(r.code, ErrorCode::kQueueFull);

  for (auto& t : holders) t.join();
  EXPECT_EQ(completed.load(), 4);
  server.stop();
  EXPECT_EQ(server.stats().deadline_missed, 0u);
}

TEST(Reconfigure, RpcValidatesAndReportsThePreviousConfig) {
  Server server(loopback_config(2, 4));
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  // Both-absent is a 400: "keep everything" is not a reconfigure.
  const CallResult nothing = client.call("reconfigure", Json::object());
  EXPECT_FALSE(nothing.ok());
  EXPECT_EQ(nothing.code, ErrorCode::kBadRequest);

  // K < i is rejected before anything changes.
  Json bad = Json::object();
  bad.set("workers", Json(4.0));
  bad.set("capacity", Json(2.0));
  EXPECT_FALSE(client.call("reconfigure", std::move(bad)).ok());
  EXPECT_EQ(server.stats().workers, 2u);
  EXPECT_EQ(server.stats().capacity, 4u);

  Json grow = Json::object();
  grow.set("workers", Json(3.0));
  const CallResult r = client.call("reconfigure", std::move(grow));
  ASSERT_TRUE(r.ok()) << r.error_message;
  const Json* result = r.result();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("workers")->as_number(), 3.0);
  EXPECT_EQ(result->find("capacity")->as_number(), 4.0);
  EXPECT_EQ(result->find("previous_workers")->as_number(), 2.0);
  EXPECT_EQ(result->find("previous_capacity")->as_number(), 4.0);

  const auto stats = server.stats();
  EXPECT_EQ(stats.workers, 3u);
  EXPECT_EQ(stats.reconfigures, 1u);
  client.close();
  server.stop();
}

TEST(Reconfigure, ConcurrentReconfiguresSerialize) {
  Server server(loopback_config(2, 16));
  server.start();

  // Hammer the actuator from many threads with conflicting targets.
  // Serialization means every call sees a consistent before/after pair
  // and the server never wedges or leaks workers.
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 10;
  std::vector<std::thread> threads;
  std::atomic<int> applied{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kCallsPerThread; ++k) {
        const std::size_t target = 1 + ((t + k) % 4);
        const auto result = server.reconfigure(target, 0);
        EXPECT_EQ(result.workers, target);
        EXPECT_GE(result.capacity, result.workers);
        ++applied;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(applied.load(), kThreads * kCallsPerThread);
  EXPECT_EQ(server.stats().reconfigures,
            static_cast<std::uint64_t>(kThreads * kCallsPerThread));

  // Settle to a known target; the pool must land exactly there.
  (void)server.reconfigure(2, 16);
  wait_for_workers(server, 2);
  Client check;
  check.connect("127.0.0.1", server.port());
  EXPECT_TRUE(check.call("ping", Json()).ok());
  check.close();
  server.stop();
}

TEST(Reconfigure, FlipFlopUnderContinuousLoadLosesNothing) {
  // The elastic-pool acceptance test: clients hammer a keep-alive-free
  // request loop while the pool flip-flops 1 <-> 4 workers. Every
  // admitted request must complete (capacity is ample, so none are
  // rejected) and no transport error may ever surface -- a killed
  // in-flight request would show up as exactly that.
  Server server(loopback_config(2, 32));
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        try {
          Client client;
          client.connect("127.0.0.1", server.port(), 5.0);
          Json params = Json::object();
          params.set("seconds", Json(0.005));
          const CallResult r = client.call("sleep", std::move(params));
          if (r.ok()) {
            ++ok;
          } else {
            ++failed;
          }
          client.close();
        } catch (const std::exception&) {
          ++failed;
        }
      }
    });
  }

  for (int flip = 0; flip < 12; ++flip) {
    (void)server.reconfigure((flip % 2 == 0) ? 4 : 1, 0);
    // Every flip lands under load: wait for a request served after it.
    const std::uint64_t at_flip = server.stats().requests;
    EXPECT_TRUE(
        poll_until([&] { return server.stats().requests > at_flip; }));
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.reconfigures, 12u);
}

TEST(Reconfigure, RejectedWhileStoppedOrStopping) {
  Server server(loopback_config(1, 2));
  EXPECT_THROW((void)server.reconfigure(2, 4), upa::common::ModelError);
  server.start();
  (void)server.reconfigure(2, 4);
  server.stop();
  EXPECT_THROW((void)server.reconfigure(1, 2), upa::common::ModelError);
  // A restart resumes at the last configured targets, not the ctor's.
  server.start();
  const auto stats = server.stats();
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.capacity, 4u);
  server.stop();
}

}  // namespace
