// The dispatch front end: upstream pool bookkeeping, balancing policies,
// health-driven ejection/readmission, byte-identical forwarding, the
// bounded failover retry layer, and the live kill -9 farm experiment
// validated against the imperfect-coverage composite model.
//
// Naming note: the Dispatch* and FarmFailover suites run under the
// ThreadSanitizer CI job (its ctest regex includes "Dispatch" and
// "Farm"), so the kill -9 failover exercises the reactor and the
// upstream connection pool under the race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "poll_until.hpp"
#include "upa/common/error.hpp"
#include "upa/dispatch/balancer.hpp"
#include "upa/dispatch/farm.hpp"
#include "upa/dispatch/front.hpp"
#include "upa/dispatch/health.hpp"
#include "upa/dispatch/upstream.hpp"
#include "upa/inject/fault_plan.hpp"
#include "upa/obs/metrics.hpp"
#include "upa/obs/trace.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/protocol.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/serve/server.hpp"

namespace {

using upa::common::ModelError;
using upa::dispatch::AttemptOutcome;
using upa::dispatch::BalancePolicy;
using upa::dispatch::Balancer;
using upa::dispatch::Front;
using upa::dispatch::FrontConfig;
using upa::dispatch::UpstreamAddress;
using upa::dispatch::UpstreamPool;
using upa::serve::CallOutcome;
using upa::serve::Server;
using upa::serve::ServerConfig;
using upa::testing::poll_until;

/// Starts and immediately stops an ephemeral server, yielding a loopback
/// port that is bound by nobody: connections to it are refused fast,
/// which is exactly how a SIGKILLed replica looks to the front.
std::uint16_t claim_dead_port() {
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.capacity = 2;
  Server server(std::move(config));
  server.start();
  const std::uint16_t port = server.port();
  server.stop();
  return port;
}

ServerConfig live_server_config(std::size_t workers = 2,
                                std::size_t capacity = 8,
                                std::uint16_t port = 0) {
  ServerConfig config;
  config.port = port;
  config.workers = workers;
  config.capacity = capacity;
  return config;
}

/// Health thresholds so large the initial sweep never changes a verdict:
/// these tests pin the retry layer, not the checker.
upa::dispatch::HealthConfig inert_health() {
  upa::dispatch::HealthConfig health;
  health.probe_interval_seconds = 30.0;
  health.probe_timeout_seconds = 0.2;
  health.unhealthy_threshold = 1000;
  health.healthy_threshold = 1;
  return health;
}

// --- Upstream pool -------------------------------------------------------

TEST(DispatchUpstream, ParsesAddressesAndLists) {
  const UpstreamAddress a =
      upa::dispatch::parse_upstream_address("127.0.0.1:7077");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 7077);
  EXPECT_EQ(a.label(), "127.0.0.1:7077");

  const std::vector<UpstreamAddress> list =
      upa::dispatch::parse_upstream_list("127.0.0.1:1,localhost:2,,h:3");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].host, "localhost");
  EXPECT_EQ(list[2].port, 3);

  EXPECT_THROW((void)upa::dispatch::parse_upstream_address("noport"),
               ModelError);
  EXPECT_THROW((void)upa::dispatch::parse_upstream_address("h:0"),
               ModelError);
  EXPECT_THROW((void)upa::dispatch::parse_upstream_address("h:70000"),
               ModelError);
  EXPECT_THROW((void)upa::dispatch::parse_upstream_address("h:12x"),
               ModelError);
  EXPECT_THROW((void)upa::dispatch::parse_upstream_list(",,"), ModelError);
}

TEST(DispatchUpstream, CallCountersTrackOutcomes) {
  UpstreamPool pool({{"127.0.0.1", 1}, {"127.0.0.1", 2}});
  pool.begin_call(0);
  {
    std::vector<bool> healthy;
    std::vector<std::size_t> outstanding;
    pool.balancing_view(healthy, outstanding);
    EXPECT_EQ(outstanding[0], 1u);
    EXPECT_EQ(outstanding[1], 0u);
  }
  pool.end_call(0, AttemptOutcome::kOk, 0.25);
  pool.begin_call(0);
  pool.end_call(0, AttemptOutcome::kTransport, 0.5);
  pool.begin_call(1);
  pool.end_call(1, AttemptOutcome::kRejected, 0.125);

  const auto snap = pool.snapshot();
  EXPECT_EQ(snap[0].attempts, 2u);
  EXPECT_EQ(snap[0].ok, 1u);
  EXPECT_EQ(snap[0].transport, 1u);
  EXPECT_EQ(snap[0].outstanding, 0u);
  EXPECT_DOUBLE_EQ(snap[0].latency_sum_seconds, 0.75);
  EXPECT_EQ(snap[1].rejected, 1u);
}

TEST(DispatchUpstream, ProbeThresholdsEjectAndReadmit) {
  UpstreamPool pool({{"127.0.0.1", 1}});
  // Two consecutive failures required: the first does not flip.
  EXPECT_FALSE(pool.record_probe(0, false, 2, 2));
  EXPECT_TRUE(pool.healthy(0));
  EXPECT_TRUE(pool.record_probe(0, false, 2, 2));  // flipped: ejected
  EXPECT_FALSE(pool.healthy(0));
  // A lone success resets the failure streak but does not readmit yet.
  EXPECT_FALSE(pool.record_probe(0, true, 2, 2));
  EXPECT_FALSE(pool.healthy(0));
  EXPECT_TRUE(pool.record_probe(0, true, 2, 2));  // flipped: readmitted
  EXPECT_TRUE(pool.healthy(0));

  const auto snap = pool.snapshot();
  EXPECT_EQ(snap[0].probe_failures, 2u);
  EXPECT_EQ(snap[0].ejections, 1u);
  EXPECT_EQ(snap[0].readmissions, 1u);
}

// --- Balancer ------------------------------------------------------------

TEST(DispatchBalancer, ParsesPolicyNames) {
  EXPECT_EQ(upa::dispatch::parse_balance_policy("round-robin"),
            BalancePolicy::kRoundRobin);
  EXPECT_EQ(upa::dispatch::parse_balance_policy("least-outstanding"),
            BalancePolicy::kLeastOutstanding);
  EXPECT_EQ(upa::dispatch::parse_balance_policy("consistent-hash"),
            BalancePolicy::kConsistentHash);
  EXPECT_THROW((void)upa::dispatch::parse_balance_policy("random"),
               ModelError);
  EXPECT_EQ(upa::dispatch::balance_policy_name(BalancePolicy::kRoundRobin),
            "round-robin");
}

TEST(DispatchBalancer, RoundRobinCyclesThroughAllUpstreams) {
  UpstreamPool pool({{"h", 1}, {"h", 2}, {"h", 3}});
  Balancer balancer(pool, BalancePolicy::kRoundRobin);
  std::set<std::size_t> firsts;
  for (int i = 0; i < 3; ++i) {
    const auto order = balancer.pick("ignored");
    ASSERT_EQ(order.size(), 3u);
    firsts.insert(order.front());
  }
  EXPECT_EQ(firsts.size(), 3u);  // three picks, three distinct leaders
}

TEST(DispatchBalancer, LeastOutstandingPrefersIdleReplica) {
  UpstreamPool pool({{"h", 1}, {"h", 2}, {"h", 3}});
  Balancer balancer(pool, BalancePolicy::kLeastOutstanding);
  pool.begin_call(0);
  pool.begin_call(0);
  pool.begin_call(1);
  const auto order = balancer.pick("ignored");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // idle
  EXPECT_EQ(order[1], 1u);  // one outstanding
  EXPECT_EQ(order[2], 0u);  // two outstanding
}

TEST(DispatchBalancer, UnhealthyUpstreamsSinkToTheBackButStayPresent) {
  UpstreamPool pool({{"h", 1}, {"h", 2}, {"h", 3}});
  Balancer balancer(pool, BalancePolicy::kRoundRobin);
  ASSERT_TRUE(pool.record_probe(1, false, 1, 1));  // eject index 1
  for (int i = 0; i < 4; ++i) {
    const auto order = balancer.pick("ignored");
    ASSERT_EQ(order.size(), 3u);             // fail open: nobody dropped
    EXPECT_EQ(order.back(), 1u);             // ejected replica last
    EXPECT_NE(order.front(), 1u);
  }
}

TEST(DispatchBalancer, ConsistentHashIsStablePerKeyAndCompleteOrder) {
  UpstreamPool pool({{"h", 1}, {"h", 2}, {"h", 3}, {"h", 4}});
  Balancer balancer(pool, BalancePolicy::kConsistentHash);
  const std::string key_a = "mmck_metrics|{\"lambda\": 1}";
  const auto order_a1 = balancer.pick(key_a);
  const auto order_a2 = balancer.pick(key_a);
  EXPECT_EQ(order_a1, order_a2);  // same key, same preference order

  // The order is a permutation of all upstreams.
  std::vector<std::size_t> sorted = order_a1;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));

  // Different keys spread over different leaders.
  std::set<std::size_t> leaders;
  for (int i = 0; i < 64; ++i) {
    leaders.insert(balancer.pick("key-" + std::to_string(i)).front());
  }
  EXPECT_GT(leaders.size(), 1u);
}

TEST(DispatchBalancer, AffinityKeyIsMethodPlusParamsNotId) {
  const std::string a =
      R"({"id": 1, "method": "mmck_metrics", "params": {"lambda": 2}})";
  const std::string b =
      R"({"id": 99, "method": "mmck_metrics", "params": {"lambda": 2}})";
  const std::string c =
      R"({"id": 1, "method": "mmck_metrics", "params": {"lambda": 3}})";
  EXPECT_EQ(upa::dispatch::affinity_key(a), upa::dispatch::affinity_key(b));
  EXPECT_NE(upa::dispatch::affinity_key(a), upa::dispatch::affinity_key(c));
  // Unparseable lines still balance deterministically.
  EXPECT_EQ(upa::dispatch::affinity_key("{nope"), "{nope");
}

// --- Health checker ------------------------------------------------------

TEST(DispatchHealth, RejectsInvalidConfig) {
  upa::dispatch::HealthConfig bad;
  bad.probe_interval_seconds = 0.0;
  EXPECT_THROW(upa::dispatch::check_health_config(bad), ModelError);
  bad = {};
  bad.unhealthy_threshold = 0;
  EXPECT_THROW(upa::dispatch::check_health_config(bad), ModelError);
}

TEST(DispatchHealth, EjectsDeadUpstreamAndReadmitsAfterRestart) {
  const std::uint16_t dead_port = claim_dead_port();
  Server live(live_server_config());
  live.start();

  UpstreamPool pool(
      {{"127.0.0.1", dead_port}, {"127.0.0.1", live.port()}});
  upa::dispatch::HealthConfig config;
  config.probe_interval_seconds = 30.0;  // probe_all() drives the test
  config.probe_timeout_seconds = 0.5;
  config.unhealthy_threshold = 2;
  config.healthy_threshold = 1;
  upa::dispatch::HealthChecker checker(pool, config);

  checker.probe_all();
  EXPECT_TRUE(pool.healthy(0));  // one failure, threshold is two
  checker.probe_all();
  EXPECT_FALSE(pool.healthy(0));  // ejected
  EXPECT_TRUE(pool.healthy(1));   // live replica untouched

  // "Restart" the replica on the recorded port; one good probe readmits.
  Server revived(live_server_config(1, 4, dead_port));
  revived.start();
  checker.probe_all();
  EXPECT_TRUE(pool.healthy(0));
  const auto snap = pool.snapshot();
  EXPECT_EQ(snap[0].ejections, 1u);
  EXPECT_EQ(snap[0].readmissions, 1u);
  revived.stop();
  live.stop();
}

// --- Front: forwarding, byte identity, retries ---------------------------

TEST(DispatchFront, RejectsInvalidConfig) {
  FrontConfig config;  // no upstreams
  EXPECT_THROW(Front front(std::move(config)), ModelError);

  FrontConfig zero_budget;
  zero_budget.upstreams = {{"127.0.0.1", 1}};
  zero_budget.retry.max_attempts = 0;
  EXPECT_THROW(Front front(std::move(zero_budget)), ModelError);

  FrontConfig bad_jitter;
  bad_jitter.upstreams = {{"127.0.0.1", 1}};
  bad_jitter.retry.jitter = 1.5;
  EXPECT_THROW(Front front(std::move(bad_jitter)), ModelError);
}

TEST(DispatchFront, ResponsesAreByteIdenticalToDirectOnes) {
  Server server(live_server_config());
  server.start();

  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.workers = 2;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  const std::vector<std::string> lines = {
      R"({"id": 1, "method": "ping"})",
      R"({"id": 2, "method": "mmck_metrics", "params": )"
      R"({"lambda": 150.0, "mu": 100.0, "servers": 3, "capacity": 6}})",
      R"({"id": 3, "method": "no_such_method"})",
      R"({"id": 4, "method": "steady_state"})",
      "{this is not json",
  };
  upa::serve::Client direct;
  direct.connect("127.0.0.1", server.port());
  upa::serve::Client fronted;
  fronted.connect("127.0.0.1", front.port());
  for (const std::string& line : lines) {
    EXPECT_EQ(fronted.call_line(line), direct.call_line(line))
        << "through-dispatcher bytes differ for: " << line;
  }
  direct.close();
  fronted.close();
  front.stop();
  server.stop();
}

TEST(DispatchFront, DispatchStatsIsServedLocally) {
  Server server(live_server_config());
  server.start();

  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.policy = BalancePolicy::kRoundRobin;
  config.workers = 2;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  (void)client.call("ping", upa::serve::Json());
  const upa::serve::CallResult stats =
      client.call("dispatch_stats", upa::serve::Json());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.result()->find("policy")->as_string(), "round-robin");
  EXPECT_DOUBLE_EQ(stats.result()->find("upstream_count")->as_number(),
                   1.0);
  EXPECT_DOUBLE_EQ(stats.result()->find("forwarded_ok")->as_number(), 1.0);
  const upa::serve::Json* upstreams = stats.result()->find("upstreams");
  ASSERT_NE(upstreams, nullptr);
  EXPECT_EQ(upstreams->as_array().size(), 1u);
  client.close();

  EXPECT_EQ(front.stats().stats_served, 1u);
  // The upstream never saw the locally-served method.
  EXPECT_EQ(front.upstreams()[0].attempts, 1u);
  front.stop();
  server.stop();
}

TEST(DispatchFront, FailsOverToLiveReplicaAndCountsRequestOnceAsOk) {
  const std::uint16_t dead_port = claim_dead_port();
  Server live(live_server_config());
  live.start();

  FrontConfig config;
  // Round-robin over {dead, live}: about half of all requests hit the
  // dead replica first and must fail over.
  config.upstreams = {{"127.0.0.1", dead_port},
                      {"127.0.0.1", live.port()}};
  config.policy = BalancePolicy::kRoundRobin;
  config.workers = 2;
  config.retry.max_attempts = 3;
  config.retry.backoff_initial_seconds = 0.001;
  config.retry.backoff_max_seconds = 0.002;
  config.health = inert_health();  // keep the dead replica in rotation
  Front front(std::move(config));
  front.start();

  constexpr std::size_t kRequests = 10;
  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  for (std::size_t i = 0; i < kRequests; ++i) {
    const upa::serve::CallResult r =
        client.call("ping", upa::serve::Json(), i);
    EXPECT_EQ(r.outcome, CallOutcome::kOk) << "request " << i;
  }
  client.close();

  // Outcome taxonomy: a retried-then-succeeded request is ok, exactly
  // once -- never double-counted, never surfaced as a transport error.
  const upa::dispatch::FrontStats stats = front.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.forwarded_ok, kRequests);
  EXPECT_EQ(stats.forwarded_transport, 0u);
  EXPECT_EQ(stats.forwarded_rejected, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.retries, stats.failovers);  // every retry switched
  EXPECT_EQ(stats.retries_exhausted, 0u);

  const auto upstreams = front.upstreams();
  EXPECT_EQ(upstreams[0].transport, stats.retries);  // all on the corpse
  EXPECT_EQ(upstreams[1].ok, kRequests);
  front.stop();
  live.stop();
}

TEST(DispatchFront, ExhaustedBudgetYieldsRetriesExhaustedEnvelope) {
  const std::uint16_t dead_a = claim_dead_port();
  const std::uint16_t dead_b = claim_dead_port();

  FrontConfig config;
  config.upstreams = {{"127.0.0.1", dead_a}, {"127.0.0.1", dead_b}};
  config.workers = 1;
  config.retry.max_attempts = 3;
  config.retry.backoff_initial_seconds = 0.001;
  config.retry.backoff_max_seconds = 0.002;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  const upa::dispatch::ForwardResult fr =
      front.forward_line(R"({"id": 7, "method": "ping"})");
  EXPECT_TRUE(fr.exhausted);
  EXPECT_EQ(fr.final_outcome, AttemptOutcome::kTransport);
  ASSERT_EQ(fr.attempts.size(), 3u);
  // The walk alternated replicas: budget > 1 implies a failover.
  EXPECT_NE(fr.attempts[0].upstream_index, fr.attempts[1].upstream_index);

  const upa::serve::CallResult classified =
      upa::serve::classify_response(fr.response_line);
  EXPECT_EQ(classified.outcome, CallOutcome::kRejected);  // 503, not
  EXPECT_EQ(classified.code, 503);                        // transport
  EXPECT_EQ(classified.error_message, "retries_exhausted");
  EXPECT_DOUBLE_EQ(classified.envelope.find("id")->as_number(), 7.0);
  const upa::serve::Json* attempts =
      classified.envelope.find("error")->find("attempts");
  ASSERT_NE(attempts, nullptr);
  ASSERT_EQ(attempts->as_array().size(), 3u);
  EXPECT_EQ(attempts->as_array()[0].find("outcome")->as_string(),
            "transport_error");
  EXPECT_EQ(front.stats().retries_exhausted, 1u);

  // Through a real connection the same exhaustion classifies as a
  // rejection -- never as a client-visible transport error.
  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  const upa::serve::CallResult via_wire =
      client.call("ping", upa::serve::Json());
  EXPECT_EQ(via_wire.outcome, CallOutcome::kRejected);
  EXPECT_EQ(via_wire.code, 503);
  client.close();
  EXPECT_EQ(front.stats().retries_exhausted, 2u);
  EXPECT_EQ(front.stats().forwarded_rejected, 1u);
  EXPECT_EQ(front.stats().forwarded_transport, 0u);
  front.stop();
}

TEST(DispatchFront, PublishesPerUpstreamMetrics) {
  Server server(live_server_config());
  server.start();

  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.workers = 1;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();
  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.call("ping", upa::serve::Json()).ok());
  client.close();

  upa::obs::MetricsRegistry metrics;
  front.publish_metrics(metrics);
  const std::string prefix =
      "dispatch.upstream.127.0.0.1:" + std::to_string(server.port());
  EXPECT_EQ(metrics.counters().at(prefix + ".attempts").value(), 1u);
  EXPECT_EQ(metrics.counters().at(prefix + ".ok").value(), 1u);
  EXPECT_EQ(metrics.counters().at("dispatch.forwarded_ok").value(), 1u);
  EXPECT_FALSE(metrics.histograms().empty());
  front.stop();
  server.stop();
}

TEST(DispatchFront, ReusesPooledUpstreamConnections) {
  // Upstream connections are kept alive: 200 sequential requests open at
  // most one connection per forward in flight (the initial health
  // probe's included), not one per request.
  Server server(live_server_config());
  server.start();
  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.workers = 4;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  for (std::uint64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(client.call("ping", upa::serve::Json(), id).ok()) << id;
  }
  client.close();
  EXPECT_LE(server.stats().accepted, 4u);
  EXPECT_EQ(server.stats().admitted, 201u);  // the probe's ping, too
  front.stop();
  server.stop();
}

TEST(DispatchFront, StalePooledConnectionReconnectsWithoutTransportFailure) {
  // The upstream restarts on the same port, so the front's pooled
  // connection is closed under it. The next request reconnects within
  // its attempt: no transport failure, no retry.
  auto first = std::make_unique<Server>(live_server_config());
  first->start();
  const std::uint16_t port = first->port();
  FrontConfig config;
  config.upstreams = {{"127.0.0.1", port}};
  config.workers = 2;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.call("ping", upa::serve::Json(), 1).ok());
  first->stop();
  first.reset();
  Server second(live_server_config(2, 8, port));
  second.start();

  const upa::serve::CallResult r = client.call("ping", upa::serve::Json(), 2);
  EXPECT_TRUE(r.ok()) << r.error_message;
  client.close();
  const upa::dispatch::FrontStats stats = front.stats();
  EXPECT_EQ(stats.forwarded_ok, 2u);
  EXPECT_EQ(stats.forwarded_transport, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(front.upstreams()[0].transport, 0u);
  EXPECT_EQ(second.stats().admitted, 1u);
  front.stop();
  second.stop();
}

TEST(DispatchFront, SlowUpstreamCallDoesNotStallOtherForwards) {
  // Two forwards in flight: while one waits 0.3 s on its upstream,
  // another client's ping must be forwarded and answered. Nothing in the
  // front may block on an upstream.
  Server server(live_server_config(2, 8));
  server.start();
  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.workers = 2;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  std::atomic<bool> sleep_done{false};
  std::thread sleeper([&] {
    upa::serve::Client c;
    c.connect("127.0.0.1", front.port());
    upa::serve::Json params = upa::serve::Json::object();
    params.set("seconds", upa::serve::Json(0.3));
    EXPECT_TRUE(c.call("sleep", std::move(params)).ok());
    sleep_done.store(true);
  });
  ASSERT_TRUE(poll_until([&] { return front.stats().in_system == 1; }));

  upa::serve::Client pinger;
  pinger.connect("127.0.0.1", front.port());
  EXPECT_TRUE(pinger.call("ping", upa::serve::Json()).ok());
  // The ping went through while the sleep was still in the front: the
  // ping's slot frees once its answer is written, the sleep's only
  // after 0.3 s.
  EXPECT_FALSE(sleep_done.load());
  EXPECT_TRUE(poll_until([&] { return front.stats().in_system == 1; }));
  EXPECT_FALSE(sleep_done.load());

  sleeper.join();
  pinger.close();
  front.stop();
  server.stop();
  EXPECT_EQ(front.stats().forwarded_ok, 2u);
}

TEST(DispatchFront, ClientHangupMidForwardReleasesSlotAndPooledConnection) {
  // A client that hangs up while its forward is in flight still frees
  // the forward's slot once the upstream answers, and the upstream
  // connection goes back to the pool: the next request reuses it.
  Server server(live_server_config(2, 8));
  server.start();
  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.workers = 2;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  {
    upa::serve::Client quitter;
    quitter.connect("127.0.0.1", front.port());
    quitter.send_line(
        R"({"id": 1, "method": "sleep", "params": {"seconds": 0.2}})");
    ASSERT_TRUE(poll_until([&] { return front.stats().admitted == 1; }));
  }  // closed with its forward in flight
  ASSERT_TRUE(poll_until([&] { return front.stats().in_system == 0; }));

  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  EXPECT_TRUE(client.call("ping", upa::serve::Json()).ok());
  client.close();
  // The start-up health probe's connection plus at most `workers`
  // pooled ones.
  EXPECT_LE(server.stats().accepted, 1u + 2u);
  front.stop();
  server.stop();
  EXPECT_EQ(front.stats().completed, 2u);
}

TEST(DispatchFront, RetryBackoffIsTimerDrivenNotTickQuantized) {
  // Round-robin over {dead, live} with a 2 ms backoff: about half of 20
  // pings hit the dead replica first and retry once on the live one. The
  // reactor's deadline sweep ticks every 100 ms at the default 10 s read
  // timeout, so a backoff rounded up to the tick would take >= 1 s; a
  // timer-driven one takes a few milliseconds per retry.
  const std::uint16_t dead_port = claim_dead_port();
  Server live(live_server_config());
  live.start();
  FrontConfig config;
  config.upstreams = {{"127.0.0.1", dead_port}, {"127.0.0.1", live.port()}};
  config.policy = BalancePolicy::kRoundRobin;
  config.workers = 2;
  config.retry.max_attempts = 3;
  config.retry.backoff_initial_seconds = 0.002;
  config.retry.backoff_max_seconds = 0.002;
  config.health = inert_health();
  ASSERT_DOUBLE_EQ(config.read_timeout_seconds, 10.0);
  Front front(std::move(config));
  front.start();

  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t id = 0; id < 20; ++id) {
    ASSERT_TRUE(client.call("ping", upa::serve::Json(), id).ok()) << id;
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  client.close();
  EXPECT_GE(front.stats().retries, 5u);
  EXPECT_LT(elapsed, 0.5);
  front.stop();
  live.stop();
}

// --- Kill schedules from FaultPlans --------------------------------------

TEST(DispatchFarmSchedule, MapsFaultPlanWindowsOntoReplicas) {
  upa::inject::FaultPlan plan;
  plan.add(upa::inject::FaultTarget::kWebFarm, 1.0, 0.5);
  plan.add(upa::inject::FaultTarget::kWebFarm, 3.0, 0.25);
  const auto kills =
      upa::dispatch::kill_schedule_from_fault_plan(plan, 2, 2.0);
  ASSERT_EQ(kills.size(), 2u);
  EXPECT_EQ(kills[0].replica, 0u);
  EXPECT_DOUBLE_EQ(kills[0].down_at_seconds, 2.0);
  EXPECT_DOUBLE_EQ(kills[0].up_at_seconds, 3.0);
  EXPECT_EQ(kills[1].replica, 1u);
  EXPECT_DOUBLE_EQ(kills[1].down_at_seconds, 6.0);
  EXPECT_DOUBLE_EQ(kills[1].up_at_seconds, 6.5);
}

TEST(DispatchFarmSchedule, RejectsOverlapsAndEmptyPlans) {
  upa::inject::FaultPlan empty;
  EXPECT_THROW(
      (void)upa::dispatch::kill_schedule_from_fault_plan(empty, 3, 1.0),
      ModelError);

  upa::inject::FaultPlan overlapping;
  overlapping.add(upa::inject::FaultTarget::kWebFarm, 1.0, 2.0);
  overlapping.add(upa::inject::FaultTarget::kWebFarm, 2.5, 2.0);
  // merged_windows coalesces touching windows into one; a single merged
  // window is a valid (single-kill) schedule, so craft a real overlap via
  // scaling is impossible -- instead assert the merged plan maps to one
  // kill covering the union.
  const auto kills = upa::dispatch::kill_schedule_from_fault_plan(
      overlapping, 3, 1.0);
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_DOUBLE_EQ(kills[0].down_at_seconds, 1.0);
  EXPECT_DOUBLE_EQ(kills[0].up_at_seconds, 4.5);
}

// --- Live farm: kill -9 failover vs the composite model ------------------
// Spawns real processes and measures a timed loss fraction.

// --- Distributed tracing through the front -------------------------------

namespace trace_helpers {

/// Attribute lookups over a daemon's span table.
std::string text_attr(const upa::obs::Span& span, const std::string& key) {
  for (const upa::obs::SpanAttribute& attr : span.attributes) {
    if (attr.key == key && !attr.is_number) return attr.text;
  }
  return "";
}

double number_attr(const upa::obs::Span& span, const std::string& key) {
  for (const upa::obs::SpanAttribute& attr : span.attributes) {
    if (attr.key == key && attr.is_number) return attr.number;
  }
  return -1.0;
}

}  // namespace trace_helpers

TEST(DispatchTrace, OriginatesTraceAndRecordsAttemptTaxonomy) {
  using trace_helpers::number_attr;
  using trace_helpers::text_attr;

  const std::uint16_t dead_port = claim_dead_port();
  Server live(live_server_config());
  live.start();

  FrontConfig config;
  // Round-robin over {dead, live}: about half of all requests must fail
  // over, giving every attempt-outcome pattern in one run.
  config.upstreams = {{"127.0.0.1", dead_port},
                      {"127.0.0.1", live.port()}};
  config.policy = BalancePolicy::kRoundRobin;
  config.workers = 2;
  config.retry.max_attempts = 3;
  config.retry.backoff_initial_seconds = 0.001;
  config.retry.backoff_max_seconds = 0.002;
  config.health = inert_health();
  config.trace = true;
  Front front(std::move(config));
  front.start();

  constexpr std::size_t kRequests = 10;
  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  for (std::size_t i = 0; i < kRequests; ++i) {
    // No trace member: the front originates a fresh context.
    ASSERT_EQ(client.call("ping", upa::serve::Json(), i).outcome,
              CallOutcome::kOk);
  }
  client.close();
  front.stop();
  live.stop();

  const std::vector<upa::obs::Span> spans = front.spans();
  std::vector<const upa::obs::Span*> roots;
  std::map<upa::obs::SpanId, std::vector<const upa::obs::Span*>> children;
  std::set<double> refs;
  for (const upa::obs::Span& span : spans) {
    if (span.level == upa::obs::SpanLevel::kDispatchRequest) {
      roots.push_back(&span);
    } else if (span.level == upa::obs::SpanLevel::kDispatchAttempt) {
      children[span.parent].push_back(&span);
      EXPECT_TRUE(refs.insert(number_attr(span, "ref")).second)
          << "attempt span refs must be distinct";
    }
  }
  ASSERT_EQ(roots.size(), kRequests);
  EXPECT_EQ(front.dropped_spans(), 0u);

  std::set<std::string> trace_ids;
  bool saw_failover = false;
  for (const upa::obs::Span* root : roots) {
    EXPECT_EQ(root->name, "ping");
    EXPECT_EQ(text_attr(*root, "outcome"), "ok");
    EXPECT_TRUE(trace_ids.insert(text_attr(*root, "trace_id")).second)
        << "originated trace_ids must be distinct";
    // Originated context: the root itself is the trace root.
    EXPECT_EQ(number_attr(*root, "parent_span"), 0.0);
    const auto& attempts = children[root->id];
    ASSERT_FALSE(attempts.empty());
    EXPECT_EQ(number_attr(*root, "attempts"),
              static_cast<double>(attempts.size()));
    EXPECT_EQ(text_attr(*attempts.back(), "outcome"), "ok");
    if (attempts.size() == 2) {
      saw_failover = true;
      EXPECT_EQ(text_attr(*attempts.front(), "outcome"),
                "transport_error");
      EXPECT_NE(text_attr(*attempts.front(), "upstream"),
                text_attr(*attempts.back(), "upstream"));
    }
  }
  // Round-robin over a dead replica guarantees retried requests.
  EXPECT_TRUE(saw_failover);
}

TEST(DispatchTrace, AdoptedContextLinksFrontAndServerSpans) {
  using trace_helpers::number_attr;
  using trace_helpers::text_attr;

  ServerConfig server_config = live_server_config();
  server_config.trace = true;
  Server server(std::move(server_config));
  server.start();

  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.health = inert_health();
  config.trace = true;
  Front front(std::move(config));
  front.start();

  upa::serve::TraceContext context;
  context.trace_id = "00000000000000ab";
  context.span_id = 5;
  upa::serve::Client client;
  client.connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.call("ping", upa::serve::Json(), 1, &context).ok());
  client.close();
  front.stop();
  server.stop();

  // The front adopted the client's context...
  const std::vector<upa::obs::Span> front_spans = front.spans();
  const upa::obs::Span* root = nullptr;
  const upa::obs::Span* attempt = nullptr;
  for (const upa::obs::Span& span : front_spans) {
    if (span.level == upa::obs::SpanLevel::kDispatchRequest) root = &span;
    if (span.level == upa::obs::SpanLevel::kDispatchAttempt) {
      attempt = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(attempt, nullptr);
  EXPECT_EQ(text_attr(*root, "trace_id"), "00000000000000ab");
  EXPECT_EQ(number_attr(*root, "parent_span"), 5.0);

  // ...and the replica's serve_request span parents on exactly the
  // attempt's propagated reference: the cross-process linkage the
  // collector stitches on.
  const std::vector<upa::obs::Span> server_spans = server.spans();
  const upa::obs::Span* server_root = nullptr;
  for (const upa::obs::Span& span : server_spans) {
    if (span.level == upa::obs::SpanLevel::kServeRequest) {
      server_root = &span;
    }
  }
  ASSERT_NE(server_root, nullptr);
  EXPECT_EQ(text_attr(*server_root, "trace_id"), "00000000000000ab");
  EXPECT_EQ(number_attr(*server_root, "parent_span"),
            number_attr(*attempt, "ref"));
}

TEST(DispatchTrace, MalformedTraceForwardsVerbatimAndRecordsNothing) {
  Server server(live_server_config());
  server.start();

  FrontConfig config;
  config.upstreams = {{"127.0.0.1", server.port()}};
  config.health = inert_health();
  config.trace = true;
  Front front(std::move(config));
  front.start();

  const std::string bad =
      R"({"id": 3, "method": "ping", "trace": {"trace_id": "NOPE"}})";
  upa::serve::Client direct;
  direct.connect("127.0.0.1", server.port());
  upa::serve::Client fronted;
  fronted.connect("127.0.0.1", front.port());
  const std::string via_front = fronted.call_line(bad);
  // The upstream dispatcher's canonical 400, byte-identical to direct.
  EXPECT_EQ(via_front, direct.call_line(bad));
  EXPECT_NE(via_front.find("400"), std::string::npos);
  direct.close();
  fronted.close();
  front.stop();
  server.stop();

  // An unparseable context is not a trace: the front records no spans
  // for it rather than inventing linkage the collector would trip on.
  EXPECT_TRUE(front.spans().empty());
}

TEST(FarmFailover, TracedRunAccountsEverySpan) {
  // A traced farm run must account for every request the loadgen issued:
  // one dispatch_request root per request, attempt children matching
  // each root's declared count, zero dropped spans, and a one-to-one
  // trace_id match against the loadgen's own request log. Admission
  // rejections (503) under a = 2 erlangs make the taxonomy nontrivial.
  upa::dispatch::FarmExperimentConfig config;
  config.replica.served_binary = UPA_SERVED_BINARY;
  config.replica.workers = 1;
  config.replica.capacity = 3;
  config.replicas = 3;
  config.policy = BalancePolicy::kLeastOutstanding;
  config.retry.max_attempts = 3;
  config.lambda = 40.0;
  config.nu = 20.0;
  config.requests = 120;  // ~3 s of open-loop load
  config.seed = 11;
  config.call_timeout_seconds = 5.0;
  config.health = inert_health();
  config.trace = true;

  const upa::dispatch::FarmExperimentResult r =
      upa::dispatch::run_farm_experiment(config);

  EXPECT_EQ(r.loss.sent, config.requests);
  EXPECT_EQ(r.loss.transport_errors, 0u);
  ASSERT_EQ(r.loss.request_log.size(), config.requests);
  EXPECT_TRUE(r.trace_accounted) << r.trace_accounting_error;
  EXPECT_EQ(r.traced_requests, config.requests);
  EXPECT_GE(r.traced_attempts, r.traced_requests);
  EXPECT_EQ(r.trace_dropped_spans, 0u);
}

TEST(FarmFailover, KillNineMidRunStaysWithinCompositePrediction) {
  upa::dispatch::FarmExperimentConfig config;
  config.replica.served_binary = UPA_SERVED_BINARY;
  config.replica.workers = 1;   // per-replica i
  config.replica.capacity = 3;  // per-replica K_r
  config.replicas = 3;          // the paper's N_W
  config.policy = BalancePolicy::kLeastOutstanding;
  config.retry.max_attempts = 3;
  // ~100 ms mean services at a = 2 erlangs: slow services keep the
  // container's scheduling overhead a rounding error against the
  // modeled service time, and moderate utilization keeps the pooled
  // composite idealization close to the per-replica-blocking reality.
  config.lambda = 20.0;
  config.nu = 10.0;
  config.requests = 500;  // ~25 s of open-loop load
  config.seed = 1;
  config.call_timeout_seconds = 5.0;
  config.health.probe_interval_seconds = 0.25;
  config.health.unhealthy_threshold = 1;  // detection delay d = 0.25 s
  config.health.healthy_threshold = 1;

  // One uncovered failure driven through the FaultPlan machinery:
  // replica 0 is SIGKILLed at t=6.0 s and restarted at t=9.5 s.
  upa::inject::FaultPlan plan;
  plan.add(upa::inject::FaultTarget::kWebFarm, 6.0 / 3600.0, 3.5 / 3600.0);
  config.kills = upa::dispatch::kill_schedule_from_fault_plan(
      plan, config.replicas, 3600.0);

  const upa::dispatch::FarmExperimentResult r =
      upa::dispatch::run_farm_experiment(config);

  EXPECT_EQ(r.kills_executed, 1u);
  EXPECT_GT(r.total_down_seconds, 0.0);
  EXPECT_GT(r.coverage, 0.0);
  EXPECT_LT(r.coverage, 1.0);  // the probe delay is real

  // Budgeted retries must fully mask the kill: zero client-visible
  // transport errors.
  EXPECT_EQ(r.loss.transport_errors, 0u);
  EXPECT_EQ(r.loss.sent, config.requests);
  // The front did real failover work while replica 0 was down.
  EXPECT_GE(r.front.retries, 1u);
  EXPECT_EQ(r.front.forwarded_transport, 0u);

  // The measured farm-level rejection+failure fraction sits within
  // 4 sigma (+ scheduling allowance) of the imperfect-coverage
  // composite prediction -- and the prediction itself is nontrivial.
  EXPECT_GT(r.predicted_loss_imperfect, 0.02);
  EXPECT_LT(r.predicted_loss_imperfect, 0.3);
  EXPECT_TRUE(r.within_tolerance)
      << "measured=" << r.measured_loss_fraction
      << " predicted_imperfect=" << r.predicted_loss_imperfect
      << " predicted_perfect=" << r.predicted_loss_perfect
      << " tolerance=" << r.tolerance;
  // Imperfect coverage must matter: with c < 1 the imperfect prediction
  // exceeds the perfect one (manual states lose more).
  EXPECT_GT(r.predicted_loss_imperfect, r.predicted_loss_perfect);
}

TEST(FarmFailover, AntiEntropyConvergesWithoutOrchestratorTransfers) {
  // The warm restart: replica 1 (outside the kill schedule) is
  // pre-warmed with distinct design points; the killed replica comes
  // back with --peers/--anti-entropy-ms, diffs digests against a
  // sibling, and pulls ONLY its missing records itself -- the
  // orchestrator ships nothing, yet the replica ends up warm enough to
  // replay every pre-warmed design point as a hit.
  upa::dispatch::FarmExperimentConfig config;
  config.replica.served_binary = UPA_SERVED_BINARY;
  config.replica.workers = 1;
  config.replica.capacity = 3;
  config.replicas = 3;
  config.policy = BalancePolicy::kLeastOutstanding;
  config.retry.max_attempts = 3;
  config.lambda = 20.0;
  config.nu = 10.0;
  config.requests = 200;  // ~10 s of open-loop load
  config.seed = 7;
  config.call_timeout_seconds = 5.0;
  config.health.probe_interval_seconds = 0.25;
  config.health.unhealthy_threshold = 1;
  config.health.healthy_threshold = 1;
  config.kills.push_back({0, 3.0, 5.5});
  config.warm_points = 8;
  config.anti_entropy_ms = 100;

  const upa::dispatch::FarmExperimentResult r =
      upa::dispatch::run_farm_experiment(config);

  EXPECT_EQ(r.kills_executed, 1u);
  EXPECT_TRUE(r.anti_entropy_ok) << r.anti_entropy_error;
  EXPECT_EQ(r.warm_peer, 1u);  // first replica outside the kill set
  EXPECT_EQ(r.warm_points_computed, config.warm_points);
  // The replica gossiped at least one round and pulled the warm set
  // itself.
  EXPECT_GE(r.anti_entropy_rounds, 1u);
  EXPECT_GE(r.anti_entropy_records_pulled, config.warm_points);
  EXPECT_GE(r.warmed_hits, config.warm_points);
  EXPECT_EQ(r.loss.transport_errors, 0u);
}

TEST(FarmFailover, NoFaultInjectionMeansByteIdenticalAndPooledLoss) {
  // Fault injection disabled: the farm is just a pooled M/M/(N*i)/(N*K)
  // queue behind the front, and responses stay byte-identical to direct
  // ones (pinned against one replica spawned by the orchestrator).
  upa::dispatch::ReplicaConfig replica;
  replica.served_binary = UPA_SERVED_BINARY;
  // Two workers per replica: the direct keep-alive connection pins one
  // worker for its whole lifetime, and forwarded attempts need another.
  replica.workers = 2;
  replica.capacity = 4;
  upa::dispatch::FarmOrchestrator farm(replica, 2);
  farm.start_all();
  ASSERT_EQ(farm.size(), 2u);
  EXPECT_TRUE(farm.alive(0));
  EXPECT_TRUE(farm.alive(1));

  FrontConfig config;
  config.upstreams = farm.addresses();
  config.workers = 2;
  config.health = inert_health();
  Front front(std::move(config));
  front.start();

  upa::serve::Client direct;
  direct.connect("127.0.0.1", farm.addresses()[0].port);
  upa::serve::Client fronted;
  fronted.connect("127.0.0.1", front.port());
  const std::vector<std::string> lines = {
      R"({"id": 1, "method": "ping"})",
      R"({"id": 2, "method": "steady_state"})",
      "{still not json",
  };
  for (const std::string& line : lines) {
    EXPECT_EQ(fronted.call_line(line), direct.call_line(line));
  }
  direct.close();
  fronted.close();
  front.stop();
  farm.stop_all();
  EXPECT_FALSE(farm.alive(0));
}

}  // namespace
