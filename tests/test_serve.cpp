// The evaluation service: dispatcher semantics, loopback server
// lifecycle, non-blocking admission control, deadlines, graceful drain,
// and the M/M/i/K dogfood -- the measured rejection fraction of the
// server itself must match the paper's eq. (3) loss probability.
//
// Naming note: every suite here runs under the ThreadSanitizer CI job
// (its ctest regex includes "Serve", "Subscribe" and "Loadgen"), so the
// reactor and its workers are raced there too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "poll_until.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cache/segment.hpp"
#include "upa/cache/serialize.hpp"
#include "upa/common/error.hpp"
#include "upa/dispatch/front.hpp"
#include "upa/obs/metrics.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/anti_entropy.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/connection_server.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/serve/protocol.hpp"
#include "upa/serve/server.hpp"
#include "upa/ta/user_classes.hpp"

namespace {

using upa::serve::CallOutcome;
using upa::serve::CallResult;
using upa::serve::Client;
using upa::serve::Dispatcher;
using upa::serve::ErrorCode;
using upa::serve::Json;
using upa::serve::parse_json;
using upa::serve::Server;
using upa::serve::ServerConfig;
using upa::testing::poll_until;

// --- Dispatcher (transport-free) -----------------------------------------

TEST(ServeDispatcher, PingRoundTrip) {
  const Dispatcher d;
  const Json response =
      parse_json(d.dispatch_line(R"({"id": 1, "method": "ping"})"));
  EXPECT_TRUE(response.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(response.find("id")->as_number(), 1.0);
  EXPECT_TRUE(response.find("result")->find("pong")->as_bool());
}

TEST(ServeDispatcher, ErrorEnvelopes) {
  const Dispatcher d;
  // Unparseable line -> 400 with null id.
  Json r = parse_json(d.dispatch_line("{nope"));
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_TRUE(r.find("id")->is_null());
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
  // Non-object request -> 400.
  r = parse_json(d.dispatch_line("[1,2]"));
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
  // Missing method -> 400; id still echoed.
  r = parse_json(d.dispatch_line(R"({"id": "abc"})"));
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
  EXPECT_EQ(r.find("id")->as_string(), "abc");
  // Unknown method -> 404 listing the known ones.
  r = parse_json(d.dispatch_line(R"({"id": 2, "method": "nope"})"));
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kUnknownMethod);
  EXPECT_NE(r.find("error")->find("message")->as_string().find("ping"),
            std::string::npos);
  // Bad parameter value -> 400 (ModelError from the handler).
  r = parse_json(d.dispatch_line(
      R"({"id": 3, "method": "sleep", "params": {"seconds": -1}})"));
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
}

TEST(ServeDispatcher, RejectsOutOfRangeIntegerParams) {
  const Dispatcher d;
  // 1e30 is non-negative and integral, so it passed the old checks, but
  // casting it to size_t is undefined behavior -> must 400 instead.
  Json r = parse_json(d.dispatch_line(
      R"({"id": 1, "method": "mmck_metrics", "params": {"servers": 1e30}})"));
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
  // In-range but absurd simulator sizes are bounded too, so one request
  // cannot commission years of compute.
  r = parse_json(d.dispatch_line(
      R"({"id": 2, "method": "simulate_end_to_end",)"
      R"( "params": {"sessions": 1e12}})"));
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
}

TEST(ServeDispatcher, NestingBombIsA400NotACrash) {
  // A deeply nested request line must come back as a parse-error
  // envelope; before the parser depth cap it overflowed the stack.
  const Dispatcher d;
  const Json r = parse_json(d.dispatch_line(std::string(200000, '[')));
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
}

TEST(ServeDispatcher, MmckMetricsMatchesLibrary) {
  const Dispatcher d;
  const Json r = parse_json(d.dispatch_line(
      R"({"id": 4, "method": "mmck_metrics",)"
      R"( "params": {"alpha": 300, "nu": 100, "servers": 2, "capacity": 4}})"));
  ASSERT_TRUE(r.find("ok")->as_bool());
  const double loss = r.find("result")->find("loss_probability")->as_number();
  EXPECT_DOUBLE_EQ(loss,
                   upa::queueing::mmck_loss_probability(300.0, 100.0, 2, 4));
}

TEST(ServeDispatcher, EvaluatorMethodsSucceedOnDefaults) {
  const Dispatcher d;
  for (const char* method :
       {"steady_state", "web_farm_availability", "composite_availability",
        "user_availability"}) {
    const Json r = parse_json(d.dispatch_line(
        std::string(R"({"id": 1, "method": ")") + method + R"("})"));
    EXPECT_TRUE(r.find("ok")->as_bool()) << method << ": " << r.dump();
  }
}

TEST(ServeDispatcher, CacheOnResponsesAreByteIdentical) {
  // The acceptance contract: with the evaluation cache enabled, every
  // response line is byte-for-byte the line produced with it disabled.
  // Each request runs twice under the cache so the second hit replays a
  // stored value -- if replay or serialization introduced any drift, the
  // strings would differ.
  const Dispatcher d;
  const std::vector<std::string> requests = {
      R"({"id": 1, "method": "mmck_metrics",)"
      R"( "params": {"alpha": 211, "nu": 97, "servers": 3, "capacity": 9}})",
      R"({"id": 2, "method": "steady_state", "params": {"nw": 3}})",
      R"({"id": 3, "method": "web_farm_availability",)"
      R"( "params": {"deadline": 0.08}})",
      R"({"id": 4, "method": "composite_availability", "params": {"nw": 2}})",
      R"({"id": 5, "method": "user_availability", "params": {"class": "A"}})",
  };

  std::vector<std::string> uncached;
  {
    upa::cache::ScopedEnable off(false);
    for (const std::string& line : requests) {
      uncached.push_back(d.dispatch_line(line));
    }
  }
  upa::cache::ScopedEnable on(true);
  upa::cache::global().clear();
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(d.dispatch_line(requests[i]), uncached[i])
          << "request " << i << " round " << round;
    }
  }
  // Round two actually hit the cache.
  EXPECT_GT(upa::cache::global().stats().hits, 0u);
  upa::cache::global().clear();
}

TEST(ServeDispatcher, CacheDigestPullShipsOnlyMissingRecords) {
  // The anti-entropy pull over the protocol, driven the way the agent
  // drives it: the caller summarizes what it holds locally
  // (cache::digest_summary), and `cache pull` answers with ONLY the
  // records that summary is missing. A caller that has everything gets
  // an empty delta; one that has nothing gets the full set, and
  // importing it after a wipe makes the re-issued evaluation a pure hit.
  const Dispatcher d;
  const std::string request =
      R"({"id": 1, "method": "mmck_metrics",)"
      R"( "params": {"alpha": 211, "nu": 97, "servers": 4, "capacity": 13}})";

  upa::cache::ScopedEnable on(true);
  upa::cache::global().clear();
  const std::string warm_line = d.dispatch_line(request);
  d.dispatch_line(
      R"({"id": 2, "method": "mmck_metrics",)"
      R"( "params": {"alpha": 223, "nu": 97, "servers": 4, "capacity": 13}})");

  const std::vector<std::uint64_t> digests =
      upa::cache::digest_summary(upa::cache::global());
  const double count = static_cast<double>(digests.size());
  EXPECT_GE(count, 2.0);
  const std::string have_hex =
      upa::cache::to_hex(upa::cache::encode_digests(digests));
  // Packed little-endian u64s: 16 hex chars per digest.
  EXPECT_EQ(have_hex.size(), static_cast<std::size_t>(count) * 16);

  // A peer that already has everything pulls an empty delta.
  const Json none = parse_json(d.dispatch_line(
      R"({"id": 4, "method": "cache", "params": {"op": "pull",)"
      R"( "have_hex": ")" +
      have_hex + R"("}})"));
  ASSERT_TRUE(none.find("ok")->as_bool()) << none.dump();
  EXPECT_EQ(none.find("result")->find("delta_records")->as_number(), 0.0);
  EXPECT_EQ(none.find("result")->find("have_count")->as_number(), count);

  // A peer with nothing (no have_hex) pulls the full warm set...
  const Json full = parse_json(d.dispatch_line(
      R"({"id": 5, "method": "cache", "params": {"op": "pull"}})"));
  ASSERT_TRUE(full.find("ok")->as_bool()) << full.dump();
  EXPECT_GE(full.find("result")->find("delta_records")->as_number(), 1.0);
  const std::string blob_hex =
      full.find("result")->find("segment_hex")->as_string();
  ASSERT_FALSE(blob_hex.empty());

  // ...and importing the delta after a wipe replays it byte for byte.
  ASSERT_TRUE(parse_json(d.dispatch_line(
                             R"({"id": 6, "method": "cache",)"
                             R"( "params": {"op": "clear"}})"))
                  .find("ok")
                  ->as_bool());
  const upa::cache::ImportStats imported = upa::cache::import_segment_blob(
      upa::cache::global(), upa::cache::from_hex(blob_hex));
  ASSERT_FALSE(imported.segment_rejected);
  upa::cache::global().reset_stats();
  EXPECT_EQ(d.dispatch_line(request), warm_line);
  EXPECT_GT(upa::cache::global().stats().hits, 0u);
  EXPECT_EQ(upa::cache::global().stats().misses, 0u);

  // A have_hex that is not a whole number of u64s is a 400-class
  // envelope, not a crash.
  const Json bad = parse_json(d.dispatch_line(
      R"({"id": 8, "method": "cache",)"
      R"( "params": {"op": "pull", "have_hex": "aabb"}})"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  upa::cache::global().clear();
}

TEST(ServeDispatcher, CacheFingerprintAndPagedPullOverTheProtocol) {
  // The scalable anti-entropy pair: `fingerprint` answers the O(1)
  // convergence probe, and `pull` with max_bytes cuts the delta into
  // cursor-resumable pages whose union equals the one-page blob.
  const Dispatcher d;
  upa::cache::ScopedEnable on(true);
  upa::cache::global().clear();
  for (int k = 0; k < 6; ++k) {
    d.dispatch_line(
        R"({"id": 1, "method": "mmck_metrics", "params":)"
        R"( {"alpha": )" +
        std::to_string(150 + k) + R"(, "nu": 97, "servers": 4,)"
        R"( "capacity": 13}})");
  }

  const Json fp = parse_json(d.dispatch_line(
      R"({"id": 2, "method": "cache", "params": {"op": "fingerprint"}})"));
  ASSERT_TRUE(fp.find("ok")->as_bool()) << fp.dump();
  EXPECT_GE(fp.find("result")->find("digest_count")->as_number(), 6.0);
  const std::string fp_hex =
      fp.find("result")->find("fingerprint_hex")->as_string();
  EXPECT_EQ(fp_hex.size(), 16u);  // one folded u64

  // The fingerprint tracks the warm set: one more entry changes it.
  d.dispatch_line(
      R"({"id": 3, "method": "mmck_metrics", "params":)"
      R"( {"alpha": 170, "nu": 97, "servers": 4, "capacity": 13}})");
  const Json fp2 = parse_json(d.dispatch_line(
      R"({"id": 4, "method": "cache", "params": {"op": "fingerprint"}})"));
  EXPECT_NE(fp2.find("result")->find("fingerprint_hex")->as_string(),
            fp_hex);

  // A pull without max_bytes pages at the server budget, which this
  // small set fits in one complete page: the reference blob size. Then
  // page at a fraction of it and walk the cursor chain.
  const Json full = parse_json(d.dispatch_line(
      R"({"id": 5, "method": "cache", "params": {"op": "pull"}})"));
  ASSERT_TRUE(full.find("ok")->as_bool()) << full.dump();
  const Json* full_complete = full.find("result")->find("complete");
  ASSERT_NE(full_complete, nullptr);
  EXPECT_TRUE(full_complete->as_bool());
  const double full_records =
      full.find("result")->find("delta_records")->as_number();
  const std::size_t full_bytes =
      full.find("result")->find("segment_hex")->as_string().size() / 2;
  const std::size_t max_bytes = full_bytes / 3 + 1;

  double paged_records = 0.0;
  std::string cursor;
  int pages = 0;
  for (;;) {
    std::string request =
        R"({"id": 6, "method": "cache", "params": {"op": "pull",)"
        R"( "max_bytes": )" +
        std::to_string(max_bytes);
    if (!cursor.empty()) request += R"(, "cursor": ")" + cursor + R"(")";
    request += "}}";
    const Json page = parse_json(d.dispatch_line(request));
    ASSERT_TRUE(page.find("ok")->as_bool()) << page.dump();
    const Json* result = page.find("result");
    paged_records += result->find("delta_records")->as_number();
    EXPECT_LE(result->find("segment_hex")->as_string().size() / 2,
              max_bytes);
    ++pages;
    ASSERT_LT(pages, 32) << "cursor walk diverged";
    if (result->find("complete")->as_bool()) break;
    cursor = result->find("next_cursor")->as_string();
    EXPECT_EQ(cursor.size(), 16u);
  }
  EXPECT_GT(pages, 1);
  EXPECT_EQ(paged_records, full_records);

  // A malformed cursor is a 400-class envelope, not a crash.
  const Json bad = parse_json(d.dispatch_line(
      R"({"id": 7, "method": "cache",)"
      R"( "params": {"op": "pull", "max_bytes": 1000, "cursor": "xyz"}})"));
  EXPECT_FALSE(bad.find("ok")->as_bool());

  // max_bytes comes off an untrusted line: out-of-range, negative and
  // fractional budgets are 400-class envelopes, never a size_t cast of
  // garbage or a silent fall back to some other page size.
  for (const char* hostile : {"1e300", "-5", "2.5"}) {
    const Json r = parse_json(d.dispatch_line(
        std::string(R"({"id": 8, "method": "cache",)"
                    R"( "params": {"op": "pull", "max_bytes": )") +
        hostile + "}}"));
    ASSERT_FALSE(r.find("ok")->as_bool()) << hostile;
    EXPECT_EQ(r.find("error")->find("code")->as_number(),
              ErrorCode::kBadRequest)
        << hostile;
  }
  upa::cache::global().clear();
}

TEST(ServeDispatcher, PullPagesAreClampedToTheServerBudget) {
  // A warm set larger than one page: whatever max_bytes the caller asks
  // for, and with none at all, a reply carries at most
  // kCachePullPageBytes of blob, so it always fits the line cap.
  const Dispatcher d;
  upa::cache::ScopedEnable on(true);
  upa::cache::global().clear();
  for (int k = 0; k < 10000; ++k) {
    upa::cache::KeyBuilder kb("test.pull_budget", 1);
    kb.add(static_cast<double>(k));
    (void)upa::cache::global().get_or_compute<double>(
        std::move(kb).finish(), [k] { return static_cast<double>(k); });
  }
  for (const char* params : {R"({"op": "pull"})",
                             R"({"op": "pull", "max_bytes": 1e9})"}) {
    const Json r = parse_json(d.dispatch_line(
        std::string(R"({"id": 1, "method": "cache", "params": )") + params +
        "}"));
    ASSERT_TRUE(r.find("ok")->as_bool()) << params;
    const Json* complete = r.find("result")->find("complete");
    ASSERT_NE(complete, nullptr) << params;
    EXPECT_FALSE(complete->as_bool()) << params;
    EXPECT_LE(r.find("result")->find("segment_hex")->as_string().size() / 2,
              upa::serve::kCachePullPageBytes)
        << params;
  }
  upa::cache::global().clear();
}

TEST(ServeDispatcher, RemovedCacheOpsAreBadRequests) {
  // Cache state moves between replicas only through fingerprint + paged
  // pull; the old whole-cache verbs are unknown ops, and the error names
  // exactly the ops that remain.
  const Dispatcher d;
  std::istringstream removed_ops("export import digest");
  for (std::string op; removed_ops >> op;) {
    const Json r = parse_json(d.dispatch_line(
        R"({"id": 1, "method": "cache", "params": {"op": ")" + op +
        R"(", "segment_hex": "00"}})"));
    ASSERT_FALSE(r.find("ok")->as_bool()) << op;
    EXPECT_EQ(r.find("error")->find("code")->as_number(),
              ErrorCode::kBadRequest)
        << op;
    EXPECT_EQ(r.find("error")->find("message")->as_string(),
              "param 'op' must be stats, clear, reset_stats, enable, "
              "disable, fingerprint, or pull, got " +
                  op)
        << op;
  }
}

TEST(AntiEntropy, ConvergedRoundShortCircuitsOnTheFingerprint) {
  // In-process, agent and server share cache::global(), so the peer's
  // fingerprint always matches: every round must end at step 0 --
  // counted as converged, no digest summary shipped, nothing pulled.
  upa::cache::ScopedEnable on(true);
  upa::cache::global().clear();
  upa::serve::ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.capacity = 4;
  Server server(std::move(config));
  server.start();

  upa::serve::AntiEntropyConfig ae;
  ae.peers = {"127.0.0.1:" + std::to_string(server.port())};
  upa::serve::AntiEntropyAgent agent(ae);
  EXPECT_TRUE(agent.run_round(0));
  EXPECT_TRUE(agent.run_round(0));
  const upa::serve::AntiEntropyStats stats = agent.stats();
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.pulls_ok, 2u);
  EXPECT_EQ(stats.rounds_converged, 2u);
  EXPECT_EQ(stats.records_pulled, 0u);
  EXPECT_EQ(stats.pages_pulled, 0u);
  server.stop();
}

TEST(AntiEntropy, PullReplyWithoutCompleteIsAProtocolError) {
  // Every pull reply pages, so one lacking `complete` is a broken peer,
  // not an unpaged blob to import: the round fails and counts an error.
  // The fake peer errors on the fingerprint probe (the agent falls
  // through to the pull) and answers the pull with an empty segment.
  upa::cache::ScopedEnable on(true);
  upa::cache::global().clear();
  upa::serve::ConnectionServerConfig config;
  config.reject_message = [](std::size_t) { return std::string("full"); };
  upa::serve::ConnectionServer peer(
      std::move(config),
      [](const std::string& line, const upa::serve::RequestContext&) {
        const Json request = parse_json(line);
        const Json& id = *request.find("id");
        if (request.find("params")->find("op")->as_string() != "pull") {
          return upa::serve::make_error_response(id, 400, "no fingerprint")
              .dump();
        }
        Json result = Json::object();
        result.set("segment_hex",
                   Json(upa::cache::to_hex(upa::cache::segment_header())));
        return upa::serve::make_result_response(id, std::move(result)).dump();
      });
  peer.start();

  upa::serve::AntiEntropyConfig ae;
  ae.peers = {"127.0.0.1:" + std::to_string(peer.port())};
  upa::serve::AntiEntropyAgent agent(ae);
  EXPECT_FALSE(agent.run_round(0));
  const upa::serve::AntiEntropyStats stats = agent.stats();
  EXPECT_EQ(stats.pull_errors, 1u);
  EXPECT_EQ(stats.pulls_ok, 0u);
  EXPECT_EQ(stats.pages_pulled, 0u);
  peer.stop();
}

// --- Server (loopback TCP) -----------------------------------------------

ServerConfig loopback_config(std::size_t workers, std::size_t capacity) {
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = workers;
  config.capacity = capacity;
  return config;
}

TEST(ServeServer, RejectsInvalidConfig) {
  ServerConfig bad = loopback_config(0, 4);
  EXPECT_THROW(Server{bad}, upa::common::ModelError);
  bad = loopback_config(4, 2);  // capacity < workers
  EXPECT_THROW(Server{bad}, upa::common::ModelError);
}

TEST(ServeServer, StartServeStop) {
  Server server(loopback_config(2, 8));
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  Client client;
  client.connect("127.0.0.1", server.port());
  const CallResult r = client.call("ping", Json(), 7);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.envelope.find("id")->as_number(), 7.0);
  client.close();

  server.stop();
  EXPECT_FALSE(server.running());
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.in_system, 0u);

  // stop() is idempotent; post-stop connects are refused by the OS.
  server.stop();
  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port(), 0.5),
               upa::common::ModelError);
}

TEST(ServeServer, SmokeProbeCoversEveryMethod) {
  Server server(loopback_config(2, 8));
  server.start();
  const upa::serve::SmokeResult smoke =
      upa::serve::run_smoke_probe("127.0.0.1", server.port());
  for (const auto& [name, ok] : smoke.checks) {
    EXPECT_TRUE(ok) << "smoke check failed: " << name;
  }
  EXPECT_TRUE(smoke.all_ok);
  server.stop();
}

TEST(ServeServer, KeepAliveConnectionServesManyRequests) {
  Server server(loopback_config(1, 4));
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  for (std::uint64_t id = 0; id < 20; ++id) {
    const CallResult r = client.call("ping", Json(), id);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.envelope.find("id")->as_number(),
                     static_cast<double>(id));
  }
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().requests, 20u);
  EXPECT_EQ(server.stats().accepted, 1u);  // one admission, many requests
}

// --- Both daemons: the shared connection server -------------------------
// serve::Server and dispatch::Front run one ConnectionServer, so its
// admission and drain contracts are pinned once and run through each
// daemon. A setup owns a daemon with i workers and room for K client
// connections; the Front forwards to a roomy upstream Server.

struct ServedDaemon {
  ServedDaemon(std::size_t workers, std::size_t capacity)
      : daemon(loopback_config(workers, capacity)) {}
  Server daemon;
};

upa::dispatch::FrontConfig fronting(Server& upstream, std::size_t workers,
                                    std::size_t max_clients) {
  upstream.start();
  upa::dispatch::FrontConfig config;
  config.upstreams = {{"127.0.0.1", upstream.port()}};
  config.workers = workers;
  config.max_clients = max_clients;
  config.health.probe_interval_seconds = 30.0;  // the start sweep only
  return config;
}

struct FrontedDaemon {
  FrontedDaemon(std::size_t workers, std::size_t capacity)
      : upstream(loopback_config(2, 8)),
        daemon(fronting(upstream, workers, capacity)) {}
  Server upstream;
  upa::dispatch::Front daemon;
};

template <typename Setup>
class ServeDaemon : public ::testing::Test {};
using Daemons = ::testing::Types<ServedDaemon, FrontedDaemon>;
TYPED_TEST_SUITE(ServeDaemon, Daemons);

TYPED_TEST(ServeDaemon, AdmissionControlRejectsWhenFull) {
  // i = 1, K = 1: with one request holding the single slot, the next
  // connection's request line must receive the pre-built 503 line
  // without the handler ever running for it.
  TypeParam held(1, 1);
  auto& server = held.daemon;
  server.start();

  std::atomic<bool> holder_done{false};
  std::thread holder([&] {
    Client c;
    c.connect("127.0.0.1", server.port());
    Json params = Json::object();
    params.set("seconds", Json(0.5));
    const CallResult r = c.call("sleep", std::move(params));
    EXPECT_TRUE(r.ok());
    holder_done.store(true);
  });

  // Let the holder get admitted and into service.
  EXPECT_TRUE(poll_until([&] { return server.stats().in_system == 1; }));
  ASSERT_FALSE(holder_done.load());

  Client rejected;
  rejected.connect("127.0.0.1", server.port());
  const CallResult r = rejected.call("ping", Json());
  EXPECT_EQ(r.outcome, CallOutcome::kRejected);
  EXPECT_EQ(r.code, ErrorCode::kQueueFull);

  holder.join();
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.max_in_system, 1u);

  // After the rejection, an admitted request still works: the 503 path
  // never wedges the reactor.
  TypeParam fresh(1, 1);
  fresh.daemon.start();
  Client ok;
  ok.connect("127.0.0.1", fresh.daemon.port());
  EXPECT_TRUE(ok.call("ping", Json()).ok());
  fresh.daemon.stop();
}

TEST(ServeServer, ServerDeadlineReturns504) {
  ServerConfig config = loopback_config(1, 2);
  config.deadline_seconds = 0.05;
  Server server(std::move(config));
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  Json params = Json::object();
  params.set("seconds", Json(0.2));
  const CallResult r = client.call("sleep", std::move(params));
  EXPECT_EQ(r.outcome, CallOutcome::kDeadline);
  EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded);

  server.stop();
  EXPECT_EQ(server.stats().deadline_missed, 1u);
}

TEST(ServeServer, RequestDeadlineTightensButNeverExtends) {
  ServerConfig config = loopback_config(1, 2);
  config.deadline_seconds = 10.0;  // generous server budget
  Server server(std::move(config));
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  // A request-level deadline_ms below the sleep forces a 504 even
  // though the server-wide budget would allow it.
  const std::string tight = client.call_line(
      R"({"id": 1, "method": "sleep",)"
      R"( "params": {"seconds": 0.1}, "deadline_ms": 20})");
  EXPECT_EQ(upa::serve::classify_response(tight).outcome,
            CallOutcome::kDeadline);
  // A request-level deadline longer than the server's cannot extend it:
  // with a 10 s server budget and a 5000 ms request budget, a 10 ms
  // sleep is comfortably inside both.
  const std::string ok_line = client.call_line(
      R"({"id": 2, "method": "sleep",)"
      R"( "params": {"seconds": 0.01}, "deadline_ms": 5000})");
  EXPECT_TRUE(upa::serve::classify_response(ok_line).ok());

  client.close();
  server.stop();
}

TEST(ServeServer, GracefulShutdownDrainsAdmittedConnections) {
  // Four in-flight sleeps on two workers; stop() must serve all four
  // (drain, not abort), refuse new connections afterwards, and join
  // every thread before returning.
  Server server(loopback_config(2, 8));
  server.start();

  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client c;
      c.connect("127.0.0.1", server.port());
      Json params = Json::object();
      params.set("seconds", Json(0.15));
      if (c.call("sleep", std::move(params), i).ok()) ++ok_count;
    });
  }

  // Wait for all four to be admitted, then stop while they sleep.
  EXPECT_TRUE(poll_until([&] {
    return server.stats().accepted == static_cast<std::uint64_t>(kClients);
  }));
  server.stop();

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);

  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.in_system, 0u);

  Client late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port(), 0.5),
               upa::common::ModelError);
}

TYPED_TEST(ServeDaemon, DrainTerminatesAgainstBusyKeepAliveClient) {
  // A kept-alive client that never stops issuing requests must not hold
  // stop() open: once the drain begins, the request in flight is served
  // and the connection is then closed. The test's real assertion is
  // that server.stop() returns at all.
  TypeParam held(1, 2);
  auto& server = held.daemon;
  server.start();

  std::atomic<bool> client_done{false};
  std::thread client([&] {
    Client c;
    c.connect("127.0.0.1", server.port());
    for (std::uint64_t id = 0; id < 1000000; ++id) {
      if (!c.call("ping", Json(), id).ok()) break;  // closed by the drain
    }
    client_done.store(true);
  });

  EXPECT_TRUE(poll_until([&] { return server.stats().requests >= 1; }));
  server.stop();
  client.join();
  EXPECT_TRUE(client_done.load());
  EXPECT_EQ(server.stats().in_system, 0u);
  EXPECT_GE(server.stats().requests, 1u);
}

TEST(ServeServer, DrainIsPromptAfterBlankLine) {
  // A blank line is read but never answered: the connection stays idle
  // with nothing in the system, so stop() closes it at once instead of
  // waiting out the 3 s read timeout.
  ServerConfig config = loopback_config(1, 2);
  config.read_timeout_seconds = 3.0;
  Server server(std::move(config));
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_line("");
  ASSERT_TRUE(poll_until([&] { return server.stats().accepted == 1; }));

  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(elapsed, 1.0) << "drain waited out the read timeout";
}

TEST(ServeConnectionServer, FakeHandlerSeesEachLineWithItsContext) {
  std::mutex mutex;
  std::vector<std::pair<std::string, upa::serve::RequestContext>> seen;
  upa::serve::ConnectionServerConfig config;
  config.capacity = 2;  // the second client may connect before the first
                        // one's close is seen
  config.reject_message = [](std::size_t capacity) {
    return "full at " + std::to_string(capacity);
  };
  upa::serve::ConnectionServer server(
      std::move(config),
      [&](const std::string& line, const upa::serve::RequestContext& c) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.emplace_back(line, c);
        return "echo " + line;
      });
  server.start();

  Client first;
  first.connect("127.0.0.1", server.port());
  EXPECT_EQ(first.call_line("a"), "echo a");
  EXPECT_EQ(first.call_line("b"), "echo b");
  first.close();
  Client second;
  second.connect("127.0.0.1", server.port());
  second.send_line("");  // a blank line is read but never answered
  EXPECT_EQ(second.call_line("c"), "echo c");
  second.close();
  server.stop();

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, "a");
  EXPECT_EQ(seen[0].second.conn, 1u);
  EXPECT_EQ(seen[0].second.seq, 0u);
  EXPECT_LE(seen[0].second.admitted, seen[0].second.dequeued);
  EXPECT_EQ(seen[1].second.seq, 1u);
  EXPECT_EQ(seen[2].first, "c");
  EXPECT_EQ(seen[2].second.conn, 2u);
  EXPECT_EQ(seen[2].second.seq, 0u);
  EXPECT_EQ(server.stats().accepted, 2u);
  EXPECT_EQ(server.stats().completed, 3u);
}

/// A ConnectionServer with i workers and room for K requests whose
/// handler echoes each line, except "hold", which blocks until release().
class GatedEcho {
 public:
  GatedEcho(std::size_t workers, std::size_t capacity)
      : server_(config(workers, capacity),
                [this](const std::string& line,
                       const upa::serve::RequestContext&) {
                  if (line != "hold") return "echo " + line;
                  std::unique_lock<std::mutex> lock(mutex_);
                  released_cv_.wait(lock, [this] { return released_; });
                  return std::string("held");
                }) {
    server_.start();
  }
  ~GatedEcho() {
    release();
    server_.stop();
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
  }
  upa::serve::ConnectionServer& server() { return server_; }

 private:
  static upa::serve::ConnectionServerConfig config(std::size_t workers,
                                                   std::size_t capacity) {
    upa::serve::ConnectionServerConfig config;
    config.workers = workers;
    config.capacity = capacity;
    config.reject_message = [](std::size_t k) {
      return "full at " + std::to_string(k);
    };
    return config;
  }
  std::mutex mutex_;
  std::condition_variable released_cv_;
  bool released_ = false;
  upa::serve::ConnectionServer server_;
};

TEST(ServeConnectionServer, IdleKeepAliveConnectionsHoldNoSlot) {
  // i = 1, K = 1: K bounds requests, not connections. Five kept-alive
  // connections, each served once and now idle, leave the single slot
  // free for a sixth connection's request.
  GatedEcho echo(1, 1);
  const std::uint16_t port = echo.server().port();
  std::vector<Client> idle(5);
  for (std::size_t k = 0; k < idle.size(); ++k) {
    idle[k].connect("127.0.0.1", port);
    EXPECT_EQ(idle[k].call_line("idle"), "echo idle") << "connection " << k;
  }
  Client sixth;
  sixth.connect("127.0.0.1", port);
  EXPECT_EQ(sixth.call_line("sixth"), "echo sixth");
  const upa::serve::ConnectionStats stats = echo.server().stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeConnectionServer, FullSystemRejectsTheLineAndKeepsTheConnection) {
  // i = 1, K = 1 with the slot held: a line that finds the system full
  // gets the 503 envelope and its handler never runs, but the connection
  // stays open, and its next line is served once the holder finishes.
  GatedEcho echo(1, 1);
  const std::uint16_t port = echo.server().port();
  std::thread holder([&] {
    Client c;
    c.connect("127.0.0.1", port);
    EXPECT_EQ(c.call_line("hold"), "held");
  });
  ASSERT_TRUE(poll_until([&] { return echo.server().stats().in_system == 1; }));

  Client client;
  client.connect("127.0.0.1", port);
  const CallResult rejected =
      upa::serve::classify_response(client.call_line("first"));
  EXPECT_EQ(rejected.outcome, CallOutcome::kRejected);
  EXPECT_EQ(rejected.code, ErrorCode::kQueueFull);
  EXPECT_EQ(rejected.error_message, "full at 1");

  echo.release();
  holder.join();
  EXPECT_EQ(client.call_line("second"), "echo second");
  const upa::serve::ConnectionStats stats = echo.server().stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.max_in_system, 1u);
}

TEST(ServeServer, KeepAliveRequestsGetFreshDeadlineBudgets) {
  // The server-wide budget anchors per request, not per connection: two
  // sequential sleeps that each fit the budget must both succeed even
  // though their sum exceeds it. (Before the fix, every request after
  // the connection aged past the budget spuriously 504'd.)
  ServerConfig config = loopback_config(1, 2);
  config.deadline_seconds = 0.3;
  Server server(std::move(config));
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  for (std::uint64_t id = 0; id < 2; ++id) {
    Json params = Json::object();
    params.set("seconds", Json(0.2));
    const CallResult r = client.call("sleep", std::move(params), id);
    EXPECT_TRUE(r.ok()) << "request " << id << " outcome "
                        << upa::serve::call_outcome_name(r.outcome);
  }
  client.close();
  server.stop();
  EXPECT_EQ(server.stats().deadline_missed, 0u);
}

TEST(ServeServer, StatsMethodAndObserverMetrics) {
  Server server(loopback_config(2, 8));
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.call("ping", Json()).ok());
  const CallResult stats_call = client.call("stats", Json());
  ASSERT_TRUE(stats_call.ok());
  const Json* result = stats_call.result();
  EXPECT_GE(result->find("requests")->as_number(), 1.0);
  EXPECT_GE(result->find("accepted")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(result->find("rejected")->as_number(), 0.0);
  client.close();
  server.stop();

  // Untraced, the server keeps no span.
  EXPECT_TRUE(server.spans().empty());

  // publish_metrics exports every total as a counter, per response code
  // too.
  upa::obs::MetricsRegistry registry;
  server.publish_metrics(registry);
  EXPECT_EQ(registry.counters().at("serve.requests").value(), 2u);
  EXPECT_EQ(registry.counters().at("serve.code.200").value(), 2u);
  EXPECT_EQ(registry.counters().at("serve.accepted").value(), 1u);
}

TEST(ServeServer, SessionReplayCompletesAgainstGenerousCapacity) {
  Server server(loopback_config(2, 64));
  server.start();

  upa::serve::SessionConfig config;
  config.port = server.port();
  config.uclass = upa::ta::UserClass::kB;
  config.sessions = 12;
  config.session_rate = 40.0;
  config.seed = 7;
  const upa::serve::SessionResult result =
      upa::serve::run_session_replay(config);
  server.stop();

  EXPECT_EQ(result.sessions, 12u);
  EXPECT_EQ(result.completed, 12u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_DOUBLE_EQ(result.session_success_fraction, 1.0);
  // Table 1 class B sessions visit at least one function each.
  EXPECT_GE(result.mean_invocations_per_session, 1.0);
}

// --- Distributed tracing -------------------------------------------------

TEST(ServeTrace, TraceContextRoundTripsThroughEnvelope) {
  using upa::serve::parse_trace_context;
  using upa::serve::TraceContext;
  using upa::serve::with_trace_context;

  TraceContext context;
  context.trace_id = "a1b2c3d4e5f60718";
  context.span_id = 42;
  context.sampled = true;
  const Json request =
      parse_json(R"({"id": 7, "method": "ping", "params": {}})");
  const std::string rewritten = with_trace_context(request, context);
  const auto parsed = parse_trace_context(parse_json(rewritten));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, context.trace_id);
  EXPECT_EQ(parsed->span_id, context.span_id);
  EXPECT_TRUE(parsed->sampled);

  // No trace member -> nullopt, not an error.
  EXPECT_FALSE(parse_trace_context(request).has_value());
}

TEST(ServeTrace, MalformedTraceMemberIsA400NotACrash) {
  const Dispatcher d;
  const std::vector<std::string> malformed = {
      R"({"id": 1, "method": "ping", "trace": "not an object"})",
      R"({"id": 2, "method": "ping", "trace": {}})",
      R"({"id": 3, "method": "ping",
          "trace": {"trace_id": "NOT-HEX", "span_id": 1}})",
      R"({"id": 4, "method": "ping", "trace": {"trace_id": ""}})",
      R"({"id": 5, "method": "ping",
          "trace": {"trace_id": "ab", "span_id": -1}})",
      R"({"id": 6, "method": "ping",
          "trace": {"trace_id": "ab", "span_id": 1.5}})",
      R"({"id": 7, "method": "ping",
          "trace": {"trace_id": "ab", "sampled": "yes"}})",
      R"({"id": 8, "method": "ping",
          "trace": {"trace_id": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"}})",
  };
  for (const std::string& line : malformed) {
    const Json r = parse_json(d.dispatch_line(line));
    EXPECT_FALSE(r.find("ok")->as_bool()) << line;
    EXPECT_EQ(r.find("error")->find("code")->as_number(),
              ErrorCode::kBadRequest)
        << line;
  }
}

TEST(ServeTrace, ServerParentsSpansOnPropagatedContext) {
  ServerConfig config = loopback_config(2, 8);
  config.trace = true;
  Server server(std::move(config));
  server.start();

  upa::serve::TraceContext context;
  context.trace_id = "00000000000000ab";
  context.span_id = 7;
  Client client;
  client.connect("127.0.0.1", server.port());
  const CallResult r = client.call("ping", Json(), 1, &context);
  ASSERT_TRUE(r.ok());
  client.close();
  server.stop();

  // One serve_request root carrying the propagated linkage, plus its
  // serve_phase children.
  const std::vector<upa::obs::Span> spans = server.spans();
  const upa::obs::Span* root = nullptr;
  std::size_t phases = 0;
  for (const upa::obs::Span& span : spans) {
    if (span.level == upa::obs::SpanLevel::kServeRequest) {
      ASSERT_EQ(root, nullptr);
      root = &span;
    }
    if (span.level == upa::obs::SpanLevel::kServePhase) ++phases;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "ping");
  std::string trace_id;
  double parent_span = -1.0;
  double code = -1.0;
  for (const upa::obs::SpanAttribute& attr : root->attributes) {
    if (attr.key == "trace_id") trace_id = attr.text;
    if (attr.key == "parent_span") parent_span = attr.number;
    if (attr.key == "code") code = attr.number;
  }
  EXPECT_EQ(trace_id, "00000000000000ab");
  EXPECT_DOUBLE_EQ(parent_span, 7.0);
  EXPECT_DOUBLE_EQ(code, 200.0);
  // queue_wait, handler, serialize.
  EXPECT_EQ(phases, 3u);
  std::vector<std::string> phase_names;
  for (const upa::obs::Span& span : spans) {
    if (span.level == upa::obs::SpanLevel::kServePhase) {
      EXPECT_EQ(span.parent, root->id);
      phase_names.push_back(span.name);
    }
  }
  EXPECT_EQ(phase_names,
            (std::vector<std::string>{"queue_wait", "handler", "serialize"}));
}

TEST(ServeTrace, ResponsesAreByteIdenticalWithTracingOffOrOn) {
  // Same request with and without a trace member, against a traced and
  // an untraced server: all four response lines must be identical --
  // tracing must never leak into the bytes on the wire.
  ServerConfig traced = loopback_config(1, 4);
  traced.trace = true;
  Server traced_server(std::move(traced));
  traced_server.start();
  Server plain_server(loopback_config(1, 4));
  plain_server.start();

  const std::string bare =
      R"({"id": 9, "method": "mmck_metrics",)"
      R"( "params": {"lambda": 1.0, "nu": 2.0, "i": 2, "k": 4}})";
  const std::string traced_line =
      R"({"id": 9, "method": "mmck_metrics",)"
      R"( "params": {"lambda": 1.0, "nu": 2.0, "i": 2, "k": 4},)"
      R"( "trace": {"trace_id": "ab", "span_id": 3}})";

  std::vector<std::string> responses;
  for (const Server* server : {&traced_server, &plain_server}) {
    for (const std::string& line : {bare, traced_line}) {
      Client client;
      client.connect("127.0.0.1", server->port());
      responses.push_back(client.call_line(line));
      client.close();
    }
  }
  traced_server.stop();
  plain_server.stop();

  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], responses[1]);
  EXPECT_EQ(responses[1], responses[2]);
  EXPECT_EQ(responses[2], responses[3]);
  EXPECT_NE(responses[0].find("\"ok\":true"), std::string::npos);
}

// --- Telemetry streaming (subscribe) -------------------------------------

TEST(Subscribe, StreamsMetricsAndSpans) {
  ServerConfig config = loopback_config(2, 8);
  config.trace = true;
  config.telemetry_process = "served:test";
  Server server(std::move(config));
  server.start();

  Client subscriber;
  subscriber.connect("127.0.0.1", server.port(), 5.0, 10.0);
  subscriber.send_line(
      R"({"id": 1, "method": "subscribe", "params": {"interval_ms": 50}})");
  const Json ack = parse_json(subscriber.read_line());
  EXPECT_TRUE(ack.find("ok")->as_bool());
  EXPECT_TRUE(ack.find("result")->find("subscribed")->as_bool());
  EXPECT_EQ(ack.find("result")->find("process")->as_string(),
            "served:test");

  // Traffic from a second connection shows up on the stream.
  upa::serve::TraceContext context;
  context.trace_id = "00000000000000cd";
  Client caller;
  caller.connect("127.0.0.1", server.port());
  ASSERT_TRUE(caller.call("ping", Json(), 1, &context).ok());
  caller.close();

  bool saw_metrics = false;
  bool saw_request_span = false;
  for (int i = 0; i < 40 && !(saw_metrics && saw_request_span); ++i) {
    const Json line = parse_json(subscriber.read_line());
    const Json* kind = line.find("telemetry");
    ASSERT_NE(kind, nullptr);
    if (kind->as_string() == "metrics") {
      saw_metrics = true;
      EXPECT_EQ(line.find("process")->as_string(), "served:test");
      EXPECT_NE(line.find("histograms"), nullptr);
    } else if (kind->as_string() == "span") {
      const Json* level = line.find("level");
      ASSERT_NE(level, nullptr);
      if (level->as_string() == "serve_request") {
        saw_request_span = true;
        EXPECT_EQ(line.find("attrs")->find("trace_id")->as_string(),
                  "00000000000000cd");
      }
    }
  }
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_request_span);
  subscriber.close();
  server.stop();
}

TEST(Subscribe, BadIntervalIsA400AndTheConnectionSurvives) {
  Server server(loopback_config(1, 4));
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  for (const std::string params :
       {R"({"interval_ms": 5})", R"({"interval_ms": 60001})",
        R"({"interval_ms": "fast"})"}) {
    const Json r = parse_json(client.call_line(
        R"({"id": 1, "method": "subscribe", "params": )" + params + "}"));
    EXPECT_FALSE(r.find("ok")->as_bool()) << params;
    EXPECT_EQ(r.find("error")->find("code")->as_number(),
              ErrorCode::kBadRequest)
        << params;
  }
  // The rejected subscribe left the connection in request mode.
  const CallResult alive = client.call("ping", Json(), 2);
  EXPECT_TRUE(alive.ok());
  client.close();
  server.stop();
}

namespace stream_schema {

/// `section[name]` as a number; NaN (and a test failure) when absent.
double number_at(const Json* section, const std::string& name) {
  const Json* v = section != nullptr ? section->find(name) : nullptr;
  if (v == nullptr || !v->is_number()) {
    ADD_FAILURE() << "telemetry tick lacks " << name;
    return std::nan("");
  }
  return v->as_number();
}

/// Subscribes to a daemon and returns its first metrics tick in which
/// every admitted request has completed: an idle tick, whose values no
/// longer move.
Json idle_tick(std::uint16_t port, const std::string& prefix) {
  Client subscriber;
  subscriber.connect("127.0.0.1", port, 5.0, 10.0);
  subscriber.send_line(
      R"({"id": 1, "method": "subscribe", "params": {"interval_ms": 50}})");
  (void)subscriber.read_line();  // the ack
  for (int i = 0; i < 200; ++i) {
    Json line = parse_json(subscriber.read_line());
    if (line.find("telemetry")->as_string() != "metrics") continue;
    const Json* counters = line.find("counters");
    if (number_at(counters, prefix + ".completed") ==
            number_at(counters, prefix + ".admitted") &&
        number_at(line.find("gauges"), prefix + ".in_system") == 0.0) {
      return line;
    }
  }
  ADD_FAILURE() << prefix << " never streamed an idle tick";
  return Json::object();
}

}  // namespace stream_schema

TEST(Subscribe, StreamCarriesEveryStatsField) {
  // Every numeric `stats` and `dispatch_stats` field reaches the stream,
  // typed: cumulative totals as counters, levels as gauges, and no total
  // under gauges. Traffic through a front answers 200 and 400 upstream
  // and one local dispatch_stats; idle ticks then pin exact values.
  using stream_schema::number_at;
  const auto d = [](auto v) { return static_cast<double>(v); };
  Server server(loopback_config(2, 8));
  upa::dispatch::Front front(fronting(server, 2, 8));
  front.start();

  Client client;
  client.connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.call("ping", Json()).ok());
  const CallResult stats_call = client.call("stats", Json());
  ASSERT_TRUE(stats_call.ok());
  const Json stats_result = *stats_call.result();
  const Json bad = parse_json(client.call_line("{not json"));
  EXPECT_EQ(bad.find("error")->find("code")->as_number(),
            ErrorCode::kBadRequest);
  const CallResult dispatch_call = client.call("dispatch_stats", Json());
  ASSERT_TRUE(dispatch_call.ok());
  const Json dispatch_result = *dispatch_call.result();
  client.close();

  // upa_served: every numeric stats key, against stats() at an idle tick.
  const Json served = stream_schema::idle_tick(server.port(), "serve");
  const upa::serve::ServerStats s = server.stats();
  const std::map<std::string, double> totals = {
      {"accepted", d(s.accepted)},
      {"admitted", d(s.admitted)},
      {"rejected", d(s.rejected)},
      {"completed", d(s.completed)},
      {"requests", d(s.requests)},
      {"deadline_missed", d(s.deadline_missed)},
      {"protocol_errors", d(s.protocol_errors)},
      {"reconfigures", d(s.reconfigures)}};
  const std::map<std::string, double> levels = {
      {"workers", d(s.workers)},
      {"capacity", d(s.capacity)},
      {"in_system", d(s.in_system)},
      {"max_in_system", d(s.max_in_system)},
      {"retiring", d(s.retiring)}};
  const Json* counters = served.find("counters");
  const Json* gauges = served.find("gauges");
  const Json* histograms = served.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* handler = histograms->find("serve.handler_seconds");
  std::size_t stats_keys = 0;
  for (const auto& [key, value] : stats_result.as_object()) {
    if (!value.is_number()) continue;
    ++stats_keys;
    const std::string name = "serve." + key;
    if (key == "busy_seconds") {
      EXPECT_EQ(number_at(handler, "sum"), s.busy_seconds);
    } else if (key == "handled_requests") {
      EXPECT_EQ(number_at(handler, "count"), d(s.handled_requests));
    } else if (totals.contains(key)) {
      EXPECT_EQ(number_at(counters, name), totals.at(key)) << name;
    } else if (levels.contains(key)) {
      EXPECT_EQ(number_at(gauges, name), levels.at(key)) << name;
    } else {
      ADD_FAILURE() << "stats key " << key << " is neither total nor level";
    }
  }
  EXPECT_EQ(stats_keys, totals.size() + levels.size() + 2);
  for (const auto& [name, value] : gauges->as_object()) {
    EXPECT_TRUE(levels.contains(name.substr(std::string("serve.").size())))
        << name << " is a gauge but not a level";
  }
  // Per-code counters: the bad line answered 400; the front's health
  // probe, ping and stats 200.
  EXPECT_EQ(number_at(counters, "serve.code.400"), 1.0);
  EXPECT_EQ(number_at(counters, "serve.code.200"), d(s.requests) - 1.0);

  // upa_dispatch: dispatch_stats' numeric keys, at an idle tick.
  const Json dispatched = stream_schema::idle_tick(front.port(), "dispatch");
  counters = dispatched.find("counters");
  gauges = dispatched.find("gauges");
  for (const auto& [key, value] : dispatch_result.as_object()) {
    if (!value.is_number() || key == "upstream_count") continue;
    EXPECT_EQ(number_at(counters, "dispatch." + key), value.as_number())
        << key;
  }
  const Json* upstreams = dispatch_result.find("upstreams");
  ASSERT_NE(upstreams, nullptr);
  ASSERT_EQ(upstreams->as_array().size(), 1u);
  const Json& upstream = upstreams->as_array().front();
  const std::string prefix =
      "dispatch.upstream." + upstream.find("address")->as_string() + ".";
  std::size_t upstream_keys = 0;
  for (const auto& [key, value] : upstream.as_object()) {
    if (!value.is_number()) continue;
    ++upstream_keys;
    const Json* section = key == "outstanding" ? gauges : counters;
    EXPECT_EQ(number_at(section, prefix + key), value.as_number()) << key;
  }
  EXPECT_EQ(upstream_keys, 10u);
  EXPECT_EQ(number_at(gauges, prefix + "healthy"),
            upstream.find("healthy")->as_bool() ? 1.0 : 0.0);
  for (const auto& [name, value] : gauges->as_object()) {
    EXPECT_TRUE(name == "dispatch.in_system" ||
                name == "dispatch.max_in_system" ||
                name == prefix + "healthy" || name == prefix + "outstanding")
        << name << " is a gauge but not a level";
  }
  front.stop();
  server.stop();
}

// --- The dogfood experiment ---------------------------------------------

TEST(LoadgenLossMeasurement, MatchesAnalyticMmckLoss) {
  // lambda = 300/s against i = 2 workers at nu = 100/s with K = 4: the
  // analytic eq. (3) loss is ~0.40, so rejections are plentiful and the
  // binomial half-width is small. The tolerance is 4 sigma plus a small
  // allowance for connect/scheduling overhead shifting effective rates.
  constexpr double kLambda = 300.0;
  constexpr double kNu = 100.0;
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kCapacity = 4;
  constexpr std::size_t kRequests = 600;

  Server server(loopback_config(kWorkers, kCapacity));
  server.start();

  upa::serve::LossConfig config;
  config.port = server.port();
  config.lambda = kLambda;
  config.nu = kNu;
  config.requests = kRequests;
  config.seed = 20260806;
  const upa::serve::LossResult result =
      upa::serve::run_loss_workload(config);
  server.stop();

  ASSERT_EQ(result.sent, kRequests);
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_EQ(result.other_errors, 0u);

  const double analytic = upa::queueing::mmck_loss_probability(
      kLambda, kNu, kWorkers, kCapacity);
  const double tolerance =
      4.0 * std::sqrt(analytic * (1.0 - analytic) /
                      static_cast<double>(kRequests)) +
      0.02;
  EXPECT_NEAR(result.measured_loss, analytic, tolerance)
      << "measured " << result.measured_loss << " vs analytic " << analytic;

  // The server's own books agree with the client's.
  const auto stats = server.stats();
  EXPECT_EQ(stats.admitted + stats.rejected,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(result.rejected));
  EXPECT_LE(stats.max_in_system, kCapacity);
}

}  // namespace
