// Trace collection and profile mining (upa/obs/collect): JSONL ingest,
// cross-process reassembly from out-of-order multi-process streams,
// Chrome-trace merging, and the trace-mined operational profile vs the
// hand-specified Table 1 inputs through eq. (10).
//
// The CollectLive suite runs the full pipeline in-process: a traced
// server behind a traced front, a session-replay workload, live
// `subscribe` channels drained into a TraceCollector, and the
// reassembled traces checked against the loadgen's own request log --
// the acceptance gate for the traced farm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "poll_until.hpp"
#include "upa/common/error.hpp"
#include "upa/dispatch/front.hpp"
#include "upa/linalg/matrix.hpp"
#include "upa/obs/collect.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/json.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/serve/server.hpp"
#include "upa/ta/functions.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

namespace {

using upa::common::ModelError;
using upa::obs::AssembledTrace;
using upa::obs::MinedProfile;
using upa::obs::ProfileComparison;
using upa::obs::ReassemblyReport;
using upa::obs::TraceCollector;
using upa::serve::Json;

/// Builds one telemetry span line. `attrs` alternates key/value where a
/// value starting with '#' is emitted as a number.
std::string span_line(const std::string& process, std::uint64_t id,
                      std::uint64_t parent, const std::string& name,
                      const std::string& level, double start, double end,
                      const std::vector<std::pair<std::string, std::string>>&
                          attrs) {
  Json line = Json::object();
  line.set("telemetry", Json("span"));
  line.set("process", Json(process));
  line.set("id", Json(static_cast<double>(id)));
  line.set("parent", Json(static_cast<double>(parent)));
  line.set("name", Json(name));
  line.set("level", Json(level));
  line.set("domain", Json("wall_seconds"));
  line.set("start", Json(start));
  line.set("end", Json(end));
  Json a = Json::object();
  for (const auto& [key, value] : attrs) {
    if (!value.empty() && value.front() == '#') {
      a.set(key, Json(std::stod(value.substr(1))));
    } else {
      a.set(key, Json(value));
    }
  }
  line.set("attrs", std::move(a));
  return line.dump();
}

std::string metrics_line(const std::string& process, std::uint64_t seq,
                         std::uint64_t dropped) {
  std::ostringstream out;
  out << "{\"telemetry\":\"metrics\",\"process\":\"" << process
      << "\",\"seq\":" << seq << ",\"dropped_spans\":" << dropped
      << ",\"counters\":{},\"gauges\":{},\"histograms\":{}}";
  return out.str();
}

// --- Ingest --------------------------------------------------------------

TEST(Collect, IngestClassifiesLinesAndTracksSeqGaps) {
  TraceCollector collector;
  EXPECT_TRUE(collector.ingest_line(metrics_line("served:1", 0, 0)));
  EXPECT_TRUE(collector.ingest_line(metrics_line("served:1", 1, 0)));
  // Missing ticks 2 and 3: a slow subscriber or a dropped connection.
  EXPECT_TRUE(collector.ingest_line(metrics_line("served:1", 4, 2)));
  EXPECT_TRUE(collector.ingest_line(span_line(
      "served:1", 7, 0, "ping", "serve_request", 1.0, 1.5, {})));

  EXPECT_FALSE(collector.ingest_line("not json at all"));
  EXPECT_FALSE(collector.ingest_line("{\"telemetry\":\"span\"}"));
  EXPECT_FALSE(collector.ingest_line("{\"other\":\"shape\"}"));
  EXPECT_FALSE(collector.ingest_line("   "));
  EXPECT_EQ(collector.unrecognized_lines(), 3u);

  const auto processes = collector.processes();
  ASSERT_EQ(processes.size(), 1u);
  EXPECT_EQ(processes[0].process, "served:1");
  EXPECT_EQ(processes[0].metrics_lines, 3u);
  EXPECT_EQ(processes[0].span_lines, 1u);
  EXPECT_EQ(processes[0].seq_gaps, 2u);
  EXPECT_EQ(processes[0].dropped_spans, 2u);
  EXPECT_EQ(collector.dropped_spans_total(), 2u);
}

TEST(Collect, IngestJsonlCountsRecognizedLines) {
  TraceCollector collector;
  const std::string blob = metrics_line("p", 0, 0) + "\n" + "garbage\n" +
                           span_line("p", 1, 0, "ping", "serve_request",
                                     0.0, 0.1, {}) +
                           "\n";
  EXPECT_EQ(collector.ingest_jsonl(blob), 2u);
  EXPECT_EQ(collector.spans().size(), 1u);
}

// --- Reassembly ----------------------------------------------------------

/// One traced request through a front and one replica, delivered as the
/// kind of out-of-order interleaving two independent subscription
/// channels produce: server-side spans first, attempt children before
/// their root.
std::vector<std::string> crossed_trace_lines() {
  return {
      // Replica channel arrives first; its clock is offset by +100 s.
      span_line("served:b", 6, 5, "admission_wait", "serve_phase", 105.02,
                105.03, {}),
      span_line("served:b", 7, 5, "handler", "serve_phase", 105.03, 105.08,
                {}),
      span_line("served:b", 5, 0, "ping", "serve_request", 105.02, 105.09,
                {{"trace_id", "00000000000000ab"},
                 {"parent_span", "#102"},
                 {"conn", "#3"},
                 {"seq", "#0"},
                 {"code", "#200"}}),
      // Front channel: the second attempt's span precedes the root.
      span_line("front:a", 12, 10, "attempt", "dispatch_attempt", 5.03,
                5.10,
                {{"ref", "#102"},
                 {"upstream", "127.0.0.1:7102"},
                 {"outcome", "ok"}}),
      span_line("front:a", 11, 10, "attempt", "dispatch_attempt", 5.00,
                5.02,
                {{"ref", "#101"},
                 {"upstream", "127.0.0.1:7101"},
                 {"outcome", "transport_error"}}),
      span_line("front:a", 10, 0, "ping", "dispatch_request", 5.00, 5.10,
                {{"trace_id", "00000000000000ab"},
                 {"parent_span", "#0"},
                 {"conn", "#1"},
                 {"seq", "#0"},
                 {"outcome", "ok"},
                 {"attempts", "#2"}}),
  };
}

TEST(Collect, ReassemblesCrossProcessTraceFromOutOfOrderStreams) {
  TraceCollector collector;
  for (const std::string& line : crossed_trace_lines()) {
    ASSERT_TRUE(collector.ingest_line(line));
  }

  const ReassemblyReport report = collector.reassemble();
  ASSERT_EQ(report.traces.size(), 1u);
  EXPECT_EQ(report.complete_traces, 1u);
  EXPECT_EQ(report.orphan_server_roots, 0u);

  const AssembledTrace& trace = report.traces.front();
  EXPECT_EQ(trace.trace_id, "00000000000000ab");
  EXPECT_TRUE(trace.complete);
  ASSERT_EQ(trace.requests.size(), 1u);
  const upa::obs::TraceRequest& request = trace.requests.front();
  EXPECT_TRUE(request.complete);
  EXPECT_EQ(request.method, "ping");
  EXPECT_EQ(request.outcome, "ok");
  ASSERT_EQ(request.attempts.size(), 2u);

  // Attempts come back in span-id (begin) order even though the stream
  // delivered them reversed.
  EXPECT_EQ(request.attempts[0].ref, 101u);
  EXPECT_EQ(request.attempts[0].outcome, "transport_error");
  EXPECT_EQ(request.attempts[0].server_root, nullptr);
  EXPECT_EQ(request.attempts[1].ref, 102u);
  EXPECT_EQ(request.attempts[1].outcome, "ok");
  ASSERT_NE(request.attempts[1].server_root, nullptr);
  EXPECT_EQ(request.attempts[1].server_root->process, "served:b");
  ASSERT_EQ(request.attempts[1].server_phases.size(), 2u);
  EXPECT_EQ(request.attempts[1].server_phases[0]->name, "admission_wait");
  EXPECT_EQ(request.attempts[1].server_phases[1]->name, "handler");

  EXPECT_DOUBLE_EQ(
      TraceCollector::accounted_fraction(report, {"00000000000000ab"}),
      1.0);
  EXPECT_DOUBLE_EQ(TraceCollector::accounted_fraction(
                       report, {"00000000000000ab", "missing"}),
                   0.5);
  EXPECT_DOUBLE_EQ(TraceCollector::accounted_fraction(report, {}), 1.0);
}

TEST(Collect, MissingServerSpanAndMissingAttemptAreIncomplete) {
  TraceCollector collector;
  // Root declares two attempts but only one child span arrived, and
  // that attempt's outcome (ok) demands a server span that never came.
  ASSERT_TRUE(collector.ingest_line(span_line(
      "front:a", 10, 0, "ping", "dispatch_request", 5.0, 5.1,
      {{"trace_id", "00000000000000cd"},
       {"parent_span", "#0"},
       {"conn", "#1"},
       {"seq", "#0"},
       {"outcome", "ok"},
       {"attempts", "#2"}})));
  ASSERT_TRUE(collector.ingest_line(span_line(
      "front:a", 11, 10, "attempt", "dispatch_attempt", 5.0, 5.1,
      {{"ref", "#101"},
       {"upstream", "127.0.0.1:7101"},
       {"outcome", "ok"}})));

  ReassemblyReport report = collector.reassemble();
  ASSERT_EQ(report.traces.size(), 1u);
  EXPECT_EQ(report.complete_traces, 0u);
  EXPECT_FALSE(report.traces.front().complete);
  EXPECT_NE(report.traces.front().requests.front().incompleteness.find(
                "attempt spans missing"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(
      TraceCollector::accounted_fraction(report, {"00000000000000cd"}),
      0.0);

  // The second attempt span shows up: still incomplete, now for the
  // missing server-side span.
  ASSERT_TRUE(collector.ingest_line(span_line(
      "front:a", 12, 10, "attempt", "dispatch_attempt", 5.0, 5.1,
      {{"ref", "#102"},
       {"upstream", "127.0.0.1:7102"},
       {"outcome", "ok"}})));
  report = collector.reassemble();
  EXPECT_EQ(report.complete_traces, 0u);
  EXPECT_NE(report.traces.front().requests.front().incompleteness.find(
                "no server span"),
            std::string::npos);

  // A rejected attempt, by contrast, is complete without one: the
  // acceptor writes its 503 without ever reading the request.
  TraceCollector rejected;
  ASSERT_TRUE(rejected.ingest_line(span_line(
      "front:a", 10, 0, "ping", "dispatch_request", 5.0, 5.1,
      {{"trace_id", "00000000000000ef"},
       {"parent_span", "#0"},
       {"conn", "#1"},
       {"seq", "#0"},
       {"outcome", "rejected"},
       {"attempts", "#1"}})));
  ASSERT_TRUE(rejected.ingest_line(span_line(
      "front:a", 11, 10, "attempt", "dispatch_attempt", 5.0, 5.1,
      {{"ref", "#101"},
       {"upstream", "127.0.0.1:7101"},
       {"outcome", "rejected"}})));
  EXPECT_EQ(rejected.reassemble().complete_traces, 1u);
}

TEST(Collect, ServerSpanWithUnknownRefIsAnOrphan) {
  TraceCollector collector;
  ASSERT_TRUE(collector.ingest_line(span_line(
      "served:b", 5, 0, "ping", "serve_request", 1.0, 1.1,
      {{"trace_id", "00000000000000ab"},
       {"parent_span", "#999"},
       {"conn", "#1"},
       {"seq", "#0"},
       {"code", "#200"}})));
  const ReassemblyReport report = collector.reassemble();
  EXPECT_EQ(report.orphan_server_roots, 1u);
  EXPECT_EQ(report.complete_traces, 0u);
}

TEST(Collect, DirectServeRequestWithZeroParentIsACompleteRequest) {
  TraceCollector collector;
  ASSERT_TRUE(collector.ingest_line(span_line(
      "served:b", 5, 0, "mmck_metrics", "serve_request", 1.0, 1.1,
      {{"trace_id", "00000000000000ab"},
       {"parent_span", "#0"},
       {"conn", "#2"},
       {"seq", "#0"},
       {"code", "#503"}})));
  const ReassemblyReport report = collector.reassemble();
  ASSERT_EQ(report.traces.size(), 1u);
  EXPECT_EQ(report.complete_traces, 1u);
  const upa::obs::TraceRequest& request =
      report.traces.front().requests.front();
  EXPECT_EQ(request.method, "mmck_metrics");
  EXPECT_EQ(request.outcome, "rejected");
  EXPECT_TRUE(request.attempts.empty());
}

// --- Exports -------------------------------------------------------------

TEST(Collect, MergedChromeTraceAlignsReplicaClockOntoFrontTimeline) {
  TraceCollector collector;
  for (const std::string& line : crossed_trace_lines()) {
    ASSERT_TRUE(collector.ingest_line(line));
  }
  const std::string trace =
      collector.merged_chrome_trace(collector.reassemble());

  // Valid JSON with one metadata event per process and one X event per
  // span.
  const Json parsed = upa::serve::parse_json(trace);
  const Json* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->as_array().size(), 2u + 6u);

  // The serve_request span (replica clock 105.02) must land near the
  // matched attempt's window (front clock 5.03..5.10), i.e. the +100 s
  // skew is gone in the merged timeline.
  bool found = false;
  for (const Json& event : events->as_array()) {
    const Json* cat = event.find("cat");
    if (cat == nullptr || !cat->is_string() ||
        cat->as_string() != "serve_request") {
      continue;
    }
    found = true;
    const double ts = event.find("ts")->as_number();
    EXPECT_NEAR(ts, 5.02e6, 0.05e6);
  }
  EXPECT_TRUE(found);
}

TEST(Collect, MergedSpansJsonlIsDeterministicallyOrdered) {
  // Ingest in two different orders; the merged export must not care.
  TraceCollector forward;
  TraceCollector reverse;
  const std::vector<std::string> lines = crossed_trace_lines();
  for (const std::string& line : lines) {
    ASSERT_TRUE(forward.ingest_line(line));
  }
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
    ASSERT_TRUE(reverse.ingest_line(*it));
  }
  const std::string merged = forward.merged_spans_jsonl();
  EXPECT_EQ(merged, reverse.merged_spans_jsonl());
  // (process, id) order: front spans 10,11,12 then served spans 5,6,7.
  EXPECT_LT(merged.find("\"id\":10"), merged.find("\"id\":11"));
  EXPECT_LT(merged.find("\"id\":12"), merged.find("\"id\":5,"));
  // Every line re-ingests (the export round-trips).
  TraceCollector again;
  EXPECT_EQ(again.ingest_jsonl(merged), 6u);
}

// --- Profile mining ------------------------------------------------------

/// Emits synthetic direct serve_request spans for `walks` sessions per
/// scenario class of the Table 1 mix: one connection per session, one
/// span per visited function, methods mapped like the session loadgen.
void emit_table_sessions(TraceCollector& collector, upa::ta::UserClass uc,
                         std::size_t walks_per_mill) {
  const upa::profile::ScenarioSet table = upa::ta::scenario_table(uc);
  std::uint64_t conn = 0;
  std::uint64_t id = 1;
  for (const upa::profile::ScenarioClass& sc : table.scenarios()) {
    const auto walks = static_cast<std::size_t>(
        std::llround(sc.probability * 1000.0) * walks_per_mill);
    for (std::size_t w = 0; w < walks; ++w) {
      ++conn;
      std::uint64_t seq = 0;
      for (const std::size_t f : sc.functions) {
        const std::string function =
            table.function_names()[f];
        std::ostringstream trace_id;
        trace_id << "t" << conn << "x" << seq;
        ASSERT_TRUE(collector.ingest_line(span_line(
            "served:mine", id, 0,
            upa::serve::method_for_function(function), "serve_request",
            static_cast<double>(id) * 0.01,
            static_cast<double>(id) * 0.01 + 0.005,
            {{"trace_id", trace_id.str()},
             {"parent_span", "#0"},
             {"conn", "#" + std::to_string(conn)},
             {"seq", "#" + std::to_string(seq)},
             {"code", "#200"}})));
        ++id;
        ++seq;
      }
    }
  }
}

TEST(Collect, MinedProfileReproducesHandSpecifiedAvailability) {
  TraceCollector collector;
  emit_table_sessions(collector, upa::ta::UserClass::kB, 1);
  const ReassemblyReport report = collector.reassemble();
  const MinedProfile mined = TraceCollector::mine_profile(report);

  // One walk per mill of scenario mass: the mix is the table up to the
  // 1/1000 rounding.
  EXPECT_EQ(mined.walks, 1000u);
  EXPECT_EQ(mined.skipped_invocations, 0u);
  const upa::profile::ScenarioSet table =
      upa::ta::scenario_table(upa::ta::UserClass::kB);
  double table_mass = 0.0;
  for (const upa::profile::ScenarioClass& sc : table.scenarios()) {
    table_mass += sc.probability;
  }
  double mined_mass = 0.0;
  for (const upa::profile::ScenarioClass& sc : mined.classes.scenarios()) {
    mined_mass += sc.probability;
  }
  EXPECT_NEAR(mined_mass, table_mass, 1e-9);

  // Each synthetic walk starts at its scenario's lowest-index function,
  // so Start splits between Home (rows 1,3,4,6,7,9,10,12: 567 per mill)
  // and Browse (rows 2,5,8,11: 433 per mill) -- exactly, since the
  // mined DTMC is plain row-normalized counts.
  const upa::linalg::Matrix& p = mined.profile.transition_matrix();
  EXPECT_NEAR(p(upa::profile::NodeIndex::kStart, 1), 0.567, 1e-12);
  EXPECT_NEAR(p(upa::profile::NodeIndex::kStart, 2), 0.433, 1e-12);

  const ProfileComparison cmp = TraceCollector::compare_with_hand_specified(
      mined, upa::ta::UserClass::kB);
  EXPECT_TRUE(cmp.within_tolerance);
  EXPECT_LT(cmp.difference, 0.01);
  EXPECT_EQ(cmp.walks, 1000u);
  EXPECT_DOUBLE_EQ(
      cmp.hand_availability,
      upa::ta::user_availability_eq10(
          upa::ta::UserClass::kB,
          upa::ta::TaParameters::paper_defaults()));
}

TEST(Collect, Eq10OverScenariosMatchesTableFormBitForBit) {
  for (const upa::ta::UserClass uc :
       {upa::ta::UserClass::kA, upa::ta::UserClass::kB}) {
    const upa::ta::TaParameters params =
        upa::ta::TaParameters::paper_defaults();
    EXPECT_EQ(upa::ta::user_availability_eq10_scenarios(
                  upa::ta::scenario_table(uc), params),
              upa::ta::user_availability_eq10(uc, params));
  }
}

TEST(Collect, MiningWithoutMappedWalksThrows) {
  TraceCollector collector;
  // A lone `sleep` request (loss workload) maps to no Table 1 function.
  ASSERT_TRUE(collector.ingest_line(span_line(
      "served:b", 5, 0, "sleep", "serve_request", 1.0, 1.1,
      {{"trace_id", "00000000000000ab"},
       {"parent_span", "#0"},
       {"conn", "#1"},
       {"seq", "#0"},
       {"code", "#200"}})));
  const ReassemblyReport report = collector.reassemble();
  EXPECT_THROW((void)TraceCollector::mine_profile(report), ModelError);
}

// --- Live end-to-end -----------------------------------------------------

TEST(CollectLive, SubscribedFarmReassemblesEverySessionRequest) {
  using upa::dispatch::Front;
  using upa::dispatch::FrontConfig;
  using upa::serve::Server;
  using upa::serve::ServerConfig;

  ServerConfig server_config;
  server_config.port = 0;
  server_config.workers = 2;
  server_config.capacity = 32;
  server_config.trace = true;
  server_config.telemetry_process = "served:live";
  Server server(std::move(server_config));
  server.start();

  FrontConfig front_config;
  front_config.port = 0;
  front_config.upstreams = {{"127.0.0.1", server.port()}};
  front_config.trace = true;
  front_config.telemetry_process = "front:live";
  front_config.health.probe_interval_seconds = 30.0;
  front_config.health.unhealthy_threshold = 1000;
  Front front(std::move(front_config));
  front.start();

  // Subscribe to both processes; one reader thread per channel, exactly
  // like upa_tracecol.
  TraceCollector collector;
  upa::serve::Client server_sub;
  upa::serve::Client front_sub;
  server_sub.connect("127.0.0.1", server.port(), 5.0, 10.0);
  front_sub.connect("127.0.0.1", front.port(), 5.0, 10.0);
  const std::string subscribe =
      "{\"id\":1,\"method\":\"subscribe\",\"params\":{\"interval_ms\":50}}";
  server_sub.send_line(subscribe);
  front_sub.send_line(subscribe);
  const auto reader = [&collector](upa::serve::Client& client) {
    try {
      const std::string ack = client.read_line();
      EXPECT_NE(ack.find("\"subscribed\":true"), std::string::npos);
      while (true) collector.ingest_line(client.read_line());
    } catch (const std::exception&) {
      // shutdown_both below: the drain is the exit path.
    }
  };
  std::thread server_reader([&] { reader(server_sub); });
  std::thread front_reader([&] { reader(front_sub); });

  upa::serve::SessionConfig sessions;
  sessions.port = front.port();
  sessions.sessions = 40;
  sessions.session_rate = 100.0;
  sessions.uclass = upa::ta::UserClass::kB;
  sessions.trace = true;
  const upa::serve::SessionResult replay =
      upa::serve::run_session_replay(sessions);
  ASSERT_GT(replay.invocations, 0u);

  std::vector<std::string> expected;
  for (const upa::serve::SessionInvocationLog& log : replay.invocation_log) {
    expected.push_back(log.trace_id);
  }
  ASSERT_EQ(expected.size(), replay.invocations);

  // Both processes record a request's spans before its response leaves,
  // so every one reaches the collector within a telemetry tick or two.
  const auto every_request_streamed = [&] {
    std::set<std::string> served;
    std::set<std::string> dispatched;
    for (const upa::obs::CollectedSpan& span : collector.spans()) {
      if (span.level == "serve_request") served.insert(span.text("trace_id"));
      if (span.level == "dispatch_request") {
        dispatched.insert(span.text("trace_id"));
      }
    }
    return std::all_of(expected.begin(), expected.end(),
                       [&](const std::string& id) {
                         return served.contains(id) && dispatched.contains(id);
                       });
  };
  EXPECT_TRUE(upa::testing::poll_until(every_request_streamed));
  server_sub.shutdown_both();
  front_sub.shutdown_both();
  server_reader.join();
  front_reader.join();
  front.stop();
  server.stop();

  EXPECT_EQ(collector.dropped_spans_total(), 0u);
  const ReassemblyReport report = collector.reassemble();
  EXPECT_EQ(report.orphan_server_roots, 0u);

  // The acceptance gate: every request the loadgen issued reassembles
  // into a complete cross-process trace.
  EXPECT_DOUBLE_EQ(TraceCollector::accounted_fraction(report, expected),
                   1.0);

  // And the mined workload model closes the loop through eq. (10).
  const MinedProfile mined = TraceCollector::mine_profile(report);
  EXPECT_EQ(mined.walks, replay.sessions);
  const ProfileComparison cmp = TraceCollector::compare_with_hand_specified(
      mined, upa::ta::UserClass::kB);
  EXPECT_TRUE(cmp.within_tolerance)
      << "mined=" << cmp.mined_availability
      << " hand=" << cmp.hand_availability
      << " tolerance=" << cmp.tolerance;
}

}  // namespace
