// upa_ledger: the repository's end-to-end benchmark. One run measures
// one workload against real spawned processes and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ones.
//
//   upa_ledger --workload NAME --seed N --seconds S --trace 0|1
//              --bin-dir DIR --work-dir DIR --out-dir DIR [--commit ID]
//   upa_ledger --selftest

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "probes.hpp"
#include "selftest.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/serve/json.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {
namespace {

using upa::serve::Json;

/// Ordered metric list printed as the run's result.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    entries_.push_back({name, value, unit});
    std::printf("  %-36s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  [[nodiscard]] Json json() const {
    Json out = Json::object();
    for (const Entry& e : entries_) {
      Json m = Json::object();
      m.set("value", Json(e.value));
      m.set("unit", Json(e.unit));
      out.set(e.name, std::move(m));
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string note(const Percentile& p) {
  return "(n=" + std::to_string(p.n) + ", " + std::to_string(p.beyond) +
         " beyond)";
}

double ms(double seconds) { return seconds * 1e3; }

/// Sums `key` over the replicas' snapshots (after minus before).
double replicas_delta(const Snapshot& b, const Snapshot& a,
                      const std::vector<Json> Snapshot::*which,
                      const char* key) {
  double sum = 0.0;
  for (std::size_t i = 0; i < (a.*which).size(); ++i) {
    sum += delta((b.*which)[i], (a.*which)[i], key);
  }
  return sum;
}

/// Server-side mean request latency over the window, from the
/// replicas' per-method latency histograms.
double server_mean_seconds(const Snapshot& b, const Snapshot& a) {
  double sum = 0.0;
  double count = 0.0;
  for (std::size_t i = 0; i < a.replica_stats.size(); ++i) {
    const Json* m1 = a.replica_stats[i].find("method_latency");
    const Json* m0 = b.replica_stats[i].find("method_latency");
    for (const auto& [name, h1] : m1->as_object()) {
      const Json* h0 = m0->find(name);
      sum += member(h1, "sum") - (h0 != nullptr ? member(*h0, "sum") : 0.0);
      count += member(h1, "count") - (h0 != nullptr ? member(*h0, "count") : 0.0);
    }
  }
  return count > 0.0 ? sum / count : 0.0;
}

struct EndToEnd {
  Percentile session_p50, session_p90, req_p50, req_p90;
  double throughput = 0.0;
  double ok_frac = 0.0;
  CpuSplit cpu;
};

EndToEnd end_to_end(const PhaseResult& r) {
  EndToEnd e;
  e.session_p50 = percentile(r.session_latency, 0.5);
  e.session_p90 = percentile(r.session_latency, 0.9);
  e.req_p50 = percentile(r.request_latency, 0.5);
  e.req_p90 = percentile(r.request_latency, 0.9);
  e.throughput = static_cast<double>(r.closed_requests_ok) / r.closed_seconds;
  e.ok_frac = r.units.ok_frac();
  e.cpu = cpu_per_request(r.after.front_cpu - r.before.front_cpu,
                          r.after.replicas_cpu - r.before.replicas_cpu,
                          r.requests_ok);
  return e;
}

/// Spans written to a traced run's span file: every span stays in memory
/// for the report, but the file keeps the first ones only, so repeated
/// traced runs do not fill the disk.
constexpr std::size_t kSpansWritten = 100000;

/// Writes the first kSpansWritten spans, each with its self time, as
/// JSON lines; returns how many were written.
std::size_t write_spans(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<double>& self) {
  std::ofstream out(path);
  const std::size_t n = std::min(spans.size(), kSpansWritten);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    Json j = Json::object();
    j.set("name", Json(s.name));
    j.set("request", Json(static_cast<double>(s.request)));
    j.set("parent", Json(static_cast<double>(s.parent)));
    j.set("start_s", Json(s.start));
    j.set("end_s", Json(s.end));
    j.set("self_s", Json(self[i]));
    out << j.dump() << "\n";
  }
  return n;
}

/// Mean duration and mean self time of the spans named `name`.
std::pair<double, double> span_means(const std::vector<Span>& spans,
                                     const std::vector<double>& self,
                                     const std::string& name) {
  double total = 0.0, own = 0.0, n = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    total += spans[i].end - spans[i].start;
    own += self[i];
    n += 1.0;
  }
  return n > 0.0 ? std::make_pair(total / n, own / n)
                 : std::make_pair(0.0, 0.0);
}

/// Prints the per-layer metrics of a traced run into `metrics`, with
/// the layer shares of the mean request, the span self times and the
/// CPU split, and writes the spans out. `e` is the untraced phase.
void report_layers(const Env& env, bool front_in_path, const PhaseResult& t,
                   const EndToEnd& e, const HopProbe& hop,
                   const InProcessProbe& in, Metrics& metrics) {
  const EndToEnd te = end_to_end(t);
  const Snapshot& b = t.before;
  const Snapshot& a = t.after;
  const double n = static_cast<double>(t.requests_ok);
  const auto rd = [&](const char* key) {
    return replicas_delta(b, a, &Snapshot::replica_stats, key);
  };
  const auto cd = [&](const char* key) {
    return replicas_delta(b, a, &Snapshot::replica_cache, key);
  };
  double disk_hits = 0.0, appended = 0.0, max_in_system = 0.0;
  for (std::size_t i = 0; i < a.replica_cache.size(); ++i) {
    const Json* p1 = a.replica_cache[i].find("persist");
    const Json* p0 = b.replica_cache[i].find("persist");
    if (p1 != nullptr && p0 != nullptr) {
      disk_hits += delta(*p0, *p1, "disk_hits");
      appended += delta(*p0, *p1, "records_appended");
    }
    max_in_system =
        std::max(max_in_system, member(a.replica_stats[i], "max_in_system"));
  }
  const double lookups = cd("hits") + cd("disk_hits") + cd("misses");
  const double client_mean = t.request_seconds_sum /
                             static_cast<double>(t.request_seconds_count);
  const double server_mean = server_mean_seconds(b, a);
  const double handler =
      rd("handled_requests") > 0 ? rd("busy_seconds") / rd("handled_requests")
                                 : 0.0;
  // With the front in the path, its counters come from the traced
  // phase; elsewhere from the hop probe's front. The front's mean
  // upstream attempt (connect, send, replica, reply) comes from its
  // per-upstream latency histograms over the same window.
  double attempts_per_req = hop.attempts_per_req;
  double retries = hop.retries;
  double dispatch_cpu = hop.cpu_us_per_req;
  double attempt_mean = 0.0;
  if (front_in_path) {
    attempts_per_req = upstreams_delta(b.front, a.front, "attempts") /
                       delta(b.front, a.front, "requests");
    retries = delta(b.front, a.front, "retries");
    dispatch_cpu = te.cpu.dispatch_us;
    attempt_mean = upstreams_delta(b.front, a.front, "sum", "latency") /
                   upstreams_delta(b.front, a.front, "count", "latency");
  }

  const Percentile session_p99 = percentile(t.session_latency, 0.99);
  const Percentile req_p99 = percentile(t.request_latency, 0.99);

  std::printf("[ledger] per-layer (%s, traced pass)\n", env.workload.c_str());
  metrics.add("loadgen.late_p90_ms", ms(percentile(t.late, 0.9).value), "ms");
  metrics.add("loadgen.cpu_us_per_req", t.generator_cpu / n * 1e6, "us");
  metrics.add("dispatch.hop_us", hop.hop_us, "us",
              "(" + std::to_string(hop.requests) + " lines, front vs direct)");
  metrics.add("dispatch.attempts_per_req", attempts_per_req, "count");
  metrics.add("dispatch.retries", retries, "count");
  metrics.add("dispatch.cpu_us_per_req", dispatch_cpu, "us");
  metrics.add("serve.accepts_per_req", rd("accepted") / n, "count");
  metrics.add("serve.cpu_us_per_req", te.cpu.serve_us, "us");
  metrics.add("serve.handler_us", handler * 1e6, "us");
  metrics.add("serve.overhead_us", (client_mean - server_mean) * 1e6, "us");
  metrics.add("serve.max_in_system", max_in_system, "count");
  metrics.add("serve.rejected_frac",
              rd("rejected") / std::max(1.0, rd("accepted") + rd("rejected")),
              "fraction");
  metrics.add("serve.protocol.parse_us", in.parse_us, "us");
  metrics.add("serve.protocol.dump_us", in.dump_us, "us");
  metrics.add("serve.protocol.response_bytes", in.response_bytes, "B");
  metrics.add("serve.protocol.dispatch_warm_us", in.dispatch_warm_us, "us");
  metrics.add("cache.hit_ratio",
              lookups > 0 ? (cd("hits") + cd("disk_hits")) / lookups : 0.0,
              "fraction");
  metrics.add("cache.lookups_per_req", lookups / n, "count");
  metrics.add("cache.hit_us", in.cache_hit_us, "us");
  metrics.add("cache.persist.attach_s", in.attach_s, "s");
  metrics.add("cache.persist.records_indexed", in.records_indexed, "count");
  metrics.add("cache.persist.indexes_rebuilt", in.indexes_rebuilt, "count");
  metrics.add("cache.persist.bytes_mapped", in.bytes_mapped, "B");
  metrics.add("cache.persist.disk_hit_ratio",
              lookups > 0 ? disk_hits / lookups : 0.0, "fraction");
  metrics.add("cache.persist.disk_hit_us", in.disk_hit_us, "us");
  metrics.add("cache.persist.records_appended", appended, "count");
  metrics.add("cache.persist.bytes_appended",
              static_cast<double>(t.bytes_appended),
              "B");
  metrics.add("queueing.mmck_metrics_us", in.mmck_us, "us");
  metrics.add("markov.steady_state_us", in.steady_state_us, "us");
  metrics.add("core.composite_availability_us", in.composite_us, "us");
  metrics.add("ta.user_availability_us", in.user_availability_us, "us");
  metrics.add("ta.category_breakdown_us", in.category_breakdown_us, "us");
  metrics.add("e2e.session_p99_ms", ms(session_p99.value), "ms",
              note(session_p99));
  metrics.add("e2e.session_p99_samples", static_cast<double>(session_p99.n),
              "count");
  metrics.add("e2e.req_p99_ms", ms(req_p99.value), "ms", note(req_p99));
  metrics.add("e2e.req_p99_samples", static_cast<double>(req_p99.n),
              "count");
  metrics.add("trace.overhead_session_p50_ms",
              ms(te.session_p50.value - e.session_p50.value), "ms");
  metrics.add("trace.overhead_req_p50_ms",
              ms(te.req_p50.value - e.req_p50.value), "ms");
  metrics.add("trace.overhead_throughput_frac",
              te.throughput / e.throughput - 1.0, "fraction");

  // Where the mean request goes, all from the traced pass: the front
  // (client mean minus its mean upstream attempt), the replica's own
  // overhead (admission, queue, socket I/O: its server-side mean minus
  // handler and protocol), the protocol (parse + dump), the handler
  // (cache + solver), and the remainder the ledger cannot attribute
  // (wire, kernel, connection set-up: the front's attempt minus the
  // replica's mean, or without a front the client mean minus it).
  const double protocol = (in.parse_us + in.dump_us) * 1e-6;
  const double dispatch_part =
      front_in_path ? client_mean - attempt_mean : 0.0;
  const double serve_rest = std::max(0.0, server_mean - handler - protocol);
  const double unattributed =
      client_mean - dispatch_part - serve_rest - protocol - handler;
  const auto share = [&](double part) { return part / client_mean; };
  metrics.add("share.dispatch", share(dispatch_part), "fraction");
  metrics.add("share.serve", share(serve_rest), "fraction");
  metrics.add("share.protocol", share(protocol), "fraction");
  metrics.add("share.cache_solver", share(handler), "fraction");
  metrics.add("share.unattributed", share(unattributed), "fraction");

  std::vector<Span> spans = t.spans;
  const auto offset = static_cast<std::int64_t>(spans.size());
  for (Span s : in.spans) {
    if (s.parent >= 0) s.parent += offset;
    spans.push_back(std::move(s));
  }
  const std::vector<double> self = self_times(spans);
  std::printf("[ledger] mean request %.1f us over %llu correct requests:\n",
              client_mean * 1e6,
              static_cast<unsigned long long>(t.request_seconds_count));
  std::printf("  dispatch %.1f%%  serve %.1f%%  protocol %.1f%%  "
              "cache+solver %.1f%%  unattributed (wire, kernel, connect) "
              "%.1f%%\n",
              100 * share(dispatch_part), 100 * share(serve_rest),
              100 * share(protocol), 100 * share(handler),
              100 * share(unattributed));
  const std::string unit = env.workload == "table1_farm" ? "session" : "point";
  const auto [unit_mean, unit_self] = span_means(spans, self, unit);
  std::printf("  %s span: mean %.1f us, self (connect, close, generator) "
              "%.1f us = %.1f%%\n",
              unit.c_str(), unit_mean * 1e6, unit_self * 1e6,
              unit_mean > 0 ? 100 * unit_self / unit_mean : 0.0);
  const auto [replay_mean, replay_self] = span_means(spans, self, "replay");
  std::printf("  replay span: mean %.2f us, self %.2f us (parse %.2f, "
              "handler %.2f, dump %.2f)\n",
              replay_mean * 1e6, replay_self * 1e6, in.parse_us,
              in.handler_us, in.dump_us);
  std::printf("  cpu in the path: dispatch %.1f + serve %.1f = "
              "cpu_us_per_req %.1f us\n",
              te.cpu.dispatch_us, te.cpu.serve_us, te.cpu.total_us);
  const std::string span_file =
      env.out_dir + "/" + env.workload + ".spans.jsonl";
  const std::size_t written = write_spans(span_file, spans, self);
  std::printf("[ledger] %zu of %zu spans written to %s\n", written,
              spans.size(), span_file.c_str());
}

int run(Env& env) {
  std::unique_ptr<Workload> workload = make_workload(env);
  std::printf("[ledger] workload=%s seed=%llu seconds=%g trace=%d\n",
              env.workload.c_str(),
              static_cast<unsigned long long>(env.seed), env.seconds,
              env.trace ? 1 : 0);
  std::printf("[ledger] generator: %zu threads, at most %zu connections "
              "(nproc=%zu)\n",
              env.threads, env.threads, available_cpus());
  workload->prepare();

  // Set-up is timed several times; the median is reported, and the last
  // stack stays up for the timed phases.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < env.config.setup_repeats; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = workload->setup();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 2];

  const auto report_errors = [](const std::vector<std::string>& errors) {
    for (const std::string& err : errors) {
      std::fprintf(stderr, "[ledger] check failed: %s\n", err.c_str());
    }
  };
  PhaseResult plain = workload->run(*stack, env.seconds, false);
  workload->verify(plain);
  report_errors(plain.errors);
  PhaseResult traced;
  HopProbe hop;
  std::vector<std::string> probe_errors;
  if (env.trace) {
    traced = workload->run(*stack, env.seconds, true);
    workload->verify(traced);
    report_errors(traced.errors);
    hop = probe_dispatch_hop(env, *stack, traced.recorded, probe_errors);
  }
  const double rss_mb = stack->peak_rss_bytes() / 1e6;
  stack.reset();

  const EndToEnd e = end_to_end(plain);
  std::vector<std::string> errors = plain.errors;
  Metrics metrics;
  std::uint64_t attempted = plain.requests_attempted;
  std::uint64_t failed = plain.requests_attempted - plain.requests_ok;

  if (!env.trace) {
    std::printf("[ledger] end-to-end (%s)\n", env.workload.c_str());
    metrics.add("setup_s", setup_s, "s",
                "(median of " + std::to_string(setups.size()) + " set-ups)");
    metrics.add("session_p50_ms", ms(e.session_p50.value), "ms",
                note(e.session_p50));
    metrics.add("session_p90_ms", ms(e.session_p90.value), "ms",
                note(e.session_p90));
    metrics.add("req_p50_ms", ms(e.req_p50.value), "ms", note(e.req_p50));
    metrics.add("req_p90_ms", ms(e.req_p90.value), "ms", note(e.req_p90));
    metrics.add("throughput_rps", e.throughput, "1/s",
                "(" + std::to_string(plain.closed_requests_ok) +
                    " correct answers, closed loop)");
    metrics.add("ok_frac", e.ok_frac, "fraction",
                "(" + std::to_string(plain.units.ok) + "/" +
                    std::to_string(plain.units.attempted) + ")");
    metrics.add("cpu_us_per_req", e.cpu.total_us, "us");
    metrics.add("rss_mb", rss_mb, "MB");
  } else {
    const InProcessProbe in = probe_in_process(env, traced.recorded,
                                               workload->cache_dir(),
                                               probe_errors);
    report_errors(probe_errors);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    errors.insert(errors.end(), probe_errors.begin(), probe_errors.end());
    attempted += traced.requests_attempted;
    failed += traced.requests_attempted - traced.requests_ok;
    report_layers(env, workload->front_in_path(), traced, e, hop, in, metrics);
  }

  const std::uint64_t wrong = plain.units.wrong + traced.units.wrong;
  const bool correct = errors.empty() && wrong == 0;
  Json result = Json::object();
  result.set("correct", Json(correct));
  result.set("attempted", Json(static_cast<double>(attempted)));
  result.set("failed", Json(static_cast<double>(failed)));
  result.set("metrics", metrics.json());
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  std::map<std::string, std::string> args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      selftest = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      std::cerr << "upa_ledger: unexpected argument '" << key << "'\n";
      return 2;
    }
  }
  if (selftest) {
    const bool ok = run_selftests(std::cout, true);
    std::cout << (ok ? "selftest: all checks passed" : "selftest: FAILED")
              << std::endl;
    return ok ? 0 : 1;
  }
  for (const char* required :
       {"workload", "bin-dir", "work-dir", "out-dir"}) {
    if (args.count(required) == 0) {
      std::cerr << "upa_ledger: --" << required << " is required\n";
      return 2;
    }
  }
  // The arithmetic every metric rests on is checked before each run.
  if (!run_selftests(std::cerr, false)) {
    std::cerr << "upa_ledger: self-tests failed\n";
    return 1;
  }

  Env env;
  int status = 1;
  try {
    const IdleSpinners spinners(allowed_cpus());
    env.workload = args["workload"];
    env.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    env.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    env.trace = args.count("trace") != 0 && args["trace"] != "0";
    env.bin_dir = args["bin-dir"];
    env.work_dir = args["work-dir"];
    env.out_dir = args["out-dir"];
    env.threads = available_cpus();
    env.config.farm_clients =
        std::clamp<std::size_t>(env.config.farm_clients, 1, env.threads);
    env.config.grid_clients =
        std::clamp<std::size_t>(env.config.grid_clients, 1, env.threads);
    std::filesystem::remove_all(env.work_dir);
    std::filesystem::create_directories(env.work_dir);
    std::filesystem::create_directories(env.out_dir);
    // In-process answer checks compute cold, with the cache off.
    upa::cache::set_enabled(false);

    Json header = Json::object();
    header.set("cores", Json(available_cpus()));
    header.set("build_type", Json(LEDGER_BUILD_TYPE));
    header.set("commit", Json(args.count("commit") ? args["commit"] : "unknown"));
    std::printf("[ledger] header %s\n", header.dump().c_str());
    status = run(env);
  } catch (const std::exception& ex) {
    std::cerr << "upa_ledger: " << ex.what() << "\n";
    status = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(env.work_dir, ec);
  return status;
}
