// upa_loadgen: load-generation client for upa_served / upa_dispatch.
//
// Modes:
//   smoke    one connection, one request per public RPC method; exit 0
//            only if every check passes (the CI liveness gate).
//   loss     open-loop Poisson single-request connections with Exp(nu)
//            `sleep` service draws against an external server -- the
//            measured rejection fraction of the paper's M/M/i/K model.
//   session  open-loop Poisson session arrivals replaying the Table 1
//            operational profile (class A browsers / class B buyers),
//            one evaluation RPC per visited function.
//   bench    self-hosted dogfood experiment: for several (lambda, i, K)
//            design points, start an in-process Server with i workers
//            and capacity K, drive the loss workload, and record
//            measured vs analytic p_K(i) into BENCH_serve.json. With
//            --check it then gates every section of that file.
//   farm     the paper's N_W-server farm, live: spawn --replicas real
//            upa_served processes behind an in-process dispatch front,
//            kill -9 / restart replicas on a FaultPlan-driven schedule
//            while replaying the loss workload, and record measured
//            farm loss vs the perfect- and imperfect-coverage composite
//            predictions into BENCH_farm.json (4-sigma gate). With
//            --check it then gates every section of that file.
//   control  closed-loop dogfood: replay a diurnal/flash-crowd/outage
//            lambda(t) against an in-process server once under upa_ctl's
//            Controller and once at a fixed trough-sized (i, K); the
//            controlled run must hold the loss SLO through every
//            transient (zero transport errors) while the baseline
//            violates it. Writes BENCH_control.json; --check gates its
//            summary.
//
// The --check runs of bench, farm and control are the ctest gates
// tools/CMakeLists.txt registers under the `gate` label.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "upa/cli/args.hpp"
#include "upa/common/bench_json.hpp"
#include "upa/common/csv.hpp"
#include "upa/common/error.hpp"
#include "upa/control/scenario.hpp"
#include "upa/dispatch/farm.hpp"
#include "upa/inject/fault_plan.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/json.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/serve/server.hpp"
#include "upa/ta/user_classes.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: upa_loadgen --mode MODE [options]\n"
        "\n"
        "modes:\n"
        "  smoke     one request per RPC method; exit 0 iff all pass\n"
        "  loss      open-loop Poisson `sleep` workload; reports the\n"
        "            measured rejection fraction (and the analytic\n"
        "            M/M/i/K loss when --workers/--capacity are given)\n"
        "  session   replay Table 1 user sessions (--class A|B)\n"
        "  bench     self-hosted (lambda, i, K) design sweep; writes\n"
        "            measured vs analytic loss to --out\n"
        "  farm      live N_W-server farm with kill -9 failover; writes\n"
        "            measured vs composite predictions to --out\n"
        "  control   closed-loop controller vs fixed-(i,K) baseline over\n"
        "            a diurnal/flash/outage lambda(t); writes per-phase\n"
        "            loss vs SLO gates to --out\n"
        "\n"
        "options:\n"
        "  --host ADDR      server address      (default 127.0.0.1)\n"
        "  --port N         server port         (default 7077)\n"
        "  --lambda R       arrival rate [1/s]  (default 150)\n"
        "  --nu R           service rate [1/s]  (default 100)\n"
        "  --requests N     loss/farm requests  (default 1000)\n"
        "  --sessions N     session-mode count  (default 50)\n"
        "  --session-rate R session arrivals/s  (default 20)\n"
        "  --class A|B      user class          (default B)\n"
        "  --workers N      analytic i for loss comparison\n"
        "  --capacity N     analytic K for loss comparison\n"
        "  --connect-timeout S  per-connection connect timeout\n"
        "                   (default 5)\n"
        "  --call-timeout S per-call receive timeout; 0 inherits the\n"
        "                   connect timeout (default 0)\n"
        "  --seed N         RNG seed            (default 1)\n"
        "  --out PATH       bench artifact      (default BENCH_serve.json\n"
        "                   / BENCH_farm.json)\n"
        "  --trace          originate one trace context per request\n"
        "                   (loss/session/farm; ids derive from --seed)\n"
        "  --trace-csv PATH write the per-request trace log as CSV,\n"
        "                   joinable against collected spans by trace_id\n"
        "  --check          bench/farm/control: after writing --out, fail\n"
        "                   unless the file passes that mode's gate (bench:\n"
        "                   >= 3 points, each within tolerance with no\n"
        "                   transport errors; farm and control below)\n"
        "\n"
        "farm options:\n"
        "  --served-bin PATH    upa_served binary to spawn (required)\n"
        "  --replicas N         farm size N_W          (default 3)\n"
        "  --replica-workers N  per-replica i          (default 1)\n"
        "  --replica-capacity N per-replica K_r        (default 3)\n"
        "  --policy NAME        balancing policy       (default\n"
        "                       least-outstanding)\n"
        "  --retries N          per-request attempt budget (default 3)\n"
        "  --kills N            scheduled kill -9 count (default 1)\n"
        "  --kill-at S          first kill time        (default 6.0)\n"
        "  --kill-for S         per-kill down duration (default 3.5)\n"
        "  --kill-every S       kill spacing, start to start\n"
        "                       (default 6.0)\n"
        "  --probe-interval S   health probe period    (default 0.25)\n"
        "  --unhealthy-threshold N  probe failures to eject (default 1)\n"
        "  --anti-entropy-ms N  gossip interval: a live peer is\n"
        "                       pre-warmed, restarted replicas pull the\n"
        "                       warm set from their peers themselves, and\n"
        "                       the replayed hits are verified (default\n"
        "                       0 = off)\n"
        "  --warm-points N      design points in the warm set (default 16)\n"
        "  --check              after writing --out, fail unless every\n"
        "                       section of it passed the failover gate:\n"
        "                       within tolerance, no client transport\n"
        "                       errors, a kill executed, and the\n"
        "                       restarted replica warmed by anti-entropy\n"
        "                       (pulled records, replayed hits)\n"
        "  (farm overrides: --lambda 20, --nu 10, --requests 500,\n"
        "   --call-timeout 5 -- slow services keep scheduler overhead\n"
        "   negligible against the modeled service time)\n"
        "\n"
        "control options:\n"
        "  --scenario NAME      full = night/morning/flash/outage/\n"
        "                       recovery; flash = morning/flash only,\n"
        "                       the CI-sized subset (default full)\n"
        "  --target-loss P      the loss SLO in (0,1) (default 0.08)\n"
        "  --duration-scale F   scales every phase duration (default 1)\n"
        "  --max-workers N      controller search cap for i (default 8)\n"
        "  --max-capacity N     controller search cap for K (default 64)\n"
        "  --check              after writing --out, fail unless the\n"
        "                       controlled run held every gate with no\n"
        "                       transport errors or failed reconfigures\n"
        "                       and the baseline broke one\n"
        "  (control overrides: --nu 12 -- ~83 ms services; the fixed\n"
        "   baseline and the controlled run both start at i=1, K=3)\n"
        "  --help           this text\n";
}

int validate_options(const upa::cli::Args& args,
                     const std::vector<std::string>& allowed) {
  const std::vector<std::string> unknown =
      upa::cli::unknown_options(args, allowed);
  if (unknown.empty()) return 0;
  std::cerr << "upa_loadgen: unknown option '--" << unknown.front()
            << "'\n\n";
  print_usage(std::cerr);
  return 2;
}

int run_smoke(const upa::cli::Args& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_size("port", 7077));
  const upa::serve::SmokeResult r = upa::serve::run_smoke_probe(host, port);
  for (const auto& [name, ok] : r.checks) {
    std::cout << (ok ? "ok   " : "FAIL ") << name << "\n";
  }
  std::cout << (r.all_ok ? "smoke: all checks passed"
                         : "smoke: FAILURES above")
            << std::endl;
  return r.all_ok ? 0 : 1;
}

void print_loss(const upa::serve::LossResult& r) {
  std::cout << "sent=" << r.sent << " ok=" << r.ok
            << " rejected=" << r.rejected
            << " deadline_missed=" << r.deadline_missed
            << " transport_errors=" << r.transport_errors
            << " other_errors=" << r.other_errors << "\n"
            << "measured_loss=" << r.measured_loss
            << " mean_latency_s=" << r.mean_latency_seconds
            << " max_latency_s=" << r.max_latency_seconds
            << " offered_rate=" << r.offered_rate << "/s"
            << " wall_s=" << r.wall_seconds << "\n"
            << "late_p90_s=" << r.late_p90_seconds
            << " late_max_s=" << r.late_max_seconds
            << " generator_threads=" << r.generator_threads << std::endl;
}

void write_loss_trace_csv(
    const std::string& path,
    const std::vector<upa::serve::LossRequestLog>& log) {
  upa::common::CsvWriter csv({"request", "trace_id",
                              "scheduled_offset_seconds", "method",
                              "outcome", "code", "latency_seconds"});
  for (std::size_t i = 0; i < log.size(); ++i) {
    const upa::serve::LossRequestLog& r = log[i];
    csv.add_row({std::to_string(i), r.trace_id,
                 upa::serve::format_number(r.scheduled_offset_seconds),
                 r.method, upa::serve::call_outcome_name(r.outcome),
                 std::to_string(r.code),
                 upa::serve::format_number(r.latency_seconds)});
  }
  csv.write_file(path);
  std::cout << "wrote " << path << " (" << log.size() << " requests)"
            << std::endl;
}

int run_loss(const upa::cli::Args& args) {
  upa::serve::LossConfig config;
  config.host = args.get("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_size("port", 7077));
  config.lambda = args.get_double("lambda", 150.0);
  config.nu = args.get_double("nu", 100.0);
  config.requests = args.get_size("requests", 1000);
  config.seed = args.get_size("seed", 1);
  config.connect_timeout_seconds = args.get_double("connect-timeout", 5.0);
  config.call_timeout_seconds = args.get_double("call-timeout", 0.0);
  const std::string trace_csv = args.get("trace-csv", "");
  config.trace = args.has("trace") || !trace_csv.empty();

  const std::size_t workers = args.get_size("workers", 0);
  const std::size_t capacity = args.get_size("capacity", 0);

  const upa::serve::LossResult r = upa::serve::run_loss_workload(config);
  print_loss(r);
  if (!trace_csv.empty()) write_loss_trace_csv(trace_csv, r.request_log);
  if (workers > 0 && capacity > 0) {
    const double analytic = upa::queueing::mmck_loss_probability(
        config.lambda, config.nu, workers, capacity);
    std::cout << "analytic p_K(i) [i=" << workers << ", K=" << capacity
              << "] = " << analytic
              << "  abs_error=" << std::abs(r.measured_loss - analytic)
              << std::endl;
  }
  return r.transport_errors == r.sent ? 1 : 0;
}

int run_session(const upa::cli::Args& args) {
  upa::serve::SessionConfig config;
  config.host = args.get("host", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(args.get_size("port", 7077));
  config.sessions = args.get_size("sessions", 50);
  config.session_rate = args.get_double("session-rate", 20.0);
  config.seed = args.get_size("seed", 1);
  config.connect_timeout_seconds = args.get_double("connect-timeout", 5.0);
  config.call_timeout_seconds = args.get_double("call-timeout", 0.0);
  const std::string uclass = args.get("class", "B");
  UPA_REQUIRE(uclass == "A" || uclass == "B", "--class must be A or B");
  config.uclass =
      uclass == "A" ? upa::ta::UserClass::kA : upa::ta::UserClass::kB;
  const std::string trace_csv = args.get("trace-csv", "");
  config.trace = args.has("trace") || !trace_csv.empty();

  const upa::serve::SessionResult r = upa::serve::run_session_replay(config);
  if (!trace_csv.empty()) {
    upa::common::CsvWriter csv({"session", "invocation", "function",
                                "method", "trace_id", "outcome", "code"});
    for (const upa::serve::SessionInvocationLog& inv : r.invocation_log) {
      csv.add_row({std::to_string(inv.session),
                   std::to_string(inv.invocation), inv.function, inv.method,
                   inv.trace_id, upa::serve::call_outcome_name(inv.outcome),
                   std::to_string(inv.code)});
    }
    csv.write_file(trace_csv);
    std::cout << "wrote " << trace_csv << " (" << r.invocation_log.size()
              << " invocations)" << std::endl;
  }
  std::cout << "class " << uclass << ": sessions=" << r.sessions
            << " completed=" << r.completed << " rejected=" << r.rejected
            << " failed=" << r.failed << "\n"
            << "invocations=" << r.invocations
            << " invocation_failures=" << r.invocation_failures
            << " mean_invocations_per_session="
            << r.mean_invocations_per_session << "\n"
            << "session_success_fraction=" << r.session_success_fraction
            << "\n"
            << "late_p90_s=" << r.late_p90_seconds
            << " late_max_s=" << r.late_max_seconds
            << " generator_threads=" << r.generator_threads << std::endl;
  return r.completed > 0 ? 0 : 1;
}

/// The sections of the BENCH json file at `path` (none when it holds no
/// object) -- the one reader of every --check gate.
upa::serve::Json::Object read_bench_sections(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const upa::serve::Json json = upa::serve::parse_json(text.str());
  return json.is_object() ? json.as_object() : upa::serve::Json::Object{};
}

/// Number `key` of a BENCH section; NaN, which fails every check, when
/// it is absent.
double bench_number(const upa::serve::Json& section, const char* key) {
  const upa::serve::Json* v = section.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
}

/// One --check gate's verdict: prints one line per broken check.
struct GateVerdict {
  const char* gate;
  bool passed = true;

  void require(bool ok, const std::string& what) {
    if (ok) return;
    std::cerr << gate << " check: " << what << "\n";
    passed = false;
  }
};

/// The serve loss gate over BENCH_serve.json: every design point within
/// tolerance of eq. (3) and free of transport errors.
bool check_serve_bench(const std::string& path) {
  const upa::serve::Json::Object sections = read_bench_sections(path);
  GateVerdict check{"serve"};
  check.require(sections.size() >= 3, path + " needs >= 3 sections");
  for (const auto& [name, s] : sections) {
    check.require(bench_number(s, "within_tolerance") == 1.0,
                  name + ": measured loss outside tolerance");
    check.require(bench_number(s, "transport_errors") == 0.0,
                  name + ": transport errors during bench");
  }
  return check.passed;
}

/// The farm failover gate over every section of BENCH_farm.json at
/// `path`: prints each section's numbers and one line per broken check;
/// true when none broke.
bool check_farm_bench(const std::string& path) {
  const upa::serve::Json::Object sections = read_bench_sections(path);
  GateVerdict check{"farm"};
  check.require(!sections.empty(), path + " has no sections");
  for (const auto& [name, s] : sections) {
    const auto at = [&s](const char* key) { return bench_number(s, key); };
    std::cout << name << ": measured=" << at("measured_loss")
              << " imperfect=" << at("predicted_loss_imperfect")
              << " perfect=" << at("predicted_loss_perfect")
              << " tolerance=" << at("tolerance")
              << " coverage=" << at("coverage")
              << " anti_entropy_rounds=" << at("anti_entropy_rounds")
              << " records_pulled=" << at("anti_entropy_records_pulled")
              << " warmed_hits=" << at("warmed_hits") << std::endl;
    check.require(at("within_tolerance") == 1.0,
                  name + ": measured loss outside 4-sigma gate");
    check.require(at("client_transport_errors") == 0.0,
                  name + ": failover leaked transport errors to clients");
    check.require(at("kills") >= 1.0, name + ": no kill executed");
    // Warm restart: the killed replica pulled its peer's warm set itself
    // and replayed the pre-warmed design points.
    check.require(at("anti_entropy_ok") == 1.0,
                  name + ": anti-entropy warm restart failed");
    check.require(at("anti_entropy_records_pulled") >= 1.0,
                  name + ": replica pulled no records");
    check.require(at("warmed_hits") >= 1.0,
                  name + ": restarted replica answered cold");
  }
  return check.passed;
}

/// The control loop gate over BENCH_control.json: the controlled run held
/// the SLO with no transport errors and no failed reconfigure, and the
/// fixed baseline broke it.
bool check_control_bench(const std::string& path) {
  upa::serve::Json summary;
  for (const auto& [name, s] : read_bench_sections(path)) {
    if (name == "control_summary") summary = s;
  }
  const auto at = [&summary](const char* key) {
    return bench_number(summary, key);
  };
  GateVerdict check{"control"};
  check.require(at("control_ok") == 1.0,
                "controlled farm breached the loss gate");
  check.require(at("baseline_violates") == 1.0,
                "fixed baseline never violated: scenario is not stressing");
  check.require(at("controlled_transport_errors") == 0.0,
                "transport errors during controlled run");
  check.require(at("controller_apply_failures") == 0.0,
                "controller failed to apply a reconfigure");
  return check.passed;
}

struct DesignPoint {
  double lambda;       ///< arrival rate [1/s]
  double nu;           ///< service rate [1/s]
  std::size_t workers; ///< the model's i
  std::size_t capacity;///< the model's K
  std::size_t requests;
};

int run_bench(const upa::cli::Args& args) {
  const std::string out = args.get("out", "BENCH_serve.json");
  const std::uint64_t seed = args.get_size("seed", 1);

  // Three operating regimes of eq. (3): heavy overload, a single
  // saturated server, and a lightly-loaded farm. Request counts keep
  // each point's wall clock to a few seconds while the binomial
  // half-width stays well under the loss being measured.
  const std::vector<DesignPoint> points = {
      {300.0, 100.0, 2, 4, 900},
      {150.0, 100.0, 1, 3, 600},
      {120.0, 100.0, 2, 6, 600},
  };

  bool all_within = true;
  for (const DesignPoint& p : points) {
    upa::serve::ServerConfig sc;
    sc.port = 0;  // ephemeral
    sc.workers = p.workers;
    sc.capacity = p.capacity;
    upa::serve::Server server(std::move(sc));
    server.start();

    upa::serve::LossConfig lc;
    lc.port = server.port();
    lc.lambda = p.lambda;
    lc.nu = p.nu;
    lc.requests = p.requests;
    lc.seed = seed;
    const upa::serve::LossResult r = upa::serve::run_loss_workload(lc);
    server.stop();

    const double analytic = upa::queueing::mmck_loss_probability(
        p.lambda, p.nu, p.workers, p.capacity);
    const double abs_error = std::abs(r.measured_loss - analytic);
    // 4-sigma binomial half-width plus a small allowance: an admitted
    // line holds its slot a little longer than its Exp(nu) draw (worker
    // wake-up, sleep overshoot, the response write), which raises the
    // effective load. The schedule itself is kept (late_p90_ms).
    const double tolerance =
        4.0 * std::sqrt(analytic * (1.0 - analytic) /
                        static_cast<double>(p.requests)) +
        0.02;
    const bool within = abs_error <= tolerance;
    all_within = all_within && within;

    std::ostringstream section;
    section << "serve_loss_l" << static_cast<int>(p.lambda) << "_i"
            << p.workers << "_k" << p.capacity;
    upa::common::write_bench_json(
        out, section.str(),
        {{"lambda", p.lambda},
         {"nu", p.nu},
         {"workers", static_cast<double>(p.workers)},
         {"capacity", static_cast<double>(p.capacity)},
         {"requests", static_cast<double>(r.sent)},
         {"measured_loss", r.measured_loss},
         {"analytic_loss", analytic},
         {"abs_error", abs_error},
         {"tolerance", tolerance},
         {"within_tolerance", within ? 1.0 : 0.0},
         {"transport_errors", static_cast<double>(r.transport_errors)},
         {"mean_latency_seconds", r.mean_latency_seconds},
         {"offered_rate", r.offered_rate},
         {"late_p90_ms", r.late_p90_seconds * 1e3},
         {"wall_seconds", r.wall_seconds}});

    std::cout << section.str() << ": measured=" << r.measured_loss
              << " analytic=" << analytic << " abs_error=" << abs_error
              << " tolerance=" << tolerance
              << (within ? " [within]" : " [OUTSIDE]")
              << " late_p90_ms=" << r.late_p90_seconds * 1e3 << std::endl;
  }
  std::cout << "wrote " << out << std::endl;
  if (args.has("check") && !check_serve_bench(out)) return 1;
  return all_within ? 0 : 1;
}

int run_farm(const upa::cli::Args& args) {
  upa::dispatch::FarmExperimentConfig config;
  config.replica.served_binary = args.get("served-bin", "");
  if (config.replica.served_binary.empty()) {
    std::cerr << "upa_loadgen: --mode farm requires --served-bin\n\n";
    print_usage(std::cerr);
    return 2;
  }
  config.replicas = args.get_size("replicas", 3);
  config.replica.workers = args.get_size("replica-workers", 1);
  config.replica.capacity = args.get_size("replica-capacity", 3);
  config.policy = upa::dispatch::parse_balance_policy(
      args.get("policy", "least-outstanding"));
  config.retry.max_attempts = args.get_size("retries", 3);
  // Defaults mirror FarmExperimentConfig: ~100 ms mean services so the
  // container's scheduling overhead stays small against the service
  // time (the M/M/i/K ratios only depend on lambda/nu).
  config.lambda = args.get_double("lambda", 20.0);
  config.nu = args.get_double("nu", 10.0);
  config.requests = args.get_size("requests", 500);
  config.seed = args.get_size("seed", 1);
  config.call_timeout_seconds = args.get_double("call-timeout", 5.0);
  config.health.probe_interval_seconds =
      args.get_double("probe-interval", 0.25);
  config.health.unhealthy_threshold =
      args.get_size("unhealthy-threshold", 1);
  const std::size_t kills = args.get_size("kills", 1);
  const double kill_at = args.get_double("kill-at", 6.0);
  const double kill_for = args.get_double("kill-for", 3.5);
  const double kill_every = args.get_double("kill-every", 6.0);
  const std::string out = args.get("out", "BENCH_farm.json");
  const std::string trace_csv = args.get("trace-csv", "");
  config.trace = args.has("trace") || !trace_csv.empty();
  config.anti_entropy_ms =
      static_cast<int>(args.get_size("anti-entropy-ms", 0));
  config.warm_points = args.get_size("warm-points", 16);

  // The kill schedule goes through an inject::FaultPlan -- the same
  // scripted-outage machinery the simulation campaigns replay -- with
  // plan hours mapped 1:3600 onto experiment seconds.
  upa::inject::FaultPlan plan;
  for (std::size_t j = 0; j < kills; ++j) {
    plan.add(upa::inject::FaultTarget::kWebFarm,
             (kill_at + static_cast<double>(j) * kill_every) / 3600.0,
             kill_for / 3600.0);
  }
  config.kills = upa::dispatch::kill_schedule_from_fault_plan(
      plan, config.replicas, 3600.0);

  const upa::dispatch::FarmExperimentResult r =
      upa::dispatch::run_farm_experiment(config);
  print_loss(r.loss);
  if (!trace_csv.empty()) write_loss_trace_csv(trace_csv, r.loss.request_log);
  if (config.trace) {
    std::cout << "trace: roots=" << r.traced_requests
              << " attempts=" << r.traced_attempts
              << " dropped=" << r.trace_dropped_spans
              << (r.trace_accounted ? " [accounted]"
                                    : " [UNACCOUNTED: " +
                                          r.trace_accounting_error + "]")
              << "\n";
  }
  if (config.anti_entropy_ms > 0) {
    std::cout << "anti-entropy: peer=" << r.warm_peer
              << " points=" << r.warm_points_computed
              << " rounds=" << r.anti_entropy_rounds
              << " pulled=" << r.anti_entropy_records_pulled
              << " warmed_hits=" << r.warmed_hits
              << (r.anti_entropy_ok
                      ? " [warm]"
                      : " [COLD: " + r.anti_entropy_error + "]")
              << "\n";
  }
  std::cout << "farm: replicas=" << config.replicas
            << " kills=" << r.kills_executed
            << " down_s=" << r.total_down_seconds
            << " lambda_f=" << r.failure_rate << " mu=" << r.repair_rate
            << " coverage=" << r.coverage
            << " beta=" << r.reconfiguration_rate << "\n"
            << "front: retries=" << r.front.retries
            << " failovers=" << r.front.failovers
            << " exhausted=" << r.front.retries_exhausted << "\n";
  for (const upa::dispatch::UpstreamSnapshot& u : r.upstreams) {
    std::cout << "upstream " << u.address.label()
              << ": healthy=" << (u.healthy ? 1 : 0)
              << " ok=" << u.ok << " rejected=" << u.rejected
              << " transport=" << u.transport
              << " probe_failures=" << u.probe_failures
              << " ejections=" << u.ejections
              << " readmissions=" << u.readmissions << "\n";
  }
  std::cout
            << "measured=" << r.measured_loss_fraction
            << " predicted_perfect=" << r.predicted_loss_perfect
            << " predicted_imperfect=" << r.predicted_loss_imperfect
            << " tolerance=" << r.tolerance
            << (r.within_tolerance ? " [within]" : " [OUTSIDE]")
            << std::endl;

  std::ostringstream section;
  section << "farm_failover_n" << config.replicas << "_kills"
          << r.kills_executed;
  upa::common::write_bench_json(
      out, section.str(),
      {{"replicas", static_cast<double>(config.replicas)},
       {"replica_workers", static_cast<double>(config.replica.workers)},
       {"replica_capacity",
        static_cast<double>(config.replica.capacity)},
       {"lambda", config.lambda},
       {"nu", config.nu},
       {"requests", static_cast<double>(r.loss.sent)},
       {"kills", static_cast<double>(r.kills_executed)},
       {"total_down_seconds", r.total_down_seconds},
       {"failure_rate", r.failure_rate},
       {"repair_rate", r.repair_rate},
       {"coverage", r.coverage},
       {"reconfiguration_rate", r.reconfiguration_rate},
       {"measured_loss", r.measured_loss_fraction},
       {"predicted_loss_perfect", r.predicted_loss_perfect},
       {"predicted_loss_imperfect", r.predicted_loss_imperfect},
       {"sigma", r.sigma},
       {"tolerance", r.tolerance},
       {"within_tolerance", r.within_tolerance ? 1.0 : 0.0},
       {"client_transport_errors",
        static_cast<double>(r.loss.transport_errors)},
       {"front_retries", static_cast<double>(r.front.retries)},
       {"front_failovers", static_cast<double>(r.front.failovers)},
       {"front_retries_exhausted",
        static_cast<double>(r.front.retries_exhausted)},
       {"wall_seconds", r.loss.wall_seconds},
       {"warm_peer", static_cast<double>(r.warm_peer)},
       {"warmed_hits", static_cast<double>(r.warmed_hits)},
       {"anti_entropy_ms", static_cast<double>(config.anti_entropy_ms)},
       {"anti_entropy_rounds", static_cast<double>(r.anti_entropy_rounds)},
       {"anti_entropy_records_pulled",
        static_cast<double>(r.anti_entropy_records_pulled)},
       {"anti_entropy_ok", r.anti_entropy_ok ? 1.0 : 0.0}});
  std::cout << "wrote " << out << std::endl;
  if (args.has("check") && !check_farm_bench(out)) return 1;

  // Budgeted retries must fully mask the kill: any client-visible
  // transport error is a failover bug, not workload noise.
  if (r.loss.transport_errors > 0) {
    std::cerr << "farm: " << r.loss.transport_errors
              << " client-visible transport errors (failover leak)\n";
    return 1;
  }
  // Traced runs additionally gate on span accounting: every issued
  // request must be a fully-attributed dispatch_request root.
  if (config.trace && !r.trace_accounted) {
    std::cerr << "farm: trace accounting failed: "
              << r.trace_accounting_error << "\n";
    return 1;
  }
  // Anti-entropy runs gate on the gossip path doing the warming: the
  // restarted replica pulled records and replayed the warm points as
  // hits. Zero warmed hits means the restart came back cold.
  if (config.anti_entropy_ms > 0 && !r.anti_entropy_ok) {
    std::cerr << "farm: anti-entropy warm restart failed: pulled="
              << r.anti_entropy_records_pulled
              << " warmed_hits=" << r.warmed_hits
              << " error=" << r.anti_entropy_error << "\n";
    return 1;
  }
  return r.within_tolerance ? 0 : 1;
}

void print_control_pass(const std::string& label,
                        const upa::control::ControlRunSummary& pass) {
  for (const upa::control::ControlPhaseOutcome& p : pass.phases) {
    std::cout << label << " " << p.name << ": lambda=" << p.lambda
              << " nu=" << p.nu << (p.faulted ? " [faulted]" : "")
              << " sent=" << p.requests << " rejected=" << p.rejected
              << " loss=" << p.measured_loss << " gate=" << p.gate
              << (p.within_gate ? " [within]" : " [OUTSIDE]")
              << " i=" << p.workers_after << " K=" << p.capacity_after
              << " transport=" << p.transport_errors << "\n";
  }
}

int run_control(const upa::cli::Args& args) {
  upa::control::ControlScenarioConfig config;
  config.scenario = args.get("scenario", "full");
  config.nu = args.get_double("nu", 12.0);
  config.target_loss = args.get_double("target-loss", 0.08);
  config.duration_scale = args.get_double("duration-scale", 1.0);
  config.seed = args.get_size("seed", 1);
  config.max_workers = args.get_size("max-workers", 8);
  config.max_capacity = args.get_size("max-capacity", 64);
  const std::string out = args.get("out", "BENCH_control.json");

  std::cout << "control scenario '" << config.scenario << "':";
  for (const upa::control::ControlPhase& p :
       upa::control::control_phases(config)) {
    std::cout << " " << p.name << "(lambda=" << p.lambda << ",nu=" << p.nu
              << "," << p.duration_seconds << "s)";
  }
  std::cout << std::endl;

  const upa::control::ControlExperimentResult r =
      upa::control::run_control_experiment(config);

  print_control_pass("controlled", r.controlled);
  print_control_pass("baseline", r.baseline);
  std::cout << "controller: ticks=" << r.controller.ticks
            << " applies=" << r.controller.applies
            << " retries=" << r.controller.apply_retries
            << " failures=" << r.controller.apply_failures
            << " final i=" << r.controller.workers
            << " K=" << r.controller.capacity << "\n"
            << "control_ok=" << (r.control_ok ? 1 : 0)
            << " baseline_violates=" << (r.baseline_violates ? 1 : 0)
            << std::endl;

  const auto pass_sections =
      [&out, &config](const std::string& label,
                      const upa::control::ControlRunSummary& pass) {
        for (const upa::control::ControlPhaseOutcome& p : pass.phases) {
          upa::common::write_bench_json(
              out, "control_" + label + "_" + p.name,
              {{"lambda", p.lambda},
               {"nu", p.nu},
               {"faulted", p.faulted ? 1.0 : 0.0},
               {"requests", static_cast<double>(p.requests)},
               {"rejected", static_cast<double>(p.rejected)},
               {"measured_loss", p.measured_loss},
               {"gate", p.gate},
               {"target_loss", config.target_loss},
               {"within_gate", p.within_gate ? 1.0 : 0.0},
               {"transport_errors",
                static_cast<double>(p.transport_errors)},
               {"workers_after", static_cast<double>(p.workers_after)},
               {"capacity_after",
                static_cast<double>(p.capacity_after)}});
        }
      };
  pass_sections("controlled", r.controlled);
  pass_sections("baseline", r.baseline);
  upa::common::write_bench_json(
      out, "control_summary",
      {{"target_loss", config.target_loss},
       {"control_ok", r.control_ok ? 1.0 : 0.0},
       {"baseline_violates", r.baseline_violates ? 1.0 : 0.0},
       {"controller_ticks", static_cast<double>(r.controller.ticks)},
       {"controller_applies", static_cast<double>(r.controller.applies)},
       {"controller_apply_retries",
        static_cast<double>(r.controller.apply_retries)},
       {"controller_apply_failures",
        static_cast<double>(r.controller.apply_failures)},
       {"controlled_transport_errors",
        static_cast<double>(r.controlled.transport_errors)}});
  std::cout << "wrote " << out << std::endl;
  if (args.has("check") && !check_control_bench(out)) return 1;

  // The loop must both hold the SLO (zero transport errors included:
  // grow/shrink under load may never kill a request) and be necessary
  // (the trough-sized baseline breaks without it).
  if (!r.control_ok) {
    std::cerr << "control: controlled run failed its gates\n";
    return 1;
  }
  if (!r.baseline_violates) {
    std::cerr << "control: baseline unexpectedly held every gate -- the\n"
                 "scenario is not stressing the controller\n";
    return 1;
  }
  return 0;
}

const std::vector<std::string> kCommonOptions = {"mode", "seed"};

std::vector<std::string> allowed_for_mode(const std::string& mode) {
  std::vector<std::string> allowed = kCommonOptions;
  const auto extend = [&allowed](std::initializer_list<const char*> more) {
    for (const char* name : more) allowed.emplace_back(name);
  };
  if (mode == "smoke") {
    extend({"host", "port"});
  } else if (mode == "loss") {
    extend({"host", "port", "lambda", "nu", "requests", "workers",
            "capacity", "connect-timeout", "call-timeout", "trace",
            "trace-csv"});
  } else if (mode == "session") {
    extend({"host", "port", "sessions", "session-rate", "class",
            "connect-timeout", "call-timeout", "trace", "trace-csv"});
  } else if (mode == "bench") {
    extend({"out", "check"});
  } else if (mode == "farm") {
    extend({"served-bin", "replicas", "replica-workers",
            "replica-capacity", "policy", "retries", "lambda", "nu",
            "requests", "call-timeout", "probe-interval",
            "unhealthy-threshold", "kills", "kill-at", "kill-for",
            "kill-every", "out", "trace", "trace-csv", "warm-points",
            "anti-entropy-ms", "check"});
  } else if (mode == "control") {
    extend({"scenario", "nu", "target-loss", "duration-scale",
            "max-workers", "max-capacity", "out", "check"});
  }
  return allowed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace upa;

  cli::Args args(argc, argv);
  if (args.has("help") || args.command() == "help") {
    print_usage(std::cout);
    return 0;
  }
  if (!args.command().empty()) {
    std::cerr << "upa_loadgen: unexpected positional argument '"
              << args.command() << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    const std::string mode = args.get("mode", "");
    if (mode != "smoke" && mode != "loss" && mode != "session" &&
        mode != "bench" && mode != "farm" && mode != "control") {
      std::cerr << "upa_loadgen: --mode must be smoke | loss | session | "
                   "bench | farm | control\n\n";
      print_usage(std::cerr);
      return 2;
    }
    // Allowlist check before any side effects: a typo'd flag must not
    // start servers, spawn replicas, or write artifacts.
    if (const int rc = validate_options(args, allowed_for_mode(mode));
        rc != 0) {
      return rc;
    }

    if (mode == "smoke") return run_smoke(args);
    if (mode == "loss") return run_loss(args);
    if (mode == "session") return run_session(args);
    if (mode == "bench") return run_bench(args);
    if (mode == "control") return run_control(args);
    return run_farm(args);
  } catch (const std::exception& e) {
    std::cerr << "upa_loadgen: " << e.what() << "\n";
    return 1;
  }
}
