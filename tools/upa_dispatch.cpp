// upa_dispatch: health-checked, retrying front end for a farm of
// upa_served replicas.
//
// Hosts upa::dispatch::Front -- same newline-delimited JSON RPC wire
// protocol as upa_served, fanned out over --upstreams with a pluggable
// balancing policy, active ping health checks, and bounded failover
// retries -- until SIGINT/SIGTERM, then drains and prints per-upstream
// counters. See docs/modeling-guide.md ("Serving & load generation").

#include <csignal>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "upa/cli/args.hpp"
#include "upa/common/error.hpp"
#include "upa/dispatch/front.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void on_signal(int) { g_stop_requested = 1; }

void print_usage(std::ostream& os) {
  os << "usage: upa_dispatch --upstreams HOST:PORT[,HOST:PORT...] "
        "[options]\n"
        "\n"
        "Front end for N upa_served replicas: forwards each request line\n"
        "verbatim to one upstream, retries 503/504/transport failures on\n"
        "a different replica (bounded budget, exponential backoff +\n"
        "jitter), and ejects/readmits upstreams via periodic ping\n"
        "probes. Serves `dispatch_stats` locally; everything else is\n"
        "forwarded byte-for-byte. SIGINT/SIGTERM drains and exits 0.\n"
        "\n"
        "options:\n"
        "  --upstreams LIST        comma-separated host:port replicas\n"
        "                          (required)\n"
        "  --bind ADDR             bind address     (default 127.0.0.1)\n"
        "  --port N                TCP port, 0 = ephemeral (default 7070)\n"
        "  --policy NAME           round-robin | least-outstanding |\n"
        "                          consistent-hash (default\n"
        "                          least-outstanding)\n"
        "  --workers N             forwarding threads (default 16)\n"
        "  --max-clients N         admitted client connections\n"
        "                          (default 256)\n"
        "  --read-timeout S        client idle timeout (default 10)\n"
        "  --connect-timeout S     per-attempt upstream connect timeout\n"
        "                          (default 1)\n"
        "  --call-timeout S        per-attempt upstream response timeout\n"
        "                          (default 10)\n"
        "  --retries N             attempt budget per request, first try\n"
        "                          included (default 3)\n"
        "  --backoff-ms MS         initial retry backoff (default 5)\n"
        "  --backoff-max-ms MS     backoff ceiling (default 50)\n"
        "  --jitter F              backoff jitter fraction in [0,1]\n"
        "                          (default 0.5)\n"
        "  --probe-interval S      health probe period (default 0.2)\n"
        "  --probe-timeout S       health probe timeout (default 1)\n"
        "  --unhealthy-threshold N consecutive probe failures to eject\n"
        "                          (default 2)\n"
        "  --healthy-threshold N   consecutive probe successes to\n"
        "                          readmit (default 1)\n"
        "  --trace                 record dispatch_request/attempt spans\n"
        "                          and propagate trace contexts upstream\n"
        "  --process NAME          telemetry process label\n"
        "                          (default upa_dispatch:<port>)\n"
        "  --help                  this text\n";
}

const std::vector<std::string> kAllowedOptions = {
    "upstreams",       "bind",
    "port",            "policy",
    "workers",         "max-clients",
    "read-timeout",    "connect-timeout",
    "call-timeout",    "retries",
    "backoff-ms",      "backoff-max-ms",
    "jitter",          "probe-interval",
    "probe-timeout",   "unhealthy-threshold",
    "healthy-threshold", "trace",
    "process",
};

}  // namespace

int main(int argc, char** argv) {
  using namespace upa;

  cli::Args args(argc, argv);
  if (args.has("help") || args.command() == "help") {
    print_usage(std::cout);
    return 0;
  }
  if (!args.command().empty()) {
    std::cerr << "upa_dispatch: unexpected positional argument '"
              << args.command() << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }
  // Allowlist check before any side effects: a typo'd flag must not
  // bind a port or start probing upstreams.
  const std::vector<std::string> unknown =
      cli::unknown_options(args, kAllowedOptions);
  if (!unknown.empty()) {
    std::cerr << "upa_dispatch: unknown option '--" << unknown.front()
              << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    dispatch::FrontConfig config;
    const std::string upstreams = args.get("upstreams", "");
    if (upstreams.empty()) {
      std::cerr << "upa_dispatch: --upstreams is required\n\n";
      print_usage(std::cerr);
      return 2;
    }
    config.upstreams = dispatch::parse_upstream_list(upstreams);
    config.bind_address = args.get("bind", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(args.get_size("port", 7070));
    config.policy =
        dispatch::parse_balance_policy(args.get("policy",
                                                "least-outstanding"));
    config.workers = args.get_size("workers", 16);
    config.max_clients = args.get_size("max-clients", 256);
    config.read_timeout_seconds = args.get_double("read-timeout", 10.0);
    config.upstream_connect_timeout_seconds =
        args.get_double("connect-timeout", 1.0);
    config.upstream_call_timeout_seconds =
        args.get_double("call-timeout", 10.0);
    config.retry.max_attempts = args.get_size("retries", 3);
    config.retry.backoff_initial_seconds =
        args.get_double("backoff-ms", 5.0) / 1000.0;
    config.retry.backoff_max_seconds =
        args.get_double("backoff-max-ms", 50.0) / 1000.0;
    config.retry.jitter = args.get_double("jitter", 0.5);
    config.health.probe_interval_seconds =
        args.get_double("probe-interval", 0.2);
    config.health.probe_timeout_seconds =
        args.get_double("probe-timeout", 1.0);
    config.health.unhealthy_threshold =
        args.get_size("unhealthy-threshold", 2);
    config.health.healthy_threshold = args.get_size("healthy-threshold", 1);
    config.trace = args.has("trace");
    config.telemetry_process = args.get("process", "");

    dispatch::Front front(std::move(config));
    front.start();

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::cout << "upa_dispatch listening on "
              << front.config().bind_address << ":" << front.port()
              << " (policy=" << balance_policy_name(front.config().policy)
              << ", upstreams=" << front.config().upstreams.size()
              << ", retries=" << front.config().retry.max_attempts << ")"
              << std::endl;

    while (g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    std::cout << "upa_dispatch: draining..." << std::endl;
    front.stop();

    const dispatch::FrontStats stats = front.stats();
    std::cout << "upa_dispatch: done. requests=" << stats.requests
              << " ok=" << stats.forwarded_ok
              << " rejected=" << stats.forwarded_rejected
              << " deadline=" << stats.forwarded_deadline
              << " error=" << stats.forwarded_error
              << " transport=" << stats.forwarded_transport
              << " retries=" << stats.retries
              << " failovers=" << stats.failovers
              << " exhausted=" << stats.retries_exhausted << std::endl;
    for (const dispatch::UpstreamSnapshot& u : front.upstreams()) {
      std::cout << "upstream " << u.address.label()
                << (u.healthy ? " [healthy]" : " [ejected]")
                << " attempts=" << u.attempts << " ok=" << u.ok
                << " rejected=" << u.rejected
                << " transport=" << u.transport
                << " ejections=" << u.ejections
                << " readmissions=" << u.readmissions << std::endl;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "upa_dispatch: " << e.what() << "\n";
    return 1;
  }
}
