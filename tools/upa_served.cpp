// upa_served: the travel-agency evaluation service daemon.
//
// Hosts upa::serve::Server -- newline-delimited JSON RPC over TCP with
// explicit M/M/i/K admission control (--workers = i, --capacity = K) --
// until SIGINT/SIGTERM, then drains gracefully and prints a counter
// summary. See docs/modeling-guide.md ("Serving & load generation") for
// the wire protocol; upa_loadgen is the matching client.

#include <csignal>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/cli/args.hpp"
#include "upa/common/error.hpp"
#include "upa/serve/anti_entropy.hpp"
#include "upa/serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void on_signal(int) { g_stop_requested = 1; }

void print_usage(std::ostream& os) {
  os << "usage: upa_served [options]\n"
        "\n"
        "Serves the travel-agency evaluators as newline-delimited JSON\n"
        "RPC over TCP. Request handling is the paper's M/M/i/K model:\n"
        "--workers threads (i) drain one bounded queue and --capacity (K)\n"
        "bounds the requests in the system; a request line that finds K\n"
        "gets an immediate 503 envelope and its connection stays open.\n"
        "Idle keep-alive connections hold no slot. SIGINT/SIGTERM drains\n"
        "and exits 0.\n"
        "\n"
        "options:\n"
        "  --bind ADDR        bind address        (default 127.0.0.1)\n"
        "  --port N           TCP port, 0 = ephemeral (default 7077)\n"
        "  --workers N        worker threads, the model's i (default 2)\n"
        "  --capacity N       requests queued + in service, the model's\n"
        "                     K; must be >= workers (default 8)\n"
        "  --deadline-ms N    per-request deadline from admission,\n"
        "                     0 = off (default 0)\n"
        "  --read-timeout S   close a connection idle this long between\n"
        "                     requests, or leaving a response unread\n"
        "                     this long (default 10)\n"
        "  --cache MODE       evaluation cache: on | off (default on)\n"
        "  --cache-dir DIR    persistent cache tier: pre-warm from DIR's\n"
        "                     segments at startup and write-behind new\n"
        "                     results there (requires --cache on)\n"
        "  --cache-compact-ms N  background compaction sweep interval for\n"
        "                     --cache-dir segments, 0 = off (default 0)\n"
        "  --peers LIST       comma-separated host:port peer replicas for\n"
        "                     anti-entropy warm-set exchange\n"
        "  --anti-entropy-ms N  anti-entropy round interval; every round\n"
        "                     pulls the records a peer has and this\n"
        "                     replica lacks, 0 = off (default 0;\n"
        "                     requires --peers and --cache on)\n"
        "  --trace            record per-request server-side spans\n"
        "                     (serve_request + queue_wait/handler/\n"
        "                     serialize phases) for the subscribe stream\n"
        "  --process NAME     telemetry process label\n"
        "                     (default upa_served:<port>)\n"
        "  --help             this text\n"
        "\n"
        "methods: ping sleep steady_state mmck_metrics\n"
        "         web_farm_availability composite_availability\n"
        "         user_availability run_campaign simulate_end_to_end\n"
        "         cache stats subscribe reconfigure\n"
        "\n"
        "The `reconfigure` RPC retargets --workers/--capacity at runtime\n"
        "(drain-aware shrink; K swaps atomically at admission). upa_ctl\n"
        "drives it as a closed loop from the telemetry stream.\n";
}

const std::vector<std::string> kAllowedOptions = {
    "bind",        "port",         "workers",   "capacity",
    "deadline-ms", "read-timeout", "cache",     "cache-dir",
    "trace",       "process",      "peers",     "anti-entropy-ms",
    "cache-compact-ms",
};

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= list.size()) {
    const std::size_t comma = list.find(',', at);
    const std::string item =
        list.substr(at, comma == std::string::npos ? comma : comma - at);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
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
    std::cerr << "upa_served: unexpected positional argument '"
              << args.command() << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }
  // Allowlist check before any side effects: a typo'd flag must not
  // toggle the cache or bind a port.
  const std::vector<std::string> unknown =
      cli::unknown_options(args, kAllowedOptions);
  if (!unknown.empty()) {
    std::cerr << "upa_served: unknown option '--" << unknown.front()
              << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }

  try {
    serve::ServerConfig config;
    config.bind_address = args.get("bind", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(args.get_size("port", 7077));
    config.workers = args.get_size("workers", 2);
    config.capacity = args.get_size("capacity", 8);
    config.deadline_seconds = args.get_double("deadline-ms", 0.0) / 1000.0;
    config.read_timeout_seconds = args.get_double("read-timeout", 10.0);
    config.trace = args.has("trace");
    config.telemetry_process = args.get("process", "");
    const std::string cache_mode = args.get("cache", "on");
    UPA_REQUIRE(cache_mode == "on" || cache_mode == "off",
                "--cache must be 'on' or 'off'");
    const std::string cache_dir = args.get("cache-dir", "");
    UPA_REQUIRE(cache_dir.empty() || cache_mode == "on",
                "--cache-dir requires --cache on");

    const std::vector<std::string> peers = split_csv(args.get("peers", ""));
    const double anti_entropy_ms = args.get_double("anti-entropy-ms", 0.0);
    const double compact_ms = args.get_double("cache-compact-ms", 0.0);
    UPA_REQUIRE(anti_entropy_ms <= 0.0 || !peers.empty(),
                "--anti-entropy-ms requires --peers");
    UPA_REQUIRE((anti_entropy_ms <= 0.0 && peers.empty()) ||
                    cache_mode == "on",
                "--peers/--anti-entropy-ms require --cache on");
    UPA_REQUIRE(compact_ms <= 0.0 || !cache_dir.empty(),
                "--cache-compact-ms requires --cache-dir");

    cache::set_enabled(cache_mode == "on");
    if (!cache_dir.empty()) {
      cache::PersistentCache& tier = cache::attach_global_persistence(cache_dir);
      if (compact_ms > 0.0) {
        tier.start_maintenance(
            std::chrono::milliseconds(static_cast<long>(compact_ms)));
      }
    }
    serve::Server server(std::move(config));
    server.start();

    // Anti-entropy starts after the server is up so a peer's concurrent
    // pull against US succeeds from the first round.
    std::unique_ptr<serve::AntiEntropyAgent> anti_entropy;
    if (anti_entropy_ms > 0.0) {
      serve::AntiEntropyConfig ae;
      ae.peers = peers;
      ae.interval =
          std::chrono::milliseconds(static_cast<long>(anti_entropy_ms));
      anti_entropy = std::make_unique<serve::AntiEntropyAgent>(ae);
      serve::set_global_anti_entropy(anti_entropy.get());
      anti_entropy->start();
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::cout << "upa_served listening on " << server.config().bind_address
              << ":" << server.port() << " (workers=i="
              << server.config().workers << ", capacity=K="
              << server.config().capacity << ", cache=" << cache_mode
              << ")" << std::endl;

    while (g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    std::cout << "upa_served: draining..." << std::endl;
    if (anti_entropy != nullptr) {
      serve::set_global_anti_entropy(nullptr);
      anti_entropy->stop();
      const serve::AntiEntropyStats as = anti_entropy->stats();
      std::cout << "anti-entropy: rounds=" << as.rounds
                << " pulls_ok=" << as.pulls_ok
                << " pull_errors=" << as.pull_errors
                << " records_pulled=" << as.records_pulled
                << " converged=" << as.rounds_converged
                << " pages=" << as.pages_pulled << std::endl;
    }
    server.stop();

    const serve::ServerStats stats = server.stats();
    std::cout << "upa_served: done. accepted=" << stats.accepted
              << " admitted=" << stats.admitted
              << " rejected=" << stats.rejected
              << " completed=" << stats.completed
              << " requests=" << stats.requests
              << " deadline_missed=" << stats.deadline_missed
              << " protocol_errors=" << stats.protocol_errors
              << " max_in_system=" << stats.max_in_system << std::endl;

    const cache::CacheStats cs = cache::global().stats();
    if (cs.lookups() > 0) {
      std::cout << "cache: lookups=" << cs.lookups() << " hits=" << cs.hits
                << " hit_rate=" << cs.hit_rate() << std::endl;
    }
    if (const cache::PersistentCache* p = cache::global_persistence()) {
      const cache::PersistStats ps = p->stats();
      std::cout << "cache persistence: segments_loaded="
                << ps.segments_loaded << " records_replayed="
                << ps.records_replayed << " records_appended="
                << ps.records_appended << " crc_skipped="
                << ps.records_skipped_crc << std::endl;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "upa_served: " << e.what() << "\n";
    return 1;
  }
}
