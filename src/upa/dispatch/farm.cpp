#include "upa/dispatch/farm.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "upa/common/error.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/obs/trace.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/json.hpp"

namespace upa::dispatch {

namespace {

/// How long to wait for a freshly spawned replica to print its
/// listening line before declaring the spawn failed.
constexpr int kSpawnTimeoutMillis = 10000;

/// Extracts "host:port" from upa_served's startup line
/// ("upa_served listening on 127.0.0.1:7077 (workers=i=...").
bool parse_listening_line(const std::string& line, UpstreamAddress& out) {
  const std::string marker = "listening on ";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) return false;
  std::size_t end = at + marker.size();
  while (end < line.size() && line[end] != ' ') ++end;
  try {
    out = parse_upstream_address(
        line.substr(at + marker.size(), end - (at + marker.size())));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

FarmOrchestrator::FarmOrchestrator(ReplicaConfig config, std::size_t replicas)
    : config_(std::move(config)), replicas_(replicas) {
  UPA_REQUIRE(!config_.served_binary.empty(),
              "ReplicaConfig.served_binary must be set");
  UPA_REQUIRE(replicas >= 1, "farm needs at least one replica");
  UPA_REQUIRE(config_.workers >= 1 && config_.capacity >= config_.workers,
              "replica needs workers >= 1 and capacity >= workers");
}

FarmOrchestrator::~FarmOrchestrator() { stop_all(); }

void FarmOrchestrator::spawn(std::size_t index, std::uint16_t port) {
  Replica& replica = replicas_.at(index);
  UPA_REQUIRE(replica.pid < 0, "replica is already running");

  int pipe_fds[2];
  UPA_REQUIRE(::pipe2(pipe_fds, O_CLOEXEC) == 0,
              std::string("pipe2() failed: ") + std::strerror(errno));

  std::vector<std::string> argv_storage = {
      config_.served_binary,
      "--bind", config_.host,
      "--port", std::to_string(port),
      "--workers", std::to_string(config_.workers),
      "--capacity", std::to_string(config_.capacity),
      "--read-timeout", std::to_string(config_.read_timeout_seconds),
  };
  argv_storage.insert(argv_storage.end(), replica.extra_args.begin(),
                      replica.extra_args.end());
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  UPA_REQUIRE(pid >= 0, std::string("fork() failed: ") +
                            std::strerror(errno));
  if (pid == 0) {
    // Child: only async-signal-safe calls between fork and exec (the
    // parent is multithreaded). dup2 clears O_CLOEXEC on the stdout
    // copy; everything above stderr is then closed explicitly. Replica
    // RESTARTS fork while the experiment has live loopback connections
    // (loadgen <-> front <-> replicas); an inherited duplicate of any
    // of those sockets would outlive the original's close, so peers
    // would never see EOF and their workers would block out the read
    // timeout holding admission slots -- poisoning the whole farm
    // after the first restart. CLOEXEC on every socket plus this sweep
    // keeps the child's fd table down to stdin/stdout/stderr.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
#ifdef SYS_close_range
    ::syscall(SYS_close_range, 3u, ~0u, 0u);
#else
    for (int fd = 3; fd < 4096; ++fd) ::close(fd);
#endif
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);

  // Read the child's stdout until the listening line appears; the pipe
  // stays open afterwards (upa_served prints a short drain summary on
  // exit, far below the pipe buffer, so the child never blocks on it).
  std::string buffer;
  UpstreamAddress address;
  bool found = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kSpawnTimeoutMillis);
  while (!found) {
    const auto remaining = std::chrono::duration_cast<
        std::chrono::milliseconds>(deadline -
                                   std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{};
    pfd.fd = pipe_fds[0];
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready <= 0) {
      if (ready < 0 && errno == EINTR) continue;
      break;
    }
    char chunk[512];
    const ssize_t n = ::read(pipe_fds[0], chunk, sizeof chunk);
    if (n <= 0) break;  // child died before printing
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos; nl = buffer.find('\n', start)) {
      if (parse_listening_line(buffer.substr(start, nl - start), address)) {
        found = true;
        break;
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  if (!found) {
    ::close(pipe_fds[0]);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    throw common::ModelError(
        "replica " + std::to_string(index) + " (" + config_.served_binary +
        ") never printed its listening line");
  }
  replica.pid = pid;
  replica.stdout_fd = pipe_fds[0];
  replica.address = address;
}

void FarmOrchestrator::start_all() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) spawn(i, 0);
}

void FarmOrchestrator::kill_replica(std::size_t index) {
  Replica& replica = replicas_.at(index);
  UPA_REQUIRE(replica.pid >= 0, "replica is not running");
  ::kill(replica.pid, SIGKILL);
  int status = 0;
  ::waitpid(replica.pid, &status, 0);
  ::close(replica.stdout_fd);
  replica.pid = -1;
  replica.stdout_fd = -1;
}

void FarmOrchestrator::set_restart_extra_args(
    std::size_t index, std::vector<std::string> extra_args) {
  replicas_.at(index).extra_args = std::move(extra_args);
}

void FarmOrchestrator::restart_replica(std::size_t index) {
  const Replica& replica = replicas_.at(index);
  UPA_REQUIRE(replica.pid < 0, "replica is still running");
  UPA_REQUIRE(replica.address.port != 0,
              "replica was never started; call start_all first");
  spawn(index, replica.address.port);
}

void FarmOrchestrator::stop_all() {
  for (Replica& replica : replicas_) {
    if (replica.pid < 0) continue;
    ::kill(replica.pid, SIGKILL);
    int status = 0;
    ::waitpid(replica.pid, &status, 0);
    ::close(replica.stdout_fd);
    replica.pid = -1;
    replica.stdout_fd = -1;
  }
}

bool FarmOrchestrator::alive(std::size_t index) const {
  return replicas_.at(index).pid >= 0;
}

std::vector<UpstreamAddress> FarmOrchestrator::addresses() const {
  std::vector<UpstreamAddress> out;
  out.reserve(replicas_.size());
  for (const Replica& replica : replicas_) {
    UPA_REQUIRE(replica.address.port != 0,
                "replica addresses are known only after start_all");
    out.push_back(replica.address);
  }
  return out;
}

std::vector<KillEvent> kill_schedule_from_fault_plan(
    const inject::FaultPlan& plan, std::size_t replicas,
    double seconds_per_hour) {
  UPA_REQUIRE(replicas >= 1, "kill schedule needs at least one replica");
  UPA_REQUIRE(seconds_per_hour > 0.0 && std::isfinite(seconds_per_hour),
              "seconds_per_hour must be positive and finite");
  const auto windows = plan.merged_windows(inject::FaultTarget::kWebFarm);
  UPA_REQUIRE(!windows.empty(),
              "FaultPlan has no web-farm windows to replay");
  std::vector<KillEvent> out;
  out.reserve(windows.size());
  double previous_end = -1.0;
  for (std::size_t j = 0; j < windows.size(); ++j) {
    KillEvent event;
    event.replica = j % replicas;
    event.down_at_seconds = windows[j].first * seconds_per_hour;
    event.up_at_seconds = windows[j].second * seconds_per_hour;
    UPA_REQUIRE(event.down_at_seconds > previous_end,
                "scaled kill windows overlap; the analytic mapping "
                "assumes one replica down at a time");
    previous_end = event.up_at_seconds;
    out.push_back(event);
  }
  return out;
}

namespace {

/// Farm-level loss with i of N replicas operational: the retrying
/// dispatcher makes i replicas of w workers / K_r capacity behave as
/// the pooled M/M/(i*w)/(i*K_r) queue (a rejected attempt retries on a
/// sibling, which is exactly the pooled-buffer approximation). Zero
/// operational replicas lose everything.
double pooled_loss(const FarmExperimentConfig& config, std::size_t i) {
  if (i == 0) return 1.0;
  return queueing::mmck_loss_probability(
      config.lambda, config.nu, i * config.replica.workers,
      i * config.replica.capacity);
}

/// The k-th warm design point: a distinct M/M/c/K configuration whose
/// mmck_metrics solve populates the replica's evaluation cache (the
/// loss workload itself uses the uncached `sleep` method, so cache
/// contents come only from these).
serve::Json warm_point_params(std::size_t k) {
  serve::Json params = serve::Json::object();
  params.set("alpha", serve::Json(40.0 + static_cast<double>(k)));
  params.set("nu", serve::Json(90.0));
  params.set("servers", serve::Json(std::size_t{4}));
  params.set("capacity", serve::Json(std::size_t{16}));
  return params;
}

/// Evaluates `count` warm design points against one replica; returns
/// how many succeeded. Throws ModelError on connect failure.
std::uint64_t issue_warm_points(const UpstreamAddress& address,
                                std::size_t count, double timeout) {
  serve::Client client;
  client.connect(address.host, address.port, timeout, timeout);
  std::uint64_t ok = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const serve::CallResult result =
        client.call("mmck_metrics", warm_point_params(k), k + 1);
    if (result.ok()) ++ok;
  }
  return ok;
}

/// Anti-entropy convergence probe: polls the restarted replica's
/// `cache stats` until its agent reports nonzero records_pulled, every
/// 250 ms for up to 10 s (the probe races the restart and the open-loop
/// workload for the replica's bounded admission queue). Returns
/// {rounds, records_pulled}; throws once the budget is spent.
std::pair<std::uint64_t, std::uint64_t> await_anti_entropy_pull(
    const UpstreamAddress& replica, double timeout) {
  constexpr int attempts = 40;
  constexpr int interval_ms = 250;
  std::string last_error = "never connected";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    try {
      serve::Client client;
      client.connect(replica.host, replica.port, timeout, timeout);
      serve::Json params = serve::Json::object();
      params.set("op", serve::Json("stats"));
      const serve::CallResult reply =
          client.call("cache", std::move(params), 1);
      UPA_REQUIRE(reply.ok(), "cache stats failed: " + reply.error_message);
      const serve::Json* result = reply.result();
      const serve::Json* anti =
          result != nullptr ? result->find("anti_entropy") : nullptr;
      UPA_REQUIRE(anti != nullptr,
                  "replica reports no anti_entropy block (agent not "
                  "running?)");
      const serve::Json* pulled = anti->find("records_pulled");
      const serve::Json* rounds = anti->find("rounds");
      UPA_REQUIRE(pulled != nullptr && rounds != nullptr,
                  "anti_entropy block lacks records_pulled/rounds");
      if (pulled->as_number() > 0.0) {
        return {static_cast<std::uint64_t>(rounds->as_number()),
                static_cast<std::uint64_t>(pulled->as_number())};
      }
      last_error = "agent running, no records pulled yet";
    } catch (const std::exception& error) {
      last_error = error.what();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  throw common::ModelError("anti-entropy never converged after " +
                           std::to_string(attempts) +
                           " probes: " + last_error);
}

}  // namespace

FarmExperimentResult run_farm_experiment(const FarmExperimentConfig& config) {
  UPA_REQUIRE(config.requests > 0, "experiment needs requests > 0");
  UPA_REQUIRE(config.lambda > 0.0 && config.nu > 0.0,
              "experiment rates must be positive");
  for (const KillEvent& kill : config.kills) {
    UPA_REQUIRE(kill.replica < config.replicas,
                "kill event targets a replica outside the farm");
    UPA_REQUIRE(kill.up_at_seconds > kill.down_at_seconds &&
                    kill.down_at_seconds >= 0.0,
                "kill window must have positive duration");
  }

  // The warm peer is one replica the schedule never kills, so every
  // restarted replica has a live sibling holding the warm set.
  const bool warm = config.anti_entropy_ms > 0 && !config.kills.empty();
  std::size_t warm_peer = 0;
  if (warm) {
    UPA_REQUIRE(config.warm_points >= 1,
                "anti-entropy warm restart needs warm_points >= 1");
    std::vector<bool> killed(config.replicas, false);
    for (const KillEvent& kill : config.kills) killed[kill.replica] = true;
    bool found = false;
    for (std::size_t i = 0; i < config.replicas; ++i) {
      if (!killed[i]) {
        warm_peer = i;
        found = true;
        break;
      }
    }
    UPA_REQUIRE(found, "anti-entropy warm restart needs one replica "
                       "outside the kill schedule");
  }

  FarmOrchestrator farm(config.replica, config.replicas);
  farm.start_all();

  // Ports are fixed after start_all (restarts reuse them), so this
  // snapshot stays valid for the killer thread's probes.
  const std::vector<UpstreamAddress> addresses = farm.addresses();
  const double warm_timeout = std::max(config.call_timeout_seconds, 1.0);

  // Every replica that restarts comes back with the sibling port map
  // and a gossip interval -- it re-warms ITSELF. The peer list can only
  // be built now, after the ephemeral ports are known, which is why it
  // rides on restart args instead of the first spawn.
  if (warm) {
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      std::string peers;
      for (std::size_t j = 0; j < addresses.size(); ++j) {
        if (j == i) continue;
        if (!peers.empty()) peers += ',';
        peers += addresses[j].host + ':' + std::to_string(addresses[j].port);
      }
      farm.set_restart_extra_args(
          i, {"--peers", peers, "--anti-entropy-ms",
              std::to_string(config.anti_entropy_ms)});
    }
  }

  // Warm-restart state shared with the killer thread; it is only read
  // back after the thread is joined.
  std::string warm_error;
  std::uint64_t warm_points_computed = 0;
  std::uint64_t anti_rounds = 0;
  std::uint64_t anti_pulled = 0;
  if (warm) {
    try {
      warm_points_computed = issue_warm_points(
          addresses[warm_peer], config.warm_points, warm_timeout);
    } catch (const std::exception& e) {
      warm_error = std::string("pre-warm failed: ") + e.what();
    }
  }

  FrontConfig front_config;
  front_config.upstreams = farm.addresses();
  front_config.policy = config.policy;
  front_config.retry = config.retry;
  front_config.health = config.health;
  front_config.upstream_call_timeout_seconds =
      std::max(config.call_timeout_seconds, 1.0);
  front_config.trace = config.trace;
  Front front(std::move(front_config));
  front.start();

  // The kill scheduler shares the workload's epoch: it starts with the
  // first arrival (both threads anchor on `epoch` below).
  const auto epoch = std::chrono::steady_clock::now();
  std::thread killer([&] {
    for (const KillEvent& kill : config.kills) {
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(kill.down_at_seconds)));
      farm.kill_replica(kill.replica);
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(kill.up_at_seconds)));
      farm.restart_replica(kill.replica);
      // Warm restart: the orchestrator drives NOTHING -- the restarted
      // replica gossips the warm set in itself; we only poll until its
      // pull counter moves.
      if (warm && warm_error.empty()) {
        try {
          const auto [rounds, pulled] =
              await_anti_entropy_pull(addresses[kill.replica], warm_timeout);
          anti_rounds = rounds;
          anti_pulled += pulled;
        } catch (const std::exception& e) {
          warm_error = std::string("anti-entropy pull failed: ") + e.what();
        }
      }
    }
  });

  FarmExperimentResult result;
  try {
    serve::LossConfig loss_config;
    loss_config.host = front.config().bind_address;
    loss_config.port = front.port();
    loss_config.lambda = config.lambda;
    loss_config.nu = config.nu;
    loss_config.requests = config.requests;
    loss_config.seed = config.seed;
    loss_config.call_timeout_seconds = config.call_timeout_seconds;
    loss_config.trace = config.trace;
    result.loss = serve::run_loss_workload(loss_config);
  } catch (...) {
    killer.join();
    front.stop();
    farm.stop_all();
    throw;
  }
  killer.join();
  if (warm) {
    result.warm_peer = warm_peer;
    result.warm_points_computed = warm_points_computed;
    if (warm_error.empty()) {
      // Re-issue the warm design points against the restarted replica:
      // with the pulled warm set in place they replay as pure cache hits
      // (its own stats window is reset first, and the loss workload's
      // `sleep` calls never touch the cache).
      try {
        const std::size_t restarted = config.kills.front().replica;
        serve::Client client;
        client.connect(addresses[restarted].host,
                       addresses[restarted].port, warm_timeout,
                       warm_timeout);
        serve::Json reset = serve::Json::object();
        reset.set("op", serve::Json("reset_stats"));
        const serve::CallResult r = client.call("cache", std::move(reset), 1);
        UPA_REQUIRE(r.ok(), "cache reset_stats failed: " + r.error_message);
        for (std::size_t k = 0; k < config.warm_points; ++k) {
          const serve::CallResult point =
              client.call("mmck_metrics", warm_point_params(k), k + 2);
          UPA_REQUIRE(point.ok(), "post-run design point failed: " +
                                      point.error_message);
        }
        serve::Json stats_params = serve::Json::object();
        stats_params.set("op", serve::Json("stats"));
        const serve::CallResult stats =
            client.call("cache", std::move(stats_params),
                        config.warm_points + 2);
        UPA_REQUIRE(stats.ok(),
                    "cache stats failed: " + stats.error_message);
        const serve::Json* stats_result = stats.result();
        const serve::Json* hits = stats_result != nullptr
                                      ? stats_result->find("hits")
                                      : nullptr;
        UPA_REQUIRE(hits != nullptr, "cache stats response lacks hits");
        result.warmed_hits =
            static_cast<std::uint64_t>(hits->as_number());
      } catch (const std::exception& e) {
        warm_error = std::string("warm verification failed: ") + e.what();
      }
    }
    result.anti_entropy_error = warm_error;
    result.anti_entropy_rounds = anti_rounds;
    result.anti_entropy_records_pulled = anti_pulled;
    result.anti_entropy_ok =
        warm_error.empty() && anti_pulled > 0 && result.warmed_hits > 0;
  }
  result.front = front.stats();
  result.upstreams = front.upstreams();
  front.stop();
  farm.stop_all();

  if (config.trace) {
    result.trace_dropped_spans = front.dropped_spans();
    const std::vector<obs::Span> spans = front.spans();
    const auto text_attr = [](const obs::Span& span,
                              const std::string& key) -> std::string {
      for (const obs::SpanAttribute& a : span.attributes) {
        if (a.key == key && !a.is_number) return a.text;
      }
      return {};
    };
    const auto number_attr = [](const obs::Span& span,
                                const std::string& key) -> double {
      for (const obs::SpanAttribute& a : span.attributes) {
        if (a.key == key && a.is_number) return a.number;
      }
      return -1.0;
    };
    std::map<obs::SpanId, std::size_t> children;
    std::vector<const obs::Span*> roots;
    for (const obs::Span& span : spans) {
      if (span.level == obs::SpanLevel::kDispatchRequest) {
        roots.push_back(&span);
      } else if (span.level == obs::SpanLevel::kDispatchAttempt) {
        ++children[span.parent];
        ++result.traced_attempts;
      }
    }
    result.traced_requests = roots.size();

    std::string error;
    if (result.trace_dropped_spans != 0) {
      error = "front tracer dropped spans";
    } else if (roots.size() != result.loss.sent) {
      error = "dispatch_request root count != requests sent";
    }
    std::map<std::string, std::int64_t> id_balance;
    for (const obs::Span* root : roots) {
      const double declared = number_attr(*root, "attempts");
      const std::size_t recorded = children[root->id];
      if (error.empty() &&
          declared != static_cast<double>(recorded)) {
        error = "root `attempts` attribute != recorded attempt spans";
      }
      ++id_balance[text_attr(*root, "trace_id")];
    }
    for (const serve::LossRequestLog& log : result.loss.request_log) {
      --id_balance[log.trace_id];
    }
    if (error.empty()) {
      for (const auto& [trace_id, balance] : id_balance) {
        if (balance != 0) {
          error = "root trace_ids do not match the loadgen request log";
          break;
        }
      }
    }
    result.trace_accounting_error = error;
    result.trace_accounted = error.empty();
  }

  result.measured_loss_fraction =
      static_cast<double>(result.loss.rejected +
                          result.loss.deadline_missed +
                          result.loss.transport_errors +
                          result.loss.other_errors) /
      static_cast<double>(result.loss.sent);

  // --- Analytic composite prediction (see farm.hpp header comment) ---
  const double wall = result.loss.wall_seconds;
  double total_down = 0.0;
  std::size_t kills = 0;
  for (const KillEvent& kill : config.kills) {
    const double down = std::min(kill.down_at_seconds, wall);
    const double up = std::min(kill.up_at_seconds, wall);
    if (up > down) {
      total_down += up - down;
      ++kills;
    }
  }
  result.kills_executed = kills;
  result.total_down_seconds = total_down;
  result.time_all_up_seconds = wall - total_down;

  const double n = static_cast<double>(config.replicas);
  if (kills == 0) {
    // No injected failures: the farm sits in the all-up state and the
    // composite prediction collapses to the pooled loss.
    result.predicted_loss_perfect = pooled_loss(config, config.replicas);
    result.predicted_loss_imperfect = result.predicted_loss_perfect;
  } else {
    result.failure_rate =
        static_cast<double>(kills) / (n * result.time_all_up_seconds);
    result.repair_rate = static_cast<double>(kills) / total_down;
    const double mean_down = total_down / static_cast<double>(kills);
    result.detection_delay_seconds =
        config.health.probe_interval_seconds *
        static_cast<double>(config.health.unhealthy_threshold);
    result.coverage = std::clamp(
        1.0 - result.detection_delay_seconds / mean_down, 0.0, 1.0);
    result.reconfiguration_rate =
        1.0 / result.detection_delay_seconds;

    core::WebFarmParams params;
    params.servers = config.replicas;
    params.failure_rate = result.failure_rate;
    params.repair_rate = result.repair_rate;
    params.coverage = result.coverage;
    params.reconfiguration_rate = result.reconfiguration_rate;

    const std::vector<double> pi =
        core::perfect_coverage_distribution(params);
    double perfect = pi[0];
    for (std::size_t i = 1; i <= config.replicas; ++i) {
      perfect += pi[i] * pooled_loss(config, i);
    }
    result.predicted_loss_perfect = perfect;

    const core::ImperfectDistribution dist =
        core::imperfect_coverage_distribution(params);
    double imperfect = dist.operational[0];
    for (std::size_t i = 1; i <= config.replicas; ++i) {
      imperfect += dist.operational[i] * pooled_loss(config, i);
      // Manual state y_i: i replicas nominally up, one dead and not yet
      // ejected. The share of traffic routed to the dead replica (1/i)
      // is at risk, the rest faces an (i-1)-replica farm -- the paper's
      // uncovered-failure loss, an upper bound the retry layer beats.
      imperfect += dist.manual[i] *
                   (1.0 / static_cast<double>(i) +
                    (1.0 - 1.0 / static_cast<double>(i)) *
                        pooled_loss(config, i - 1));
    }
    result.predicted_loss_imperfect = imperfect;
  }

  const double p = result.predicted_loss_imperfect;
  result.sigma = std::sqrt(std::max(p * (1.0 - p), 0.0) /
                           static_cast<double>(result.loss.sent));
  // 4-sigma binomial half-width plus an allowance for the transient
  // schedule (the composite model is stationary) and scheduling jitter.
  result.tolerance = 4.0 * result.sigma + 0.03;
  result.within_tolerance =
      std::abs(result.measured_loss_fraction - p) <= result.tolerance;
  return result;
}

}  // namespace upa::dispatch
