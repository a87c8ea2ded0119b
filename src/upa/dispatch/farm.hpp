#pragma once
// Farm orchestration: N real `upa_served` processes (fork + exec) behind
// a dispatch::Front, with kill -9 / restart mid-run on a schedule driven
// by inject::FaultPlan windows. A SIGKILL the health checker has not yet
// noticed is precisely the paper's *uncovered* failure -- requests keep
// being routed to a dead replica until the probe threshold trips -- so
// the measured farm-level loss is compared against both the perfect- and
// imperfect-coverage composite predictions (core::web_farm stationary
// distributions conditioned with queueing::mmck_loss_probability per
// operational-server count).
//
// Analytic mapping from the kill schedule to the composite model, for a
// run of wall time T with n kills totalling D_down seconds of single-
// replica downtime (windows never overlap, so at most one replica is
// down at a time):
//
//   lambda_f = n / (N * (T - D_down))   per-server failure rate
//   mu       = n / D_down               repair (restart) rate
//
// which makes the birth-death occupancy ratio pi_{N-1}/pi_N =
// N*lambda_f/mu equal the scheduled down/up time ratio exactly. The
// health checker's detection delay d = probe_interval *
// unhealthy_threshold yields coverage c = 1 - d/mean_down (the fraction
// of each outage spent correctly ejected) and reconfiguration rate
// beta = 1/d.

#include <cstdint>
#include <string>
#include <vector>

#include "upa/dispatch/front.hpp"
#include "upa/dispatch/upstream.hpp"
#include "upa/inject/fault_plan.hpp"
#include "upa/serve/loadgen.hpp"

namespace upa::dispatch {

/// How to spawn one `upa_served` replica process.
struct ReplicaConfig {
  /// Path to the upa_served binary (injected by the test harness /
  /// --served-bin; never guessed).
  std::string served_binary;
  std::string host = "127.0.0.1";
  std::size_t workers = 1;   ///< per-replica i
  std::size_t capacity = 3;  ///< per-replica K_r
  double read_timeout_seconds = 10.0;
};

/// Spawns, kills (-9), restarts, and reaps N replica processes. The
/// first spawn binds an ephemeral port (parsed from the child's
/// "listening on host:port" line); restarts reuse the recorded port so
/// the front's upstream list stays valid across the kill.
class FarmOrchestrator {
 public:
  FarmOrchestrator(ReplicaConfig config, std::size_t replicas);
  ~FarmOrchestrator();

  FarmOrchestrator(const FarmOrchestrator&) = delete;
  FarmOrchestrator& operator=(const FarmOrchestrator&) = delete;

  /// Spawns every replica; throws ModelError when a child cannot be
  /// started or never prints its listening line.
  void start_all();

  /// SIGKILLs the whole farm and reaps every child. Idempotent.
  void stop_all();

  /// SIGKILL + reap one replica (an injected uncovered failure).
  void kill_replica(std::size_t index);

  /// Re-spawns a killed replica on its recorded port.
  void restart_replica(std::size_t index);

  /// Extra argv appended to replica `index` on its NEXT spawn. Used for
  /// flags that need the farm's port map (--peers for anti-entropy):
  /// the initial spawns bind ephemeral ports, so peer addresses only
  /// exist after start_all -- restarts can carry them.
  void set_restart_extra_args(std::size_t index,
                              std::vector<std::string> extra_args);

  [[nodiscard]] bool alive(std::size_t index) const;
  [[nodiscard]] std::size_t size() const noexcept { return replicas_.size(); }
  [[nodiscard]] std::vector<UpstreamAddress> addresses() const;

 private:
  struct Replica {
    int pid = -1;              ///< -1 = not running
    int stdout_fd = -1;        ///< read end of the child's stdout pipe
    UpstreamAddress address;   ///< port recorded from the first spawn
    std::vector<std::string> extra_args;  ///< appended on the next spawn
  };

  void spawn(std::size_t index, std::uint16_t port);

  ReplicaConfig config_;
  std::vector<Replica> replicas_;
};

/// One scheduled uncovered failure: `replica` is SIGKILLed at
/// `down_at_seconds` into the run and restarted at `up_at_seconds`.
struct KillEvent {
  std::size_t replica = 0;
  double down_at_seconds = 0.0;
  double up_at_seconds = 0.0;
};

/// Maps a FaultPlan's merged kWebFarm outage windows onto KillEvents:
/// window j (sorted by start) kills replica j % replicas, with hours
/// scaled by `seconds_per_hour` so wall-clock experiments replay
/// hour-denominated plans in seconds. Throws ModelError when scaled
/// windows overlap (the analytic mapping assumes at most one replica
/// down at a time) or the plan has no kWebFarm windows.
[[nodiscard]] std::vector<KillEvent> kill_schedule_from_fault_plan(
    const inject::FaultPlan& plan, std::size_t replicas,
    double seconds_per_hour);

struct FarmExperimentConfig {
  ReplicaConfig replica;
  std::size_t replicas = 3;
  BalancePolicy policy = BalancePolicy::kLeastOutstanding;
  RetryConfig retry;
  HealthConfig health;
  /// Open-loop Poisson `sleep` workload through the front (see
  /// serve::run_loss_workload). Rates are deliberately slow (~100 ms
  /// services): the M/M/i/K ratios only depend on lambda/nu, and slow
  /// services keep each request's fixed cost -- the front's hop and the
  /// replica's dispatch, well under a ms -- a rounding error against the
  /// modeled service time. Utilization is kept moderate (a = lambda/nu =
  /// 2 erlangs on N_W = 3 replicas) because the composite model pools
  /// the farm's waiting room, while the real farm admits per replica
  /// (K_r lines each) and the front moves a 503 to another replica only
  /// within its attempt budget; the approximation error of that
  /// idealization grows sharply past a / N_W ~ 0.7.
  double lambda = 20.0;
  double nu = 10.0;
  std::size_t requests = 500;
  std::uint64_t seed = 1;
  double call_timeout_seconds = 5.0;
  std::vector<KillEvent> kills;
  /// Traced mode: the loadgen originates a trace context per request,
  /// the front records dispatch_request/dispatch_attempt spans, and the
  /// result carries a span-vs-loadgen-log accounting (every request the
  /// loadgen issued must appear as exactly one root span whose attempt
  /// children match its `attempts` attribute, with zero drops).
  bool trace = false;
  /// Anti-entropy warm restart, the gossip interval in ms (0 = off):
  /// before the workload starts, a peer replica outside the kill
  /// schedule is warmed with `warm_points` distinct cacheable
  /// design-point evaluations; every restarted replica is spawned with
  /// `--peers <siblings> --anti-entropy-ms N` and pulls the warm set
  /// ITSELF while the orchestrator merely polls its `cache stats` until
  /// anti_entropy.records_pulled is nonzero; after the workload the same
  /// design points are re-issued to the restarted replica and its hit
  /// count is recorded -- nonzero warmed_hits is the warm-restart
  /// evidence (the kill-9 restart no longer pays the cold cost for
  /// anything its peer had already solved).
  int anti_entropy_ms = 0;
  std::size_t warm_points = 16;
};

struct FarmExperimentResult {
  serve::LossResult loss;   ///< client-side view through the front
  FrontStats front;
  std::vector<UpstreamSnapshot> upstreams;

  /// (rejected + deadline + transport + other errors) / sent -- the
  /// farm-level rejection+failure fraction the composite model predicts.
  double measured_loss_fraction = 0.0;

  // Derived analytic parameters (see the header comment).
  double failure_rate = 0.0;          ///< lambda_f
  double repair_rate = 0.0;           ///< mu
  double coverage = 1.0;              ///< c
  double reconfiguration_rate = 0.0;  ///< beta
  double detection_delay_seconds = 0.0;
  double time_all_up_seconds = 0.0;
  double total_down_seconds = 0.0;
  std::size_t kills_executed = 0;

  double predicted_loss_perfect = 0.0;
  double predicted_loss_imperfect = 0.0;
  /// Binomial sigma of the measured fraction at the imperfect
  /// prediction; the gate is |measured - imperfect| <= 4*sigma + 0.03.
  double sigma = 0.0;
  double tolerance = 0.0;
  bool within_tolerance = false;

  // Trace accounting, filled only when config.trace is set.
  std::size_t traced_requests = 0;  ///< dispatch_request roots recorded
  std::size_t traced_attempts = 0;  ///< dispatch_attempt children
  std::uint64_t trace_dropped_spans = 0;
  /// All checks passed: zero dropped spans, one root per loadgen
  /// request, the root trace_id multiset equal to the loadgen's
  /// per-request log, and each root's `attempts` attribute equal to its
  /// recorded child-span count.
  bool trace_accounted = false;
  std::string trace_accounting_error;  ///< first failed check; empty = ok

  // Anti-entropy accounting, filled only when config.anti_entropy_ms > 0
  // and the schedule has kills.
  std::size_t warm_peer = 0;  ///< replica warmed before the run
  std::uint64_t warm_points_computed = 0;  ///< peer pre-warm evaluations
  std::uint64_t warmed_hits = 0;  ///< post-run replays on the restarted
  std::uint64_t anti_entropy_rounds = 0;  ///< exchanges the replica ran
  std::uint64_t anti_entropy_records_pulled = 0;  ///< via gossip pulls
  /// No error, records pulled, and the warm points replayed as hits.
  bool anti_entropy_ok = false;
  std::string anti_entropy_error;  ///< first failure; empty = ok
};

/// Runs the full experiment: spawn the farm, start the front, replay
/// the loss workload while a scheduler thread executes the kill plan,
/// then assemble measured vs analytic results. Replicas and front are
/// always torn down, including on error.
[[nodiscard]] FarmExperimentResult run_farm_experiment(
    const FarmExperimentConfig& config);

}  // namespace upa::dispatch
