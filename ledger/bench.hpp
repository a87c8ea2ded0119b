#pragma once
// Shared pieces of the ledger's workloads: run settings, the serving
// stack under test, counter snapshots read from outside, and the
// merged output of one timed phase.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "procs.hpp"
#include "stats.hpp"
#include "upa/dispatch/farm.hpp"
#include "upa/serve/client.hpp"
#include "upa/serve/json.hpp"

namespace ledger {

/// The ledger's fixed settings. Changing one changes the benchmark.
struct Config {
  double session_rate = 300.0;     ///< open-loop Table 1 sessions per second
  double open_share = 0.5;         ///< share of --seconds run open loop
  double session_limit_ms = 100.0;  ///< ok_frac limit per session
  double request_limit_ms = 50.0;   ///< ok_frac limit per grid request
  std::size_t setup_repeats = 15;
  std::size_t farm_replicas = 2;
  std::size_t farm_workers = 2;    ///< the replicas' i
  std::size_t farm_capacity = 8;   ///< the replicas' K
  std::size_t front_workers = 8;
  std::size_t farm_clients = 2;    ///< table1_farm closed-loop clients
  std::size_t grid_clients = 2;    ///< keep-alive clients on the grids
  std::size_t sweep_prior_points = 5000;
  std::size_t restart_points = 10000;
  std::size_t probe_lines = 400;   ///< recorded lines the probes replay
};

struct Env {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;  ///< working files of this run, removed at exit
  std::string out_dir;   ///< span files
  Config config;
  std::size_t threads = 1;  ///< generator threads = connections = nproc
  Clock::time_point epoch = Clock::now();

  [[nodiscard]] std::string binary(const std::string& name) const {
    return bin_dir + "/" + name;
  }
  [[nodiscard]] double since_epoch() const {
    return seconds_between(epoch, Clock::now());
  }
};

/// How one RPC ended, from the client's side.
struct Reply {
  Outcome outcome = Outcome::kTransport;
  std::string line;
};

/// Sends `line` and classifies the envelope: a 503 is a refusal, a 504
/// a timeout, any other error envelope a wrong answer. kOk means only
/// "ok envelope"; the caller still checks the answer.
[[nodiscard]] Reply call(upa::serve::Client& client, const std::string& line);

/// One-off RPC on a fresh connection (stats, cache control).
[[nodiscard]] upa::serve::Json rpc_once(std::uint16_t port,
                                        const std::string& method,
                                        upa::serve::Json params);

/// Counters of the stack at one instant, read over RPC and /proc.
struct Snapshot {
  Clock::time_point at;
  std::vector<upa::serve::Json> replica_stats;  ///< `stats`
  std::vector<upa::serve::Json> replica_cache;  ///< `cache` op=stats
  upa::serve::Json front;                       ///< `dispatch_stats`
  double front_cpu = 0.0;
  double replicas_cpu = 0.0;
};

/// N `upa_served` replicas (dispatch::FarmOrchestrator), optionally
/// behind a `upa_dispatch` front. Destruction kills and reaps both.
class Stack {
 public:
  Stack(const Env& env, std::size_t replicas, std::size_t workers,
        std::size_t capacity, std::vector<std::string> replica_args,
        bool with_front);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] const std::vector<upa::dispatch::UpstreamAddress>&
  replicas() const {
    return addresses_;
  }
  /// Where the generator connects: the front, or replica 0.
  [[nodiscard]] std::uint16_t entry_port() const;
  [[nodiscard]] bool has_front() const { return front_ != nullptr; }

  /// Adds a front over the replicas (a probe on workloads without one).
  void add_front(const Env& env);
  void drop_front();

  [[nodiscard]] Snapshot snapshot() const;
  /// Sum of the server-side processes' VmHWM, in bytes.
  [[nodiscard]] double peak_rss_bytes() const;

 private:
  [[nodiscard]] const std::vector<pid_t>& replica_pids() const;

  std::unique_ptr<upa::dispatch::FarmOrchestrator> farm_;
  std::vector<upa::dispatch::UpstreamAddress> addresses_;
  mutable std::vector<pid_t> replica_pids_;
  std::unique_ptr<FrontProcess> front_;
};

/// Difference of one numeric member between two JSON objects.
[[nodiscard]] double delta(const upa::serve::Json& before,
                           const upa::serve::Json& after, const char* key);
[[nodiscard]] double member(const upa::serve::Json& object, const char* key);

/// Sums `key` over a `dispatch_stats` result's upstream entries (after
/// minus before); with `histogram`, `key` is read inside that member.
[[nodiscard]] double upstreams_delta(const upa::serve::Json& before,
                                     const upa::serve::Json& after,
                                     const char* key,
                                     const char* histogram = nullptr);

/// Writes the sorted index sidecar of every segment in `dir` that lacks
/// a fresh one, so a later attach loads indexes instead of rebuilding.
void index_directory(const std::string& dir);

/// A request line and the response it got, kept for the in-process
/// protocol replay and the dispatch-hop probe.
struct Recorded {
  std::uint64_t request = 0;  ///< span id of the request
  std::string method;
  std::string line;
  std::string response;
};

/// Merged generator output of one timed phase.
struct PhaseResult {
  std::vector<double> session_latency;  ///< seconds, correct sessions
  std::vector<double> request_latency;  ///< seconds, correct requests
  double request_seconds_sum = 0.0;     ///< every correct request
  std::uint64_t request_seconds_count = 0;
  std::vector<double> late;             ///< generator lateness, seconds
  OkTally units;                        ///< sessions or requests
  std::uint64_t requests_attempted = 0;
  std::uint64_t requests_ok = 0;
  /// Closed-loop part: correct answers and its wall time.
  std::uint64_t closed_requests_ok = 0;
  double closed_seconds = 0.0;
  double generator_cpu = 0.0;
  std::uint64_t bytes_appended = 0;  ///< growth of the disk tier
  std::vector<Span> spans;
  std::vector<Recorded> recorded;
  std::vector<std::string> errors;  ///< first failed checks
  Snapshot before;
  Snapshot after;

  void merge(PhaseResult&& other);
  void error(const std::string& what);
};

/// Per-thread sink of one phase; merged into a PhaseResult at the end.
struct ThreadLog {
  PhaseResult out;
  std::uint64_t thread = 0;
  std::uint64_t next_span = 0;
  bool traced = false;
  const Env* env = nullptr;

  /// Opens a span when tracing (returns its index, or -1).
  std::int64_t begin(const std::string& name, std::uint64_t request,
                     std::int64_t parent);
  void end(std::int64_t span);
  [[nodiscard]] std::uint64_t new_request_id() {
    return (thread << 40) | next_span++;
  }
};

/// The workload interface main.cpp runs: prepare (untimed), set up
/// (timed, repeated), run timed phases, then tear down.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed preparation (directories the workload presupposes).
  virtual void prepare() {}
  /// Spawns and warms the stack; the caller times this.
  [[nodiscard]] virtual std::unique_ptr<Stack> setup() = 0;
  /// One timed phase of `seconds`, spans recorded when `traced`.
  [[nodiscard]] virtual PhaseResult run(Stack& stack, double seconds,
                                        bool traced) = 0;
  /// Checks that need the phase's stored answers (post-verification).
  virtual void verify(PhaseResult&) {}
  /// True when the timed requests pass through the dispatch front.
  [[nodiscard]] virtual bool front_in_path() const { return false; }
  /// Directory holding the workload's disk tier ("" when none).
  [[nodiscard]] virtual std::string cache_dir() const { return ""; }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Env& env);

}  // namespace ledger
