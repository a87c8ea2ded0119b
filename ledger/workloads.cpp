// The three ledger workloads. Each generator thread holds at most one
// connection, and the calling thread is generator thread 0, so threads
// and connections both stay within Env::threads (= nproc).

#include <array>
#include <atomic>
#include <barrier>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "traffic.hpp"

namespace ledger {

using upa::serve::Client;
using upa::serve::Json;

namespace {

/// Runs `body(thread)` on `threads` threads, the caller being thread 0.
template <typename Body>
void on_threads(std::size_t threads, Body&& body) {
  std::vector<std::thread> pool;
  std::exception_ptr failure;
  std::mutex failure_mutex;
  const auto guarded = [&](std::size_t t) {
    try {
      body(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(guarded, t);
  guarded(0);
  for (std::thread& th : pool) th.join();
  if (failure) std::rethrow_exception(failure);
}

std::vector<ThreadLog> make_logs(const Env& env, bool traced,
                                 std::size_t threads) {
  std::vector<ThreadLog> logs(threads);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    logs[t].thread = t;
    logs[t].traced = traced;
    logs[t].env = &env;
  }
  return logs;
}

PhaseResult merge_logs(std::vector<ThreadLog>& logs) {
  PhaseResult out;
  for (ThreadLog& log : logs) out.merge(std::move(log.out));
  return out;
}

void connect(Client& client, std::uint16_t port) {
  client.connect("127.0.0.1", port, 5.0, 10.0);
}

std::size_t replica_workers(const Env& env) { return env.threads + 1; }
std::size_t replica_capacity(const Env& env) { return 2 * (env.threads + 1); }

// --- table1_farm -------------------------------------------------------------

class Table1Farm final : public Workload {
 public:
  explicit Table1Farm(const Env& env)
      : env_(env), catalogue_(make_catalogue()) {
    for (const Rpc& rpc : catalogue_.rpcs) {
      expected_.push_back(expected_line(rpc));
    }
  }

  std::unique_ptr<Stack> setup() override {
    const Config& c = env_.config;
    auto stack = std::make_unique<Stack>(env_, c.farm_replicas,
                                         c.farm_workers, c.farm_capacity,
                                         std::vector<std::string>{}, true);
    // Warm every replica with the whole catalogue, directly, checking
    // each answer against the public functions.
    for (const auto& replica : stack->replicas()) {
      Client client;
      connect(client, replica.port);
      for (std::size_t k = 0; k < catalogue_.rpcs.size(); ++k) {
        const Reply r = call(client, catalogue_.rpcs[k].line);
        if (r.line != expected_[k]) {
          throw std::runtime_error("wrong answer to " +
                                   catalogue_.rpcs[k].line + ": " + r.line);
        }
      }
    }
    return stack;
  }

  [[nodiscard]] bool front_in_path() const override { return true; }

  PhaseResult run(Stack& stack, double seconds, bool traced) override {
    const std::uint64_t phase = phase_++;
    const double open_seconds = seconds * env_.config.open_share;
    const std::uint16_t port = stack.entry_port();

    const Snapshot before = stack.snapshot();

    // Open loop: Poisson session arrivals at a fixed rate, each timed
    // from its due time.
    const std::vector<double> due = poisson_schedule(
        env_.config.session_rate, open_seconds, env_.seed * 1000 + phase);
    SessionSource open_source(catalogue_, env_.seed * 1000 + phase + 500);
    std::vector<Session> sessions;
    sessions.reserve(due.size());
    for (std::size_t k = 0; k < due.size(); ++k) {
      sessions.push_back(open_source.next());
    }
    std::vector<ThreadLog> logs = make_logs(env_, traced, env_.threads);
    const Clock::time_point open_epoch = Clock::now();
    const std::vector<ScheduleRecord> schedule = run_open_loop(
        due, env_.threads, open_epoch, [&](std::size_t k, std::size_t t) {
          const double cpu0 = thread_cpu_seconds();
          const Clock::time_point due_at =
              open_epoch + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(due[k]));
          run_session(logs[t], port, sessions[k], due_at, true);
          logs[t].out.generator_cpu += thread_cpu_seconds() - cpu0;
        });
    for (const ScheduleRecord& r : schedule) {
      logs[0].out.late.push_back(r.late());
    }

    // Closed loop: one session client per thread, back to back.
    const Clock::time_point closed_start = Clock::now();
    const Clock::time_point deadline =
        closed_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds -
                                                         open_seconds));
    on_threads(env_.config.farm_clients, [&](std::size_t t) {
      const double cpu0 = thread_cpu_seconds();
      SessionSource source(catalogue_,
                           (env_.seed * 1000 + phase) * 64 + 1000 + t);
      ThreadLog& log = logs[t];
      const std::uint64_t ok_before = log.out.requests_ok;
      while (Clock::now() < deadline) {
        run_session(log, port, source.next(), Clock::now(), false);
      }
      log.out.closed_requests_ok += log.out.requests_ok - ok_before;
      log.out.generator_cpu += thread_cpu_seconds() - cpu0;
    });
    PhaseResult merged = merge_logs(logs);
    merged.closed_seconds = seconds_between(closed_start, Clock::now());
    merged.before = before;
    merged.after = stack.snapshot();
    return merged;
  }

 private:
  void run_session(ThreadLog& log, std::uint16_t port, const Session& s,
                   Clock::time_point due_at, bool open_loop) {
    PhaseResult& out = log.out;
    const double limit = env_.config.session_limit_ms / 1000.0;
    const std::uint64_t session_id = log.new_request_id();
    const std::int64_t session_span = log.begin("session", session_id, -1);
    Outcome outcome = Outcome::kOk;
    Client client;
    try {
      connect(client, port);
    } catch (const std::exception&) {
      outcome = Outcome::kTransport;
    }
    for (std::size_t i = 0; outcome == Outcome::kOk && i < s.keys.size();
         ++i) {
      const std::size_t key = s.keys[i];
      const Rpc& rpc = catalogue_.rpcs[key];
      const std::uint64_t id = log.new_request_id();
      const std::int64_t span = log.begin(rpc.method, id, session_span);
      const Clock::time_point t0 = Clock::now();
      Reply r = call(client, rpc.line);
      const Clock::time_point t1 = Clock::now();
      log.end(span);
      ++out.requests_attempted;
      outcome = r.outcome;
      if (outcome == Outcome::kOk && r.line != expected_[key]) {
        outcome = Outcome::kWrong;
        out.error("wrong answer to " + rpc.line + ": " + r.line);
      }
      if (outcome != Outcome::kOk) break;
      ++out.requests_ok;
      out.request_seconds_sum += seconds_between(t0, t1);
      ++out.request_seconds_count;
      if (open_loop) out.request_latency.push_back(seconds_between(t0, t1));
      if (log.traced && out.recorded.size() < env_.config.probe_lines) {
        out.recorded.push_back({id, rpc.method, rpc.line, std::move(r.line)});
      }
    }
    client.close();
    log.end(session_span);
    const double latency = seconds_between(due_at, Clock::now());
    out.units.add(outcome, latency, limit);
    if (outcome == Outcome::kOk && open_loop) {
      out.session_latency.push_back(latency);
    }
  }

  const Env& env_;
  Catalogue catalogue_;
  std::vector<std::string> expected_;  ///< the answer of each key
  std::uint64_t phase_ = 0;
};

// --- design grid workloads --------------------------------------------------

/// One design-grid RPC answered in a timed phase, kept for its check.
struct Answered {
  std::uint64_t point = 0;
  std::size_t position = 0;
  double latency = 0.0;
  Outcome outcome = Outcome::kOk;
  std::uint64_t digest = 0;  ///< line_digest of the answer
};

/// Seconds from a point's first send to its last answer; entry j
/// belongs to answers 4j..4j+3 of the same thread's Answered list.
using PointLatencies = std::vector<double>;

/// Stream of the timed grid; the prior grid of design_sweep uses
/// another stream, so the two are disjoint.
std::uint64_t timed_stream(const Env& env) { return env.seed * 2 + 1; }
std::uint64_t prior_stream(const Env& env) { return env.seed * 2 + 2; }

/// Sends grid points [0, points) of `stream` over `threads` keep-alive
/// connections and returns every response line (untimed population),
/// each checked against the public functions.
std::vector<std::array<std::string, kRpcsPerPoint>> populate(
    const Env& env, std::uint16_t port, std::uint64_t stream,
    std::size_t points) {
  std::vector<std::array<std::string, kRpcsPerPoint>> responses(points);
  std::atomic<std::size_t> next{0};
  on_threads(env.threads, [&](std::size_t) {
    Client client;
    connect(client, port);
    for (std::size_t i; (i = next.fetch_add(1)) < points;) {
      const std::vector<Rpc> rpcs = grid_point(stream, i);
      for (std::size_t p = 0; p < kRpcsPerPoint; ++p) {
        const Reply r = call(client, rpcs[p].line);
        if (r.line != expected_line(rpcs[p])) {
          throw std::runtime_error("wrong answer to " + rpcs[p].line +
                                   ": " + r.line);
        }
        responses[i][p] = r.line;
      }
    }
  });
  return responses;
}

/// Shared part of design_sweep and warm_restart: one replica on the
/// workload's cache directory, and closed-loop clients that each hold
/// one keep-alive connection and send one grid point (four RPCs, back to
/// back) at a time.
class GridWorkload : public Workload {
 public:
  GridWorkload(const Env& env, std::string dir)
      : env_(env), dir_(std::move(dir)) {}

  std::unique_ptr<Stack> setup() override {
    return std::make_unique<Stack>(
        env_, 1, replica_workers(env_), replica_capacity(env_),
        std::vector<std::string>{"--cache-dir", dir_}, false);
  }

  [[nodiscard]] std::string cache_dir() const override { return dir_; }

 protected:
  /// Sends the four RPCs of `point`, logging latencies and answers.
  /// With a `reference`, each answer is compared with it at once;
  /// without one, its digest is kept for verify().
  void send_point(ThreadLog& log, Client& client, std::uint64_t point,
                  Clock::time_point& last_end,
                  std::vector<Answered>& answered, PointLatencies& points,
                  const std::array<std::string, kRpcsPerPoint>* reference) {
    const std::vector<Rpc> rpcs = grid_point(timed_stream(env_), point);
    const std::uint64_t session_id = log.new_request_id();
    const std::int64_t session_span = log.begin("point", session_id, -1);
    Clock::time_point first{};
    for (std::size_t p = 0; p < kRpcsPerPoint; ++p) {
      const std::uint64_t id = log.new_request_id();
      const std::int64_t span = log.begin(rpcs[p].method, id, session_span);
      const Clock::time_point t0 = Clock::now();
      if (p == 0) first = t0;
      if (last_end != Clock::time_point{}) {
        log.out.late.push_back(seconds_between(last_end, t0));
      }
      Reply r = call(client, rpcs[p].line);
      last_end = Clock::now();
      log.end(span);
      if (log.traced && log.out.recorded.size() < env_.config.probe_lines) {
        log.out.recorded.push_back({id, rpcs[p].method, rpcs[p].line, r.line});
      }
      Answered a{point, p, seconds_between(t0, last_end), r.outcome,
                 line_digest(r.line)};
      if (reference != nullptr && r.outcome == Outcome::kOk &&
          r.line != (*reference)[p]) {
        a.outcome = Outcome::kWrong;
        log.out.error("answer differs from design_sweep's: " + r.line);
      }
      answered.push_back(a);
    }
    log.end(session_span);
    points.push_back(seconds_between(first, last_end));
  }

  /// Folds checked answers into the phase tallies: per-request ok_frac,
  /// request latencies of correct answers, and a point's latency when
  /// all four of its answers were correct.
  void tally(PhaseResult& out, const std::vector<Answered>& answered,
             const PointLatencies& points) {
    const double limit = env_.config.request_limit_ms / 1000.0;
    std::vector<bool> correct(answered.size(), false);
    for (std::size_t k = 0; k < answered.size(); ++k) {
      const Answered& a = answered[k];
      const Outcome o = a.outcome;
      ++out.requests_attempted;
      out.units.add(o, a.latency, limit);
      if (o != Outcome::kOk) continue;
      ++out.requests_ok;
      out.request_latency.push_back(a.latency);
      out.request_seconds_sum += a.latency;
      ++out.request_seconds_count;
      correct[k] = true;
    }
    out.closed_requests_ok = out.requests_ok;
    for (std::size_t j = 0; j < points.size(); ++j) {
      bool all = true;
      for (std::size_t p = 0; p < kRpcsPerPoint; ++p) {
        all = all && correct[j * kRpcsPerPoint + p];
      }
      if (all) out.session_latency.push_back(points[j]);
    }
  }

  const Env& env_;
  std::string dir_;
};

class DesignSweep final : public GridWorkload {
 public:
  explicit DesignSweep(const Env& env)
      : GridWorkload(env, env.work_dir + "/sweep-cache") {}

  void prepare() override {
    // The directory already holds an earlier, disjoint grid.
    {
      Stack stack(env_, 1, replica_workers(env_), replica_capacity(env_),
                  {"--cache-dir", dir_}, false);
      (void)populate(env_, stack.entry_port(), prior_stream(env_),
                     env_.config.sweep_prior_points);
    }
    index_directory(dir_);
  }

  PhaseResult run(Stack& stack, double seconds, bool traced) override {
    const Snapshot before = stack.snapshot();
    const std::uint64_t dir_before = directory_bytes(dir_);
    const std::size_t clients = env_.config.grid_clients;
    std::vector<ThreadLog> logs = make_logs(env_, traced, clients);
    std::vector<std::vector<Answered>> answered(clients);
    std::vector<PointLatencies> points(clients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    on_threads(clients, [&](std::size_t t) {
      const double cpu0 = thread_cpu_seconds();
      Client client;
      connect(client, stack.entry_port());
      Clock::time_point last_end{};
      while (Clock::now() < deadline) {
        send_point(logs[t], client, next_point_.fetch_add(1), last_end,
                   answered[t], points[t], nullptr);
      }
      logs[t].out.generator_cpu += thread_cpu_seconds() - cpu0;
    });
    PhaseResult merged = merge_logs(logs);
    merged.closed_seconds = seconds_between(start, Clock::now());
    merged.before = before;
    merged.after = stack.snapshot();
    merged.bytes_appended = directory_bytes(dir_) - dir_before;
    for (std::size_t t = 0; t < clients; ++t) {
      pending_.insert(pending_.end(),
                      std::make_move_iterator(answered[t].begin()),
                      std::make_move_iterator(answered[t].end()));
      pending_points_.insert(pending_points_.end(), points[t].begin(),
                             points[t].end());
    }
    return merged;
  }

  void verify(PhaseResult& out) override {
    // Each kept digest against the line the public functions give, on
    // all generator threads.
    std::atomic<std::size_t> next{0};
    on_threads(env_.threads, [&](std::size_t) {
      for (std::size_t k; (k = next.fetch_add(1)) < pending_.size();) {
        Answered& a = pending_[k];
        if (a.outcome != Outcome::kOk) continue;
        const Rpc rpc = grid_point(timed_stream(env_), a.point)[a.position];
        if (line_digest(expected_line(rpc)) != a.digest) {
          a.outcome = Outcome::kWrong;
        }
      }
    });
    for (const Answered& a : pending_) {
      if (a.outcome == Outcome::kWrong) {
        out.error("wrong answer to " +
                  grid_point(timed_stream(env_), a.point)[a.position].line);
      }
    }
    tally(out, pending_, pending_points_);
    pending_.clear();
    pending_points_.clear();
  }

 private:
  std::atomic<std::uint64_t> next_point_{0};
  std::vector<Answered> pending_;
  PointLatencies pending_points_;
};

class WarmRestart final : public GridWorkload {
 public:
  explicit WarmRestart(const Env& env)
      : GridWorkload(env, env.work_dir + "/restart-cache") {}

  void prepare() override {
    // design_sweep's grid, computed once into the directory; its
    // answers (checked against the public functions as they come) are
    // the reference the restarted replica must repeat byte for byte.
    const std::size_t points = env_.config.restart_points;
    {
      Stack stack(env_, 1, replica_workers(env_), replica_capacity(env_),
                  {"--cache-dir", dir_}, false);
      reference_ =
          populate(env_, stack.entry_port(), timed_stream(env_), points);
    }
    index_directory(dir_);
  }

  PhaseResult run(Stack& stack, double seconds, bool traced) override {
    const Snapshot before = stack.snapshot();
    const std::uint16_t port = stack.entry_port();
    const std::size_t points = reference_.size();
    const std::size_t clients = env_.config.grid_clients;
    std::vector<ThreadLog> logs = make_logs(env_, traced, clients);
    std::vector<std::vector<Answered>> answered(clients);
    std::vector<PointLatencies> point_latency(clients);
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> time_up{false};
    bool stop = false;
    std::string clear_error;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    // Between passes one thread empties the in-memory tier, so every
    // lookup of the next pass goes to the disk tier. Clearing also zeroes
    // the lookup counters, so each pass's counts are read just before.
    double lookups[3] = {0.0, 0.0, 0.0};  // hits, disk_hits, misses
    bool first_pass = true;
    const auto between_passes = [&]() noexcept {
      try {
        if (!first_pass) {
          Json op = Json::object();
          op.set("op", Json("stats"));
          const Json stats = rpc_once(port, "cache", std::move(op));
          lookups[0] += member(stats, "hits");
          lookups[1] += member(stats, "disk_hits");
          lookups[2] += member(stats, "misses");
        }
        first_pass = false;
        if (time_up.load() || Clock::now() >= deadline) {
          stop = true;
          return;
        }
        Json op = Json::object();
        op.set("op", Json("clear"));
        (void)rpc_once(port, "cache", std::move(op));
      } catch (const std::exception& ex) {
        clear_error = ex.what();
        stop = true;
      }
      cursor.store(0);
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(clients), between_passes);
    on_threads(clients, [&](std::size_t t) {
      const double cpu0 = thread_cpu_seconds();
      Client client;
      connect(client, port);
      Clock::time_point last_end{};
      for (;;) {
        sync.arrive_and_wait();
        if (stop) break;
        for (std::size_t i; !time_up.load() &&
                            (i = cursor.fetch_add(1)) < points;) {
          send_point(logs[t], client, i, last_end, answered[t],
                     point_latency[t], &reference_[i]);
          if (Clock::now() >= deadline) time_up.store(true);
        }
      }
      logs[t].out.generator_cpu += thread_cpu_seconds() - cpu0;
    });
    PhaseResult merged = merge_logs(logs);
    merged.closed_seconds = seconds_between(start, Clock::now());
    merged.before = before;
    merged.after = stack.snapshot();
    if (!clear_error.empty()) merged.error("cache clear failed: " + clear_error);
    // The phase's lookup counts are the per-pass sums.
    const char* const keys[3] = {"hits", "disk_hits", "misses"};
    for (int k = 0; k < 3; ++k) {
      merged.before.replica_cache.front().set(keys[k], Json(0.0));
      merged.after.replica_cache.front().set(keys[k], Json(lookups[k]));
    }

    // Answers were compared byte for byte with design_sweep's as they
    // came; fold them into the tallies.
    std::vector<Answered> all;
    PointLatencies all_points;
    for (std::size_t t = 0; t < clients; ++t) {
      all.insert(all.end(), std::make_move_iterator(answered[t].begin()),
                 std::make_move_iterator(answered[t].end()));
      all_points.insert(all_points.end(), point_latency[t].begin(),
                        point_latency[t].end());
    }
    tally(merged, all, all_points);

    // Every timed lookup must have been served by the disk tier, from
    // an index that was loaded, not rebuilt, with no CRC skips.
    const Json& c0 = merged.before.replica_cache.front();
    const Json& c1 = merged.after.replica_cache.front();
    if (delta(c0, c1, "misses") != 0.0) {
      merged.error(std::to_string(delta(c0, c1, "misses")) +
                   " lookups missed the disk tier");
    }
    if (delta(c0, c1, "disk_hits") <= 0.0) {
      merged.error("no lookup was served by the disk tier");
    }
    const Json* persist = c1.find("persist");
    if (persist == nullptr || member(*persist, "indexes_rebuilt") != 0.0 ||
        member(*persist, "records_skipped_crc") != 0.0) {
      merged.error("attach rebuilt an index or skipped a CRC-bad record");
    }
    return merged;
  }

 private:
  std::vector<std::array<std::string, kRpcsPerPoint>> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Env& env) {
  if (env.workload == "table1_farm") return std::make_unique<Table1Farm>(env);
  if (env.workload == "design_sweep") return std::make_unique<DesignSweep>(env);
  if (env.workload == "warm_restart") return std::make_unique<WarmRestart>(env);
  throw std::runtime_error("unknown workload '" + env.workload +
                           "' (table1_farm, design_sweep, warm_restart)");
}

}  // namespace ledger
