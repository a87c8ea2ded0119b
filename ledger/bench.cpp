#include "bench.hpp"

#include <filesystem>
#include <stdexcept>

#include "upa/cache/index.hpp"
#include "upa/cache/segment.hpp"

namespace ledger {

using upa::serve::Json;

Reply call(upa::serve::Client& client, const std::string& line) {
  Reply r;
  try {
    r.line = client.call_line(line);
  } catch (const std::exception&) {
    r.outcome = Outcome::kTransport;
    return r;
  }
  const std::size_t ok = r.line.find(",\"ok\":");
  if (ok != std::string::npos && r.line.compare(ok + 6, 4, "true") == 0) {
    r.outcome = Outcome::kOk;
  } else if (r.line.find("\"code\":503") != std::string::npos) {
    r.outcome = Outcome::kRefused;
  } else if (r.line.find("\"code\":504") != std::string::npos) {
    r.outcome = Outcome::kTimedOut;
  } else {
    r.outcome = Outcome::kWrong;
  }
  return r;
}

Json rpc_once(std::uint16_t port, const std::string& method, Json params) {
  upa::serve::Client client;
  client.connect("127.0.0.1", port, 5.0, 10.0);
  const upa::serve::CallResult r = client.call(method, std::move(params));
  if (!r.ok() || r.result() == nullptr) {
    throw std::runtime_error(method + " RPC failed: " + r.error_message);
  }
  return *r.result();
}

Stack::Stack(const Env& env, std::size_t replicas, std::size_t workers,
             std::size_t capacity, std::vector<std::string> replica_args,
             bool with_front) {
  upa::dispatch::ReplicaConfig rc;
  rc.served_binary = env.binary("upa_served");
  rc.workers = workers;
  rc.capacity = capacity;
  farm_ = std::make_unique<upa::dispatch::FarmOrchestrator>(rc, replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    farm_->set_restart_extra_args(i, replica_args);
  }
  farm_->start_all();
  addresses_ = farm_->addresses();
  if (with_front) add_front(env);
}

const std::vector<pid_t>& Stack::replica_pids() const {
  // Found on first use, so the /proc scan stays out of timed set-up.
  if (replica_pids_.empty()) {
    replica_pids_ = children_named("upa_served");
    if (replica_pids_.size() != addresses_.size()) {
      throw std::runtime_error("expected " +
                               std::to_string(addresses_.size()) +
                               " upa_served children, found " +
                               std::to_string(replica_pids_.size()));
    }
  }
  return replica_pids_;
}

Stack::~Stack() {
  front_.reset();
  farm_->stop_all();
}

std::uint16_t Stack::entry_port() const {
  return front_ != nullptr ? front_->port() : addresses_.front().port;
}

void Stack::add_front(const Env& env) {
  front_ = std::make_unique<FrontProcess>(env.binary("upa_dispatch"),
                                          addresses_,
                                          env.config.front_workers);
}

void Stack::drop_front() { front_.reset(); }

Snapshot Stack::snapshot() const {
  Snapshot s;
  Json cache_stats = Json::object();
  cache_stats.set("op", Json("stats"));
  for (const auto& a : addresses_) {
    s.replica_stats.push_back(rpc_once(a.port, "stats", Json()));
    s.replica_cache.push_back(rpc_once(a.port, "cache", cache_stats));
  }
  for (const pid_t pid : replica_pids()) {
    s.replicas_cpu += process_cpu_seconds(pid);
  }
  if (front_ != nullptr) {
    s.front = rpc_once(front_->port(), "dispatch_stats", Json());
    s.front_cpu = process_cpu_seconds(front_->pid());
  }
  s.at = Clock::now();
  return s;
}

double Stack::peak_rss_bytes() const {
  double total = 0.0;
  for (const pid_t pid : replica_pids()) {
    total += process_peak_rss_bytes(pid);
  }
  if (front_ != nullptr) total += process_peak_rss_bytes(front_->pid());
  return total;
}

double member(const Json& object, const char* key) {
  const Json* v = object.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

double delta(const Json& before, const Json& after, const char* key) {
  return member(after, key) - member(before, key);
}

double upstreams_delta(const Json& before, const Json& after,
                       const char* key, const char* histogram) {
  const auto& u0 = before.find("upstreams")->as_array();
  const auto& u1 = after.find("upstreams")->as_array();
  double sum = 0.0;
  for (std::size_t i = 0; i < u1.size(); ++i) {
    sum += histogram == nullptr
               ? delta(u0[i], u1[i], key)
               : delta(*u0[i].find(histogram), *u1[i].find(histogram), key);
  }
  return sum;
}

void index_directory(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".upaseg") continue;
    const std::string path = entry.path().string();
    const upa::cache::MappedFile file(path);
    if (!upa::cache::load_or_build_index(path, file).segment_ok) {
      throw std::runtime_error("unreadable segment " + path);
    }
  }
}

void PhaseResult::merge(PhaseResult&& o) {
  const auto append = [](auto& into, auto& from) {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  };
  append(session_latency, o.session_latency);
  append(request_latency, o.request_latency);
  append(late, o.late);
  const auto offset = static_cast<std::int64_t>(spans.size());
  for (Span& s : o.spans) {
    if (s.parent >= 0) s.parent += offset;
  }
  append(spans, o.spans);
  append(recorded, o.recorded);
  for (std::string& e : o.errors) error(e);
  units.merge(o.units);
  requests_attempted += o.requests_attempted;
  requests_ok += o.requests_ok;
  request_seconds_sum += o.request_seconds_sum;
  request_seconds_count += o.request_seconds_count;
  closed_requests_ok += o.closed_requests_ok;
  generator_cpu += o.generator_cpu;
}

void PhaseResult::error(const std::string& what) {
  if (errors.size() < 5) errors.push_back(what);
}

std::int64_t ThreadLog::begin(const std::string& name, std::uint64_t request,
                              std::int64_t parent) {
  if (!traced) return -1;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start = env->since_epoch();
  out.spans.push_back(std::move(s));
  return static_cast<std::int64_t>(out.spans.size() - 1);
}

void ThreadLog::end(std::int64_t span) {
  if (span < 0) return;
  out.spans[static_cast<std::size_t>(span)].end = env->since_epoch();
}

}  // namespace ledger
