#include "probes.hpp"

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "traffic.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/protocol.hpp"
#include "upa/ta/services.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

namespace ledger {

using upa::serve::Client;
using upa::serve::Json;

namespace {

constexpr int kRounds = 3;

/// Mean seconds per call of `fn` over `rounds` passes of `n` items.
template <typename Fn>
double mean_seconds(std::size_t n, int rounds, Fn&& fn) {
  if (n == 0) return 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  return seconds_between(t0, Clock::now()) /
         static_cast<double>(n * static_cast<std::size_t>(rounds));
}

Rpc to_rpc(const Recorded& r) {
  const Json request = upa::serve::parse_json(r.line);
  const Json* params = request.find("params");
  return Rpc{static_cast<std::uint64_t>(request.find("id")->as_number()),
             r.method, params != nullptr ? *params : Json(), r.line};
}

/// Keeps the optimizer from dropping a timed call.
volatile double g_sink = 0.0;

}  // namespace

HopProbe probe_dispatch_hop(const Env& env, Stack& stack,
                            const std::vector<Recorded>& lines,
                            std::vector<std::string>& errors) {
  HopProbe probe;
  const bool added = !stack.has_front();
  if (added) stack.add_front(env);
  const Snapshot before = stack.snapshot();
  Client via_front;
  Client direct;
  via_front.connect("127.0.0.1", stack.entry_port(), 5.0, 10.0);
  direct.connect("127.0.0.1", stack.replicas().front().port, 5.0, 10.0);
  double front_seconds = 0.0;
  double direct_seconds = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (const Recorded& r : lines) {
      const Clock::time_point t0 = Clock::now();
      const Reply a = call(via_front, r.line);
      const Clock::time_point t1 = Clock::now();
      const Reply b = call(direct, r.line);
      const Clock::time_point t2 = Clock::now();
      front_seconds += seconds_between(t0, t1);
      direct_seconds += seconds_between(t1, t2);
      if (a.line != r.response || b.line != r.response) {
        errors.push_back("hop probe answer differs for " + r.line);
        break;
      }
      ++probe.requests;
    }
  }
  via_front.close();
  direct.close();
  const Snapshot after = stack.snapshot();
  if (probe.requests > 0) {
    const double n = static_cast<double>(probe.requests);
    probe.hop_us = (front_seconds - direct_seconds) / n * 1e6;
    probe.attempts_per_req =
        upstreams_delta(before.front, after.front, "attempts") / n;
    probe.retries = delta(before.front, after.front, "retries");
    probe.cpu_us_per_req = (after.front_cpu - before.front_cpu) / n * 1e6;
  }
  if (added) stack.drop_front();
  return probe;
}

InProcessProbe probe_in_process(const Env& env,
                                const std::vector<Recorded>& lines,
                                const std::string& cache_dir,
                                std::vector<std::string>& errors) {
  InProcessProbe probe;
  std::vector<Rpc> rpcs;
  for (const Recorded& r : lines) rpcs.push_back(to_rpc(r));
  const upa::serve::Dispatcher dispatcher;

  // Protocol replay with a warm cache: parse -> handler -> dump, each a
  // span sharing the request id of the recorded request.
  {
    const upa::cache::ScopedEnable cache_on(true);
    for (const Recorded& r : lines) {
      if (dispatcher.dispatch_line(r.line) != r.response) {
        errors.push_back("in-process answer differs for " + r.line);
      }
    }
    double parse = 0.0, handler = 0.0, dump = 0.0, bytes = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      for (const Recorded& r : lines) {
        const auto span = [&](const char* name, std::int64_t parent) {
          Span s;
          s.name = name;
          s.request = r.request;
          s.parent = parent;
          s.start = env.since_epoch();
          probe.spans.push_back(std::move(s));
          return static_cast<std::int64_t>(probe.spans.size() - 1);
        };
        const auto close = [&](std::int64_t i) {
          probe.spans[static_cast<std::size_t>(i)].end = env.since_epoch();
          const Span& s = probe.spans[static_cast<std::size_t>(i)];
          return s.end - s.start;
        };
        const std::int64_t root = span("replay", -1);
        std::int64_t s = span("parse", root);
        const Json request = upa::serve::parse_json(r.line);
        parse += close(s);
        s = span("handler", root);
        const Json envelope = dispatcher.dispatch(request);
        handler += close(s);
        s = span("dump", root);
        const std::string out = envelope.dump();
        dump += close(s);
        close(root);
        bytes += static_cast<double>(out.size());
      }
    }
    const double n = static_cast<double>(lines.size() * kRounds);
    probe.parse_us = parse / n * 1e6;
    probe.handler_us = handler / n * 1e6;
    probe.dump_us = dump / n * 1e6;
    probe.response_bytes = bytes / n;
    probe.dispatch_warm_us =
        mean_seconds(lines.size(), kRounds, [&](std::size_t i) {
          g_sink = g_sink + static_cast<double>(
                                dispatcher.dispatch_line(lines[i].line).size());
        }) * 1e6;
    probe.cache_hit_us = mean_seconds(rpcs.size(), kRounds, [&](std::size_t i) {
                           g_sink = g_sink + evaluate(rpcs[i]);
                         }) * 1e6;
  }

  // Cold solvers on the workload's own parameters.
  {
    const upa::cache::ScopedEnable cache_off(false);
    std::vector<Json> queues;
    std::vector<upa::ta::TaParameters> farms;
    for (const Rpc& rpc : rpcs) {
      if (rpc.method == "mmck_metrics") {
        queues.push_back(rpc.params);
      } else if (rpc.method != "ping") {
        farms.push_back(ta_params(rpc.params));
      }
    }
    probe.mmck_us = mean_seconds(queues.size(), kRounds, [&](std::size_t i) {
                      const Json& q = queues[i];
                      g_sink = g_sink +
                               upa::queueing::mmck_metrics(
                                   q.find("alpha")->as_number(),
                                   q.find("nu")->as_number(),
                                   static_cast<std::size_t>(
                                       q.find("servers")->as_number()),
                                   static_cast<std::size_t>(
                                       q.find("capacity")->as_number()))
                                   .blocking;
                    }) * 1e6;
    const auto farm_mean = [&](auto&& fn) {
      return mean_seconds(farms.size(), kRounds, [&](std::size_t i) {
               g_sink = g_sink + fn(farms[i]);
             }) * 1e6;
    };
    probe.steady_state_us = farm_mean([](const upa::ta::TaParameters& p) {
      return upa::core::imperfect_coverage_chain(upa::ta::web_farm_params(p))
          .chain.steady_state_robust()
          .residual;
    });
    probe.composite_us = farm_mean([](const upa::ta::TaParameters& p) {
      const auto farm = upa::ta::web_farm_params(p);
      const auto queue = upa::ta::web_queue_params(p);
      return (p.coverage_model == upa::ta::CoverageModel::kPerfect
                  ? upa::core::composite_perfect(farm, queue)
                  : upa::core::composite_imperfect(farm, queue))
          .breakdown()
          .availability;
    });
    probe.user_availability_us = farm_mean([](const upa::ta::TaParameters& p) {
      return upa::ta::user_availability_eq10(upa::ta::UserClass::kB, p);
    });
    probe.category_breakdown_us = farm_mean([](const upa::ta::TaParameters& p) {
      return upa::ta::category_breakdown(upa::ta::UserClass::kB, p)
          .total_unavailability;
    });
  }

  // Disk tier: attach the workload's directory (or, on a workload without
  // one, a directory holding the warm cache of the replayed lines), then
  // serve the same calls from it with the in-memory tier cleared.
  std::string dir = cache_dir;
  if (dir.empty()) {
    dir = env.work_dir + "/probe-cache";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/export.upaseg", std::ios::binary)
        << upa::cache::export_segment_blob(upa::cache::global());
  }
  index_directory(dir);
  upa::cache::global().clear();
  const Clock::time_point t0 = Clock::now();
  const upa::cache::PersistentCache& tier =
      upa::cache::attach_global_persistence(dir);
  probe.attach_s = seconds_between(t0, Clock::now());
  const upa::cache::PersistStats ps = tier.stats();
  probe.records_indexed = static_cast<double>(ps.records_indexed);
  probe.indexes_rebuilt = static_cast<double>(ps.indexes_rebuilt);
  probe.bytes_mapped = static_cast<double>(ps.bytes_mapped);
  {
    const upa::cache::ScopedEnable cache_on(true);
    // Each distinct line once: a repeat would be served from memory.
    std::vector<const Rpc*> cached;
    std::set<std::string> seen;
    for (const Rpc& rpc : rpcs) {
      if (rpc.method != "ping" && seen.insert(rpc.line).second) {
        cached.push_back(&rpc);
      }
    }
    const auto disk_before = upa::cache::global().stats().disk_hits;
    probe.disk_hit_us = mean_seconds(cached.size(), 1, [&](std::size_t i) {
                          g_sink = g_sink + evaluate(*cached[i]);
                        }) * 1e6;
    if (!cached.empty() &&
        upa::cache::global().stats().disk_hits == disk_before) {
      errors.push_back("disk-tier probe served nothing from disk");
    }
  }
  return probe;
}

}  // namespace ledger
