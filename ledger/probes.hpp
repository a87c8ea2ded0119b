#pragma once
// Per-layer probes of the traced run. The dispatch-hop probe replays a
// workload's recorded lines through a front and directly to a replica;
// the in-process probes replay them through the protocol, the cache,
// the cold solvers and the disk tier, recording spans as they go.

#include <string>
#include <vector>

#include "bench.hpp"

namespace ledger {

struct HopProbe {
  double hop_us = 0.0;  ///< mean via-front latency minus mean direct
  double attempts_per_req = 0.0;
  double retries = 0.0;
  double cpu_us_per_req = 0.0;  ///< front CPU per forwarded request
  std::size_t requests = 0;
};

/// Sends each recorded line through a front (added for the probe when
/// the stack has none) and directly to replica 0, alternating, and
/// checks both answers against the recorded response.
[[nodiscard]] HopProbe probe_dispatch_hop(const Env& env, Stack& stack,
                                          const std::vector<Recorded>& lines,
                                          std::vector<std::string>& errors);

struct InProcessProbe {
  double parse_us = 0.0;
  double dump_us = 0.0;
  double handler_us = 0.0;
  double response_bytes = 0.0;
  double dispatch_warm_us = 0.0;
  double cache_hit_us = 0.0;
  double mmck_us = 0.0;
  double steady_state_us = 0.0;
  double composite_us = 0.0;
  double user_availability_us = 0.0;
  double category_breakdown_us = 0.0;
  double attach_s = 0.0;
  double records_indexed = 0.0;
  double indexes_rebuilt = 0.0;
  double bytes_mapped = 0.0;
  double disk_hit_us = 0.0;
  std::vector<Span> spans;  ///< replay -> parse / handler / dump
};

/// Runs every in-process probe on the recorded lines. `cache_dir` is the
/// workload's disk tier; when empty, the probe writes the warm cache of
/// the replayed lines into `env.work_dir` and attaches that instead.
/// Attaches the process-global disk tier, so it must run last.
[[nodiscard]] InProcessProbe probe_in_process(
    const Env& env, const std::vector<Recorded>& lines,
    const std::string& cache_dir, std::vector<std::string>& errors);

}  // namespace ledger
