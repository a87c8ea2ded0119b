#pragma once
// The ledger's own arithmetic: percentiles with their sample counts,
// open-loop due-time accounting, the ok_frac miss taxonomy, the CPU
// split between layers, and span self time. Every function here is
// covered by selftest.cpp, which each run executes before measuring.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A nearest-rank percentile with the sample count behind it.
struct Percentile {
  double q = 0.0;          ///< requested quantile in (0, 1)
  double value = 0.0;      ///< the sample at rank ceil(q * n)
  std::size_t n = 0;       ///< samples in the population
  std::size_t beyond = 0;  ///< samples strictly above that rank
};

/// Samples a percentile must leave above it before a run reports it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `samples` (need not be sorted). Throws
/// std::runtime_error when fewer than kMinBeyond samples lie beyond the
/// rank: such a tail is one or two outliers, not a measurement.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);

[[nodiscard]] double mean(const std::vector<double>& samples);

/// How one unit of work (a request or a session) ended.
enum class Outcome { kOk, kRefused, kTimedOut, kWrong, kTransport };

/// Units attempted and units that count toward ok_frac: completed, with
/// a correct answer, within the latency limit. Refusals, timeouts,
/// transport failures and wrong answers are misses, and so is a correct
/// answer later than the limit.
struct OkTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t wrong = 0;    ///< answer checks that failed
  std::uint64_t failed = 0;   ///< refused, timed out or lost on the wire
  std::uint64_t late = 0;     ///< correct but over the limit

  void add(Outcome outcome, double latency_seconds, double limit_seconds);
  void merge(const OkTally& other);
  [[nodiscard]] double ok_frac() const;
};

/// Open-loop schedule: unit k is due at `due[k]` seconds after
/// `epoch`. `threads` workers take units in order; each sleeps until its
/// unit is due (never earlier), runs `work(k, thread)`, and the
/// schedule records when the unit actually started and ended. A worker
/// still busy when a later unit falls due makes that unit late, and its
/// latency -- timed from the due time -- carries the wait.
struct ScheduleRecord {
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double late() const { return start - due; }
  [[nodiscard]] double latency() const { return end - due; }
};
[[nodiscard]] std::vector<ScheduleRecord> run_open_loop(
    const std::vector<double>& due, std::size_t threads,
    Clock::time_point epoch,
    const std::function<void(std::size_t unit, std::size_t thread)>& work);

/// CPU seconds of the system under test, split by layer, over one timed
/// window, each part divided by the same request count, so dispatch +
/// serve is the end-to-end cpu_us_per_req.
struct CpuSplit {
  double dispatch_us = 0.0;
  double serve_us = 0.0;
  double total_us = 0.0;
};
[[nodiscard]] CpuSplit cpu_per_request(double front_cpu_seconds,
                                       double replicas_cpu_seconds,
                                       std::uint64_t requests);

/// One span recorded by the ledger around a call into a layer. Spans of
/// one request share `request`; `parent` is the index of the enclosing
/// span in the same recorder (-1 for a root).
struct Span {
  std::string name;
  std::uint64_t request = 0;
  std::int64_t parent = -1;
  double start = 0.0;  ///< seconds since the run's epoch
  double end = 0.0;
};

/// Self time of every span: its duration minus the time its direct
/// children cover (overlapping children are merged first, and children
/// are clipped to the parent's interval).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace ledger
