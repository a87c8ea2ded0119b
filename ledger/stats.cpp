#include "stats.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

namespace ledger {

Percentile percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::runtime_error("percentile: q must be in (0, 1)");
  }
  Percentile p;
  p.q = q;
  p.n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n)));
  if (p.n == 0 || p.n - rank < kMinBeyond) {
    throw std::runtime_error(
        "percentile p" + std::to_string(q * 100.0) + " refused: " +
        std::to_string(p.n) + " samples leave fewer than " +
        std::to_string(kMinBeyond) + " beyond it");
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  return p;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void OkTally::add(Outcome outcome, double latency_seconds,
                  double limit_seconds) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      if (latency_seconds <= limit_seconds) {
        ++ok;
      } else {
        ++late;
      }
      break;
    case Outcome::kWrong:
      ++wrong;
      break;
    case Outcome::kRefused:
    case Outcome::kTimedOut:
    case Outcome::kTransport:
      ++failed;
      break;
  }
}

void OkTally::merge(const OkTally& other) {
  attempted += other.attempted;
  ok += other.ok;
  wrong += other.wrong;
  failed += other.failed;
  late += other.late;
}

double OkTally::ok_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(ok) /
                              static_cast<double>(attempted);
}

std::vector<ScheduleRecord> run_open_loop(
    const std::vector<double>& due, std::size_t threads,
    Clock::time_point epoch,
    const std::function<void(std::size_t, std::size_t)>& work) {
  std::vector<ScheduleRecord> records(due.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::size_t thread) {
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= due.size()) return;
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[k])));
      records[k].due = due[k];
      records[k].start = seconds_between(epoch, Clock::now());
      work(k, thread);
      records[k].end = seconds_between(epoch, Clock::now());
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);  // the calling thread is generator thread 0
  for (std::thread& th : pool) th.join();
  return records;
}

CpuSplit cpu_per_request(double front_cpu_seconds,
                         double replicas_cpu_seconds,
                         std::uint64_t requests) {
  CpuSplit split;
  if (requests == 0) return split;
  const double n = static_cast<double>(requests);
  split.dispatch_us = front_cpu_seconds * 1e6 / n;
  split.serve_us = replicas_cpu_seconds * 1e6 / n;
  split.total_us = split.dispatch_us + split.serve_us;
  return split;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) continue;
    const double b = std::max(s.start, spans[p].start);
    const double e = std::min(s.end, spans[p].end);
    if (e > b) children[p].emplace_back(b, e);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double run_b = 0.0;
    double run_e = -1.0;
    for (const auto& [b, e] : c) {
      if (b > run_e) {
        if (run_e > run_b) covered += run_e - run_b;
        run_b = b;
        run_e = e;
      } else {
        run_e = std::max(run_e, e);
      }
    }
    if (run_e > run_b) covered += run_e - run_b;
    out[i] = (spans[i].end - spans[i].start) - covered;
  }
  return out;
}

}  // namespace ledger
