#include "selftest.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace ledger {

namespace {

class Checker {
 public:
  Checker(std::ostream& log, bool verbose) : log_(log), verbose_(verbose) {}
  void operator()(bool ok, const std::string& what) {
    if (!ok) failed_ = true;
    if (!ok || verbose_) log_ << (ok ? "  ok   " : "  FAIL ") << what << "\n";
  }
  [[nodiscard]] bool passed() const { return !failed_; }

 private:
  std::ostream& log_;
  bool verbose_;
  bool failed_ = false;
};

bool refuses(const std::vector<double>& samples, double q) {
  try {
    (void)percentile(samples, q);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

void check_percentiles(Checker& check) {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Percentile p50 = percentile(hundred, 0.5);
  check(p50.value == 50 && p50.n == 100 && p50.beyond == 50,
        "p50 of 1..100 is 50 with 50 samples beyond");
  const Percentile p90 = percentile(hundred, 0.9);
  check(p90.value == 90 && p90.beyond == 10,
        "p90 of 1..100 is 90 with exactly 10 samples beyond");
  check(refuses(hundred, 0.99), "p99 of 100 samples is refused (1 beyond)");
  check(refuses({}, 0.5), "a percentile of no samples is refused");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Percentile p99 = percentile(thousand, 0.99);
  check(p99.value == 990 && p99.n == 1000 && p99.beyond == 10,
        "p99 of 1..1000 is 990 with 10 samples beyond");
  check(refuses(std::vector<double>(99, 1.0), 0.9),
        "p90 of 99 samples is refused (9 beyond)");
}

void check_due_time(Checker& check) {
  // Twenty sessions due every 5 ms on one generator thread; session 3
  // stalls for 40 ms. Sessions due during the stall start late, and
  // their latency -- timed from the due time -- carries the wait;
  // sessions due after it has drained start on time again.
  std::vector<double> due;
  for (int k = 0; k < 20; ++k) due.push_back(0.005 * k);
  const std::vector<ScheduleRecord> r = run_open_loop(
      due, 1, Clock::now(), [](std::size_t k, std::size_t) {
        if (k == 3) std::this_thread::sleep_for(std::chrono::milliseconds(40));
      });
  check(r[3].latency() >= 0.040, "the stalled session's latency has the stall");
  check(r[4].late() >= 0.030 && r[4].latency() >= r[4].late(),
        "the next session starts late and its latency includes the wait");
  check(r[5].late() > 0.020 && r[5].late() < r[4].late(),
        "later sessions show the stall, shrinking as it drains");
  check(r[19].late() < r[4].late() - 0.025,
        "sessions due after the stall start close to on time");
  bool never_early = true;
  for (const ScheduleRecord& s : r) never_early = never_early && s.late() >= 0;
  check(never_early, "no session starts before it is due");
}

void check_ok_frac(Checker& check) {
  OkTally t;
  const double limit = 0.050;
  t.add(Outcome::kOk, 0.010, limit);
  t.add(Outcome::kOk, 0.050, limit);
  t.add(Outcome::kOk, 0.051, limit);  // correct but over the limit
  t.add(Outcome::kRefused, 0.001, limit);
  t.add(Outcome::kTimedOut, 0.001, limit);
  t.add(Outcome::kTransport, 0.001, limit);
  t.add(Outcome::kWrong, 0.001, limit);
  check(t.attempted == 7 && t.ok == 2 && t.late == 1 && t.failed == 3 &&
            t.wrong == 1,
        "refusals, timeouts, transport errors, wrong and late answers are "
        "misses");
  check(std::abs(t.ok_frac() - 2.0 / 7.0) < 1e-15, "ok_frac = 2/7");
  OkTally u;
  u.merge(t);
  u.merge(t);
  check(u.attempted == 14 && u.ok_frac() == t.ok_frac(),
        "merged tallies keep the fraction");
}

void check_cpu_split(Checker& check) {
  const CpuSplit s = cpu_per_request(0.75, 2.25, 10000);
  check(s.dispatch_us == 75.0 && s.serve_us == 225.0,
        "per-layer CPU is each process's CPU over the same request count");
  check(s.dispatch_us + s.serve_us == s.total_us,
        "dispatch + serve sum to cpu_us_per_req");
  check(cpu_per_request(1.0, 1.0, 0).total_us == 0.0,
        "no requests, no CPU per request");
}

void check_self_time(Checker& check) {
  std::vector<Span> spans(5);
  spans[0] = {"session", 1, -1, 0.0, 10.0};
  spans[1] = {"a", 2, 0, 1.0, 3.0};
  spans[2] = {"b", 3, 0, 2.0, 5.0};   // overlaps a
  spans[3] = {"c", 4, 0, 8.0, 12.0};  // runs past its parent
  spans[4] = {"d", 4, 3, 9.0, 10.0};  // grandchild: not the session's
  const std::vector<double> self = self_times(spans);
  check(self[0] == 4.0, "self time merges overlapping children and clips "
                        "them to the parent");
  check(self[3] == 3.0 && self[4] == 1.0, "only direct children count");
}

}  // namespace

bool run_selftests(std::ostream& log, bool verbose) {
  Checker check(log, verbose);
  check_percentiles(check);
  check_due_time(check);
  check_ok_frac(check);
  check_cpu_split(check);
  check_self_time(check);
  return check.passed();
}

}  // namespace ledger
