#pragma once
// Online estimation of the paper's model parameters from a live
// upa_served counter stream. The controller samples the server's
// cumulative counters (via the telemetry `subscribe` channel) and this
// estimator turns consecutive snapshots into the three quantities the
// M/M/i/K planner needs:
//
//   lambda-hat  offered arrival rate  = d(admitted + rejected) / dt
//   nu-hat      per-server service rate = d(handled) / d(busy_seconds)
//   loss-hat    measured rejection fraction = d(rejected) / d(arrivals)
//
// All three are windowed finite differences over a short sliding window
// (robust to the counters being cumulative and to missed ticks), and
// lambda-hat is additionally EWMA-smoothed so a single bursty tick does
// not flap the planner. nu-hat divides handler wall time, not
// end-to-end latency, so queue-wait bias never contaminates the service
// rate (see ServerStats::busy_seconds). The loss estimate carries its
// binomial standard deviation so consumers can tell a real SLO breach
// from small-sample noise.

#include <cstddef>
#include <deque>

namespace upa::control {

/// One cumulative counter snapshot, timestamped by the sampler. All
/// values are monotone nondecreasing across samples from one server run.
struct CounterSample {
  double t = 0.0;             ///< sample time [s], any monotone clock
  double arrivals = 0.0;      ///< cumulative admitted + rejected lines
  double rejected = 0.0;      ///< cumulative admission rejections (503)
  double handled = 0.0;       ///< cumulative requests that ran a handler
  double busy_seconds = 0.0;  ///< cumulative handler wall time
};

/// Point-in-time estimate. `ready` is false until the window spans
/// enough time to difference; nu falls back to the last observed value
/// (sticky) when the window saw no completions, and to 0 when no
/// completion was ever seen -- consumers must check nu > 0.
struct RateEstimate {
  double lambda = 0.0;         ///< EWMA-smoothed arrival rate [1/s]
  double lambda_window = 0.0;  ///< raw windowed arrival rate [1/s]
  double nu = 0.0;             ///< per-server service rate [1/s]
  double loss = 0.0;           ///< windowed rejection fraction
  double loss_stddev = 0.0;    ///< binomial sigma of `loss`
  double window_seconds = 0.0;
  double window_arrivals = 0.0;
  bool ready = false;
};

class RateEstimator {
 public:
  struct Options {
    /// Sliding window the finite differences span.
    double window_seconds = 2.0;
    /// EWMA half-life for lambda: the old estimate's weight halves
    /// every this many seconds of new evidence.
    double ewma_halflife_seconds = 0.5;
    /// Estimates are not `ready` before the window spans this much.
    double min_window_seconds = 0.5;
  };

  RateEstimator() : RateEstimator(Options{}) {}
  explicit RateEstimator(Options options);

  /// Feeds one snapshot. Samples must arrive in nondecreasing t order;
  /// a sample older than the newest one is dropped.
  void observe(const CounterSample& sample);

  [[nodiscard]] RateEstimate estimate() const;

  /// Forgets all samples and smoothing state (e.g. after the observed
  /// server restarted and its counters reset).
  void reset();

 private:
  Options options_;
  std::deque<CounterSample> window_;
  double lambda_ewma_ = 0.0;
  bool lambda_seeded_ = false;
  double last_nu_ = 0.0;  ///< sticky service rate across idle windows
};

}  // namespace upa::control
