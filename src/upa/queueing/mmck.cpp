#include "upa/queueing/mmck.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "upa/cache/eval_cache.hpp"
#include "upa/common/error.hpp"
#include "upa/common/numeric.hpp"

namespace upa::queueing {
namespace {

void check_args(double alpha, double nu, std::size_t servers,
                std::size_t capacity) {
  UPA_REQUIRE(std::isfinite(alpha) && alpha > 0.0,
              "arrival rate must be positive");
  UPA_REQUIRE(std::isfinite(nu) && nu > 0.0, "service rate must be positive");
  UPA_REQUIRE(servers >= 1, "need at least one server");
  UPA_REQUIRE(capacity >= servers,
              "capacity must be at least the number of servers");
}

/// Unnormalized birth-death weights w_j with w_0 = 1:
/// w_j = w_{j-1} * rho / min(j, c). Stable (no factorials/powers), and
/// rescaled in-loop by an exact power of two whenever the running weight
/// crosses 2^512, so extreme loads (rho ~ 1e3 with K ~ 1e4 grows like
/// (rho/c)^K) stay finite instead of overflowing the one-shot
/// normalization. Only the ratio of weights matters downstream, and a
/// power-of-two rescale is exact, so cases that never trigger it keep
/// their historical bits; rescaled prefixes may flush weights below
/// ~2^-512 of the peak to zero, which is far under the 1e-16 resolution
/// of the normalized sum.
std::vector<double> weights(double rho, std::size_t servers,
                            std::size_t capacity) {
  constexpr double kRescaleAbove = 0x1p512;
  constexpr double kRescale = 0x1p-512;
  std::vector<double> w(capacity + 1);
  w[0] = 1.0;
  for (std::size_t j = 1; j <= capacity; ++j) {
    w[j] = w[j - 1] * rho / static_cast<double>(std::min(j, servers));
    if (w[j] > kRescaleAbove) {
      for (std::size_t k = 0; k <= j; ++k) w[k] *= kRescale;
    }
  }
  return w;
}

MmckMetrics mmck_metrics_uncached(double alpha, double nu,
                                  std::size_t servers, std::size_t capacity);

}  // namespace

double mmck_loss_probability(double alpha, double nu, std::size_t servers,
                             std::size_t capacity) {
  check_args(alpha, nu, servers, capacity);
  // Never memoized: this O(K) recurrence runs in less time than a warm
  // cache hit costs, and a cache entry per call would make every
  // composite miss pay N_W extra lookups and disk appends.
  const std::vector<double> w = weights(alpha / nu, servers, capacity);
  return w[capacity] / upa::common::kahan_sum(w);
}

MmckMetrics mmck_metrics(double alpha, double nu, std::size_t servers,
                         std::size_t capacity) {
  check_args(alpha, nu, servers, capacity);
  if (!cache::enabled()) {
    return mmck_metrics_uncached(alpha, nu, servers, capacity);
  }
  cache::KeyBuilder kb("queueing.mmck_metrics", 1);
  kb.add(alpha)
      .add(nu)
      .add(static_cast<std::uint64_t>(servers))
      .add(static_cast<std::uint64_t>(capacity));
  return *cache::global().get_or_compute<MmckMetrics>(
      std::move(kb).finish(),
      [&] { return mmck_metrics_uncached(alpha, nu, servers, capacity); });
}

namespace {

MmckMetrics mmck_metrics_uncached(double alpha, double nu,
                                  std::size_t servers, std::size_t capacity) {
  MmckMetrics m;
  m.rho = alpha / nu;
  std::vector<double> w = weights(m.rho, servers, capacity);
  upa::common::normalize(w);
  m.state_probabilities = w;
  m.blocking = w[capacity];
  for (std::size_t j = 0; j <= capacity; ++j) {
    m.mean_in_system += static_cast<double>(j) * w[j];
    m.mean_busy_servers +=
        static_cast<double>(std::min(j, servers)) * w[j];
    if (j > servers) {
      m.mean_in_queue += static_cast<double>(j - servers) * w[j];
    }
  }
  m.throughput = alpha * (1.0 - m.blocking);
  m.mean_response = m.mean_in_system / m.throughput;  // Little's law
  return m;
}

}  // namespace

double paper_pk(double alpha, double nu, std::size_t operational_servers,
                std::size_t buffer_size) {
  return mmck_loss_probability(alpha, nu, operational_servers, buffer_size);
}

MmckSizing mmck_capacity_for_loss(double alpha, double nu,
                                  std::size_t servers, double target_loss,
                                  std::size_t max_capacity,
                                  std::size_t min_capacity) {
  check_args(alpha, nu, servers, std::max(servers, max_capacity));
  UPA_REQUIRE(std::isfinite(target_loss) && target_loss > 0.0 &&
                  target_loss < 1.0,
              "target loss must be in (0, 1)");
  UPA_REQUIRE(max_capacity >= servers,
              "max capacity must be at least the server count");
  MmckSizing out;
  out.servers = servers;
  std::size_t lo = std::max({servers, min_capacity, std::size_t{1}});
  std::size_t hi = std::max(lo, max_capacity);
  out.capacity = hi;
  out.loss = mmck_loss_probability(alpha, nu, servers, hi);
  if (out.loss > target_loss) return out;  // even the cap misses the SLO
  out.feasible = true;
  // Invariant: loss(hi) <= target < loss(lo - 1); shrink to the smallest
  // feasible K. p_K is nonincreasing in K, so bisection applies.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (mmck_loss_probability(alpha, nu, servers, mid) <= target_loss) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  out.capacity = hi;
  out.loss = mmck_loss_probability(alpha, nu, servers, hi);
  return out;
}

MmckSizing mmck_smallest_config(double alpha, double nu, double target_loss,
                                std::size_t max_servers,
                                std::size_t max_capacity,
                                std::size_t min_servers) {
  UPA_REQUIRE(min_servers >= 1, "min servers must be >= 1");
  UPA_REQUIRE(max_servers >= min_servers,
              "max servers must be >= min servers");
  UPA_REQUIRE(max_capacity >= max_servers,
              "max capacity must be >= max servers");
  MmckSizing best;
  for (std::size_t i = min_servers; i <= max_servers; ++i) {
    best = mmck_capacity_for_loss(alpha, nu, i, target_loss, max_capacity);
    if (best.feasible) return best;
  }
  return best;  // the (max_servers, max_capacity) corner, infeasible
}

}  // namespace upa::queueing
