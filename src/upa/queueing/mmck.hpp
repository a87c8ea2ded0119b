#pragma once
// M/M/c/K multi-server finite-capacity queue — the paper's eq. (3):
// p_K(i) is the probability an arriving request is lost when i servers are
// operational and the total capacity is K. Conventions: `alpha` arrival
// rate, `nu` per-server service rate, rho = alpha / nu (NOT per-server
// utilization), c servers, capacity K >= c.

#include <cstddef>
#include <vector>

namespace upa::queueing {

/// Full steady-state description of an M/M/c/K queue.
struct MmckMetrics {
  double rho = 0.0;       ///< alpha / nu
  double blocking = 0.0;  ///< p_K
  double mean_in_system = 0.0;
  double mean_in_queue = 0.0;
  double throughput = 0.0;      ///< alpha (1 - p_K)
  double mean_response = 0.0;   ///< W for accepted requests
  double mean_busy_servers = 0.0;
  std::vector<double> state_probabilities;  ///< p_0 .. p_K
};

/// Loss probability p_K(c) of M/M/c/K (paper eq. 3; reduces to eq. 1 for
/// c = 1). Stable for any rho; the running product-form weight is
/// rescaled in-loop (exact power-of-two factors), so even extreme
/// rho/capacity combinations (rho ~ 1e3, K ~ 1e4) stay finite. Never
/// consults the evaluation cache: the O(K) recurrence is cheaper than a
/// cache hit, so callers that memoize (the composite and closed-form
/// availabilities) cache their own result instead.
[[nodiscard]] double mmck_loss_probability(double alpha, double nu,
                                           std::size_t servers,
                                           std::size_t capacity);

/// All steady-state metrics of M/M/c/K.
[[nodiscard]] MmckMetrics mmck_metrics(double alpha, double nu,
                                       std::size_t servers,
                                       std::size_t capacity);

/// The paper's web-farm usage: loss probability with `operational` servers
/// sharing one buffer of size K (capacity = K in the paper's notation).
/// Thin name-preserving wrapper so call sites read like the paper.
[[nodiscard]] double paper_pk(double alpha, double nu,
                              std::size_t operational_servers,
                              std::size_t buffer_size);

/// Result of an inverse search over the p_K(i) surface.
struct MmckSizing {
  std::size_t servers = 0;   ///< smallest feasible i (or the search cap)
  std::size_t capacity = 0;  ///< smallest feasible K for that i (or cap)
  double loss = 1.0;         ///< analytic p_K at the returned point
  bool feasible = false;     ///< loss <= target within the caps
};

/// Smallest K in [max(servers, min_capacity), max_capacity] with
/// p_K(servers) <= target_loss, exploiting that p_K is nonincreasing in
/// K at fixed (alpha, nu, i) -- a binary search over the capacity axis.
/// Infeasible searches return {servers, max_capacity, loss, false}.
[[nodiscard]] MmckSizing mmck_capacity_for_loss(double alpha, double nu,
                                                std::size_t servers,
                                                double target_loss,
                                                std::size_t max_capacity,
                                                std::size_t min_capacity = 1);

/// Smallest (i, K) -- fewest servers first, then smallest capacity --
/// with p_K(i) <= target_loss. p_K is nonincreasing in i at fixed K, so
/// the scan stops at the first feasible server count. Infeasible
/// searches return the (max_servers, max_capacity) corner with
/// feasible = false, which is still the best configuration available --
/// callers under overload apply it rather than doing nothing.
[[nodiscard]] MmckSizing mmck_smallest_config(double alpha, double nu,
                                              double target_loss,
                                              std::size_t max_servers,
                                              std::size_t max_capacity,
                                              std::size_t min_servers = 1);

}  // namespace upa::queueing
