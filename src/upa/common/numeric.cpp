#include "upa/common/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "upa/common/error.hpp"

namespace upa::common {

bool close(double a, double b, double rtol, double atol) noexcept {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

bool is_probability(double p, double tol) noexcept {
  return std::isfinite(p) && p >= -tol && p <= 1.0 + tol;
}

double clamp_probability(double p, double tol) {
  UPA_REQUIRE(is_probability(p, tol),
              "value " + std::to_string(p) + " is not a probability");
  return std::clamp(p, 0.0, 1.0);
}

double kahan_sum(std::span<const double> values) noexcept {
  double sum = 0.0;
  double carry = 0.0;
  for (double v : values) {
    const double y = v - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
  return sum;
}

double log_factorial(unsigned n) noexcept {
  // lgamma_r, not std::lgamma: the latter writes glibc's global
  // `signgam`, a data race when solvers run on several threads.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double factorial(unsigned n) {
  UPA_REQUIRE(n <= 170, "factorial(" + std::to_string(n) +
                            ") overflows double; use log_factorial");
  double result = 1.0;
  for (unsigned i = 2; i <= n; ++i) result *= static_cast<double>(i);
  return result;
}

double binomial(unsigned n, unsigned k) noexcept {
  if (k > n) return 0.0;
  return std::exp(log_factorial(n) - log_factorial(k) -
                  log_factorial(n - k));
}

double k_out_of_n(unsigned k, unsigned n, double p) {
  UPA_REQUIRE(k >= 1 && k <= n, "k-out-of-n requires 1 <= k <= n");
  const double q = 1.0 - clamp_probability(p);
  double sum = 0.0;
  for (unsigned i = k; i <= n; ++i) {
    sum += binomial(n, i) * std::pow(p, static_cast<double>(i)) *
           std::pow(q, static_cast<double>(n - i));
  }
  return std::clamp(sum, 0.0, 1.0);
}

void normalize(std::vector<double>& weights) {
  const double total = kahan_sum(weights);
  UPA_REQUIRE(std::isfinite(total) && total > 0.0,
              "cannot normalize: weight sum " + std::to_string(total));
  for (double& w : weights) w /= total;
}

}  // namespace upa::common
