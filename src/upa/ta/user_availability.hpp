#pragma once
// User-level availability of the travel agency: the paper's eq. (10)
// closed form, the hierarchical-model evaluation (which must agree), and
// the Section 5.2 scenario-category breakdown behind Figure 13.

#include <map>

#include "upa/core/hierarchy.hpp"
#include "upa/inject/retry.hpp"
#include "upa/ta/user_classes.hpp"

namespace upa::ta {

/// Scenario mass behind each term of eq. (10): SC1 without Browse
/// (pi_1), SC1 with Browse (pi_2 + pi_3), SC2-SC3 (pi_4..pi_9) and SC4
/// (pi_10..pi_12). The one accumulation the numeric and symbolic forms
/// of eq. (10) share.
struct Eq10Masses {
  double home_only = 0.0;
  double browse = 0.0;
  double search_no_pay = 0.0;
  double pay = 0.0;
};

[[nodiscard]] Eq10Masses eq10_category_masses(
    const profile::ScenarioSet& scenarios);

/// Paper eq. (10): closed-form user-perceived availability for a user
/// class under the given parameters.
[[nodiscard]] double user_availability_eq10(UserClass uc,
                                            const TaParameters& p);

/// Paper eq. (10) evaluated over an arbitrary scenario set -- e.g. a
/// class mix mined from collected traces -- instead of the built-in
/// Table 1. Scenario function indices must follow TaFunction order
/// (Home=0 .. Pay=4). Categories are derived from each scenario's
/// visited set via category_of, so partial tables (mined mixes missing
/// rare classes) evaluate to the availability of the mass they cover;
/// callers wanting a probability should normalize the set first. With
/// scenario_table(uc) this reproduces user_availability_eq10(uc, p)
/// bit for bit.
[[nodiscard]] double user_availability_eq10_scenarios(
    const profile::ScenarioSet& scenarios, const TaParameters& p);

/// The same measure evaluated through the generic four-level hierarchy
/// (core::UserLevelModel) — service-sharing across functions handled by
/// exact conditioning. Equals eq. (10) to floating-point accuracy; kept
/// separate as a structural cross-check.
[[nodiscard]] double user_availability_hierarchical(UserClass uc,
                                                    const TaParameters& p);

/// Success probability of an invocation retried up to `max_retries` times
/// when each attempt succeeds independently with probability
/// `availability` and the user abandons with `abandonment_probability`
/// before each retry:  a * sum_{k=0..R} [(1-a)(1-p_ab)]^k.
/// With p_ab = 0 this is the classic 1 - (1-a)^(R+1).
[[nodiscard]] double retry_adjusted_availability(
    double availability, std::size_t max_retries,
    double abandonment_probability = 0.0);

/// Retry-adjusted analytic user availability: every function invocation of
/// a scenario is retried per `retry` and attempts are assumed INDEPENDENT
/// (sum over scenarios of pi_sc * prod_f retry_adjusted(A_F)). A response
/// deadline in the policy swaps A(WS) for its deadline-aware counterpart.
///
/// Contrast with eq. (10), which freezes the resource state for the whole
/// session (failures positively correlated across invocations, which helps
/// joint success): at R = 0 this function gives the independent-invocation
/// approximation, NOT eq. (10), and the gap to the retry-enabled
/// end-to-end simulator quantifies the frozen-state correlation the paper
/// assumes away.
[[nodiscard]] double user_availability_with_retries(
    UserClass uc, const TaParameters& p, const inject::RetryPolicy& retry);

/// Per-category unavailability contributions UA(SC_i) (probability units;
/// multiply by 8760 for hours/year) plus the total.
struct CategoryBreakdown {
  std::map<ScenarioCategory, double> unavailability;
  double total_unavailability = 0.0;
};
[[nodiscard]] CategoryBreakdown category_breakdown(UserClass uc,
                                                   const TaParameters& p);

}  // namespace upa::ta
