#include "upa/ta/user_availability.hpp"

#include "upa/common/error.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/ta/functions.hpp"
#include "upa/ta/model_builder.hpp"
#include "upa/ta/services.hpp"

namespace upa::ta {

Eq10Masses eq10_category_masses(const profile::ScenarioSet& scenarios) {
  Eq10Masses m;
  for (const profile::ScenarioClass& sc : scenarios.scenarios()) {
    switch (category_of(sc)) {
      case ScenarioCategory::kSC1:
        if (sc.functions.contains(function_index(TaFunction::kBrowse))) {
          m.browse += sc.probability;
        } else {
          m.home_only += sc.probability;
        }
        break;
      case ScenarioCategory::kSC2:
      case ScenarioCategory::kSC3:
        m.search_no_pay += sc.probability;
        break;
      case ScenarioCategory::kSC4:
        m.pay += sc.probability;
        break;
    }
  }
  return m;
}

double user_availability_eq10(UserClass uc, const TaParameters& p) {
  return user_availability_eq10_scenarios(scenario_table(uc), p);
}

double user_availability_eq10_scenarios(
    const profile::ScenarioSet& scenarios, const TaParameters& p) {
  const ServiceAvailabilities s = compute_services(p);
  const Eq10Masses m = eq10_category_masses(scenarios);
  const double browse_bracket =
      p.q23 + s.application * (p.q24 * p.q45 + p.q24 * p.q47 * s.database);
  const double search_factor =
      s.application * s.database * s.flight * s.hotel * s.car;
  return s.net * s.lan * s.web *
         (m.home_only + m.browse * browse_bracket +
          search_factor * (m.search_no_pay + m.pay * s.payment));
}

double user_availability_hierarchical(UserClass uc, const TaParameters& p) {
  return build_user_model(uc, p).user_availability();
}

double retry_adjusted_availability(double availability,
                                   std::size_t max_retries,
                                   double abandonment_probability) {
  UPA_REQUIRE(availability >= 0.0 && availability <= 1.0,
              "availability must lie in [0, 1]");
  UPA_REQUIRE(abandonment_probability >= 0.0 &&
                  abandonment_probability <= 1.0,
              "abandonment probability must lie in [0, 1]");
  const double q = (1.0 - availability) * (1.0 - abandonment_probability);
  double reach = 1.0;  // probability the (k+1)-th attempt is issued
  double success = 0.0;
  for (std::size_t k = 0; k <= max_retries; ++k) {
    success += reach * availability;
    reach *= q;
  }
  return success;
}

double user_availability_with_retries(UserClass uc, const TaParameters& p,
                                      const inject::RetryPolicy& retry) {
  retry.validate();
  ServiceAvailabilities s = compute_services(p);
  if (retry.response_timeout_seconds > 0.0) {
    // A request that misses the deadline is perceived as failed, so the
    // web service contributes its deadline-aware availability.
    const core::WebFarmParams farm = web_farm_params(p);
    const core::WebQueueParams queue = web_queue_params(p);
    const bool perfect = p.coverage_model == CoverageModel::kPerfect ||
                         p.architecture == Architecture::kBasic;
    s.web = perfect
                ? core::web_service_availability_perfect_with_deadline(
                      farm, queue, retry.response_timeout_seconds)
                : core::web_service_availability_imperfect_with_deadline(
                      farm, queue, retry.response_timeout_seconds);
  }
  const profile::ScenarioSet table = scenario_table(uc);
  double total = 0.0;
  for (const profile::ScenarioClass& sc : table.scenarios()) {
    double product = 1.0;
    for (TaFunction f : kAllFunctions) {
      if (!sc.functions.contains(function_index(f))) continue;
      product *= retry_adjusted_availability(
          function_availability(f, s, p), retry.max_retries,
          retry.abandonment_probability);
    }
    total += sc.probability * product;
  }
  return total;
}

CategoryBreakdown category_breakdown(UserClass uc, const TaParameters& p) {
  const core::UserLevelModel model = build_user_model(uc, p);
  const std::vector<double> contributions =
      model.unavailability_contributions();
  const auto& scenarios = model.scenarios().scenarios();
  UPA_ASSERT(contributions.size() == scenarios.size());

  CategoryBreakdown breakdown;
  breakdown.unavailability = {
      {ScenarioCategory::kSC1, 0.0},
      {ScenarioCategory::kSC2, 0.0},
      {ScenarioCategory::kSC3, 0.0},
      {ScenarioCategory::kSC4, 0.0},
  };
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    breakdown.unavailability[category_of(scenarios[i])] += contributions[i];
    breakdown.total_unavailability += contributions[i];
  }
  return breakdown;
}

}  // namespace upa::ta
