#pragma once
// The paper's four-level hierarchical framework (Figure 1):
//
//   resource level  ->  ServiceCatalog availabilities (from RBDs, Markov
//                       models, composite performability models, or plain
//                       numbers),
//   service level   ->  named services with availabilities,
//   function level  ->  FunctionModel: success probability of one function
//                       given which services are up (interaction-diagram
//                       execution paths with branch probabilities q_ij),
//   user level      ->  UserLevelModel: scenario-set-weighted probability
//                       that every function invoked in a user scenario
//                       succeeds, with shared-service dependence handled
//                       exactly by conditioning on service states. Services
//                       every path of an invoked function needs factor out
//                       as a product; only the rest are enumerated.

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "upa/profile/scenario.hpp"

namespace upa::core {

using ServiceId = std::size_t;

/// Service level: named services with availabilities. Availabilities can
/// be overwritten later (e.g. after re-solving a resource-level model).
class ServiceCatalog {
 public:
  ServiceId add(std::string name, double availability);

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& name(ServiceId id) const;
  [[nodiscard]] double availability(ServiceId id) const;
  [[nodiscard]] ServiceId id_of(const std::string& name) const;

  void set_availability(ServiceId id, double availability);

 private:
  std::vector<std::string> names_;
  std::vector<double> availability_;
};

/// One execution path of a function's interaction diagram: with
/// probability `probability` the execution takes this path and succeeds
/// iff every service in `services` is up. Path probabilities over a
/// function must sum to one.
struct ExecutionPath {
  double probability = 1.0;
  std::vector<ServiceId> services;
};

/// Function level: a function is a mixture of execution paths. The common
/// case of "needs all of these services" is a single path.
class FunctionModel {
 public:
  FunctionModel(std::string name, std::vector<ExecutionPath> paths);

  /// Convenience: single path requiring all listed services.
  [[nodiscard]] static FunctionModel all_of(std::string name,
                                            std::vector<ServiceId> services);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<ExecutionPath>& paths() const noexcept {
    return paths_;
  }

  /// Distinct services this function can touch (sorted).
  [[nodiscard]] const std::vector<ServiceId>& involved_services()
      const noexcept {
    return involved_;
  }

  /// Services on every execution path (sorted): the function fails
  /// whenever one of them is down.
  [[nodiscard]] const std::vector<ServiceId>& required_services()
      const noexcept {
    return required_;
  }

  /// Success probability given a concrete up/down state per service
  /// (indexed by ServiceId over the whole catalog).
  [[nodiscard]] double success_given(const std::vector<bool>& service_up) const;

  /// Unconditional availability under independent services.
  [[nodiscard]] double availability(const ServiceCatalog& catalog) const;

 private:
  std::string name_;
  std::vector<ExecutionPath> paths_;
  std::vector<ServiceId> involved_;
  std::vector<ServiceId> required_;
};

/// User level: functions + a scenario set over them.
class UserLevelModel {
 public:
  /// `functions[i]` models the scenario set's function i (names must
  /// match, guarding against mis-wiring).
  UserLevelModel(ServiceCatalog catalog, std::vector<FunctionModel> functions,
                 profile::ScenarioSet scenarios);

  [[nodiscard]] const ServiceCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] ServiceCatalog& catalog() noexcept { return catalog_; }
  [[nodiscard]] const profile::ScenarioSet& scenarios() const noexcept {
    return scenarios_;
  }
  [[nodiscard]] const FunctionModel& function(std::size_t i) const;

  /// P(every function in `functions` succeeds): exact expectation over the
  /// joint state of the involved services (independent services; shared
  /// services across functions handled by the conditioning). The union of
  /// the functions' required services contributes the product of their
  /// availabilities; the other involved services -- the free ones, at
  /// most 20 -- are enumerated with the required ones pinned up.
  [[nodiscard]] double joint_success(
      const std::set<std::size_t>& functions) const;

  /// Availability of one scenario class.
  [[nodiscard]] double scenario_availability(
      const profile::ScenarioClass& scenario) const;

  /// The paper's user-perceived availability: sum_i pi_i * A(scenario_i).
  [[nodiscard]] double user_availability() const;

  /// Per-scenario unavailability contributions pi_i * (1 - A(scenario_i)),
  /// aligned with scenarios().scenarios(). Summing them gives
  /// 1 - user_availability() when the scenario set is complete.
  [[nodiscard]] std::vector<double> unavailability_contributions() const;

 private:
  ServiceCatalog catalog_;
  std::vector<FunctionModel> functions_;
  profile::ScenarioSet scenarios_;
};

}  // namespace upa::core
