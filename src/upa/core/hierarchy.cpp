#include "upa/core/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "upa/common/error.hpp"
#include "upa/common/numeric.hpp"

namespace upa::core {

ServiceId ServiceCatalog::add(std::string name, double availability) {
  UPA_REQUIRE(!name.empty(), "service name must not be empty");
  for (const std::string& existing : names_) {
    UPA_REQUIRE(existing != name, "duplicate service " + name);
  }
  names_.push_back(std::move(name));
  availability_.push_back(upa::common::clamp_probability(availability));
  return names_.size() - 1;
}

const std::string& ServiceCatalog::name(ServiceId id) const {
  UPA_REQUIRE(id < names_.size(), "service id out of range");
  return names_[id];
}

double ServiceCatalog::availability(ServiceId id) const {
  UPA_REQUIRE(id < availability_.size(), "service id out of range");
  return availability_[id];
}

ServiceId ServiceCatalog::id_of(const std::string& name) const {
  for (ServiceId id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  throw upa::common::ModelError("unknown service " + name);
}

void ServiceCatalog::set_availability(ServiceId id, double availability) {
  UPA_REQUIRE(id < availability_.size(), "service id out of range");
  availability_[id] = upa::common::clamp_probability(availability);
}

namespace {

std::vector<ServiceId> sorted_unique(std::vector<ServiceId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// P(every function in `functions` succeeds) under independent services.
/// A function's success is zero whenever one of its required services is
/// down, so the union of the required services factors out as the product
/// of their availabilities. Only the remaining free services are
/// enumerated, 2^|free| states with the required ones pinned up.
double joint_success_of(const ServiceCatalog& catalog,
                        const std::vector<const FunctionModel*>& functions) {
  std::vector<ServiceId> required;
  std::vector<ServiceId> involved;
  for (const FunctionModel* f : functions) {
    const auto& r = f->required_services();
    const auto& i = f->involved_services();
    required.insert(required.end(), r.begin(), r.end());
    involved.insert(involved.end(), i.begin(), i.end());
  }
  required = sorted_unique(std::move(required));
  involved = sorted_unique(std::move(involved));
  UPA_REQUIRE(involved.empty() || involved.back() < catalog.size(),
              "service id out of range");
  std::vector<ServiceId> free;
  std::set_difference(involved.begin(), involved.end(), required.begin(),
                      required.end(), std::back_inserter(free));
  const std::size_t m = free.size();
  UPA_REQUIRE(m <= 20, "too many free services for exact enumeration");

  double pinned = 1.0;
  for (ServiceId s : required) pinned *= catalog.availability(s);
  if (pinned == 0.0) return 0.0;

  double total = 0.0;
  std::vector<bool> state(catalog.size(), false);
  for (ServiceId s : required) state[s] = true;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const bool up = mask & (std::size_t{1} << i);
      const double a = catalog.availability(free[i]);
      weight *= up ? a : 1.0 - a;
      state[free[i]] = up;
    }
    if (weight == 0.0) continue;
    double joint = 1.0;
    for (const FunctionModel* f : functions) {
      joint *= f->success_given(state);
      if (joint == 0.0) break;
    }
    total += weight * joint;
  }
  return pinned * total;
}

}  // namespace

FunctionModel::FunctionModel(std::string name,
                             std::vector<ExecutionPath> paths)
    : name_(std::move(name)), paths_(std::move(paths)) {
  UPA_REQUIRE(!name_.empty(), "function name must not be empty");
  UPA_REQUIRE(!paths_.empty(), "function needs at least one execution path");
  double total = 0.0;
  required_ = sorted_unique(paths_.front().services);
  for (const ExecutionPath& path : paths_) {
    UPA_REQUIRE(upa::common::is_probability(path.probability),
                "path probability out of range in function " + name_);
    total += path.probability;
    involved_.insert(involved_.end(), path.services.begin(),
                     path.services.end());
    const std::vector<ServiceId> on_path = sorted_unique(path.services);
    std::vector<ServiceId> common;
    std::set_intersection(required_.begin(), required_.end(),
                          on_path.begin(), on_path.end(),
                          std::back_inserter(common));
    required_ = std::move(common);
  }
  UPA_REQUIRE(std::abs(total - 1.0) <= 1e-9,
              "path probabilities of function " + name_ + " sum to " +
                  std::to_string(total));
  involved_ = sorted_unique(std::move(involved_));
}

FunctionModel FunctionModel::all_of(std::string name,
                                    std::vector<ServiceId> services) {
  return FunctionModel(std::move(name),
                       {ExecutionPath{1.0, std::move(services)}});
}

double FunctionModel::success_given(
    const std::vector<bool>& service_up) const {
  double success = 0.0;
  for (const ExecutionPath& path : paths_) {
    bool all_up = true;
    for (ServiceId s : path.services) {
      UPA_REQUIRE(s < service_up.size(), "service id out of range");
      if (!service_up[s]) {
        all_up = false;
        break;
      }
    }
    if (all_up) success += path.probability;
  }
  return success;
}

double FunctionModel::availability(const ServiceCatalog& catalog) const {
  return joint_success_of(catalog, {this});
}

UserLevelModel::UserLevelModel(ServiceCatalog catalog,
                               std::vector<FunctionModel> functions,
                               profile::ScenarioSet scenarios)
    : catalog_(std::move(catalog)),
      functions_(std::move(functions)),
      scenarios_(std::move(scenarios)) {
  UPA_REQUIRE(functions_.size() == scenarios_.function_names().size(),
              "one FunctionModel per scenario-set function required");
  for (std::size_t i = 0; i < functions_.size(); ++i) {
    UPA_REQUIRE(functions_[i].name() == scenarios_.function_names()[i],
                "function model '" + functions_[i].name() +
                    "' does not match scenario function '" +
                    scenarios_.function_names()[i] + "'");
  }
}

const FunctionModel& UserLevelModel::function(std::size_t i) const {
  UPA_REQUIRE(i < functions_.size(), "function index out of range");
  return functions_[i];
}

double UserLevelModel::joint_success(
    const std::set<std::size_t>& functions) const {
  UPA_REQUIRE(!functions.empty(), "need at least one function");
  std::vector<const FunctionModel*> invoked;
  invoked.reserve(functions.size());
  for (std::size_t f : functions) {
    UPA_REQUIRE(f < functions_.size(), "function index out of range");
    invoked.push_back(&functions_[f]);
  }
  return joint_success_of(catalog_, invoked);
}

double UserLevelModel::scenario_availability(
    const profile::ScenarioClass& scenario) const {
  return joint_success(scenario.functions);
}

double UserLevelModel::user_availability() const {
  scenarios_.validate_complete();
  double total = 0.0;
  for (const profile::ScenarioClass& scenario : scenarios_.scenarios()) {
    total += scenario.probability * scenario_availability(scenario);
  }
  return total;
}

std::vector<double> UserLevelModel::unavailability_contributions() const {
  std::vector<double> contributions;
  contributions.reserve(scenarios_.scenarios().size());
  for (const profile::ScenarioClass& scenario : scenarios_.scenarios()) {
    contributions.push_back(scenario.probability *
                            (1.0 - scenario_availability(scenario)));
  }
  return contributions;
}

}  // namespace upa::core
