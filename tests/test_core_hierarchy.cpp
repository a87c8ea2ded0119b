// Tests for the four-level hierarchical framework: service catalog,
// function models over execution paths, and user-level joint availability
// with shared-service dependence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "upa/common/error.hpp"
#include "upa/core/hierarchy.hpp"
#include "upa/core/performability.hpp"

namespace uc = upa::core;
namespace up = upa::profile;
using upa::common::ModelError;

TEST(ServiceCatalog, AddLookupUpdate) {
  uc::ServiceCatalog catalog;
  const auto web = catalog.add("web", 0.99);
  const auto db = catalog.add("db", 0.95);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.name(web), "web");
  EXPECT_DOUBLE_EQ(catalog.availability(db), 0.95);
  EXPECT_EQ(catalog.id_of("db"), db);
  catalog.set_availability(db, 0.97);
  EXPECT_DOUBLE_EQ(catalog.availability(db), 0.97);
  EXPECT_THROW((void)catalog.id_of("nope"), ModelError);
  EXPECT_THROW((void)catalog.add("web", 0.5), ModelError);
}

TEST(FunctionModel, AllOfIsProductOfAvailabilities) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.8);
  const auto f = uc::FunctionModel::all_of("F", {a, b});
  EXPECT_NEAR(f.availability(catalog), 0.72, 1e-12);
}

TEST(FunctionModel, MixtureOfPathsMatchesBrowseFormula) {
  // Browse-like: q1 needs {ws}, q2 needs {ws, as}, q3 needs {ws, as, ds}.
  uc::ServiceCatalog catalog;
  const auto ws = catalog.add("ws", 0.99);
  const auto as = catalog.add("as", 0.95);
  const auto ds = catalog.add("ds", 0.90);
  const uc::FunctionModel browse(
      "Browse", {uc::ExecutionPath{0.2, {ws}},
                 uc::ExecutionPath{0.32, {ws, as}},
                 uc::ExecutionPath{0.48, {ws, as, ds}}});
  const double expected =
      0.99 * (0.2 + 0.95 * (0.32 + 0.48 * 0.90));
  EXPECT_NEAR(browse.availability(catalog), expected, 1e-12);
}

TEST(FunctionModel, PathProbabilitiesMustSumToOne) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  EXPECT_THROW(uc::FunctionModel("bad", {uc::ExecutionPath{0.5, {a}}}),
               ModelError);
}

TEST(FunctionModel, SuccessGivenStates) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.9);
  const uc::FunctionModel f(
      "F", {uc::ExecutionPath{0.6, {a}}, uc::ExecutionPath{0.4, {a, b}}});
  EXPECT_DOUBLE_EQ(f.success_given({true, true}), 1.0);
  EXPECT_DOUBLE_EQ(f.success_given({true, false}), 0.6);
  EXPECT_DOUBLE_EQ(f.success_given({false, true}), 0.0);
}

TEST(FunctionModel, InvolvedServicesDeduplicated) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.9);
  const uc::FunctionModel f(
      "F", {uc::ExecutionPath{0.5, {a, b}}, uc::ExecutionPath{0.5, {b}}});
  EXPECT_EQ(f.involved_services().size(), 2u);
}

namespace {

/// Two functions sharing service "shared"; scenario invokes both.
uc::UserLevelModel shared_service_model(double a_shared, double a_own1,
                                        double a_own2) {
  uc::ServiceCatalog catalog;
  const auto shared = catalog.add("shared", a_shared);
  const auto own1 = catalog.add("own1", a_own1);
  const auto own2 = catalog.add("own2", a_own2);
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel::all_of("F", {shared, own1}));
  functions.push_back(uc::FunctionModel::all_of("G", {shared, own2}));
  up::ScenarioSet scenarios({"F", "G"});
  scenarios.add("St-F-Ex", {0}, 0.3);
  scenarios.add("St-G-Ex", {1}, 0.3);
  scenarios.add("St-F-G-Ex", {0, 1}, 0.4);
  return uc::UserLevelModel(std::move(catalog), std::move(functions),
                            std::move(scenarios));
}

}  // namespace

TEST(UserLevel, SharedServiceCountedOnce) {
  const auto model = shared_service_model(0.9, 0.8, 0.7);
  // Joint(F, G) = a_shared * a_own1 * a_own2, NOT a_shared^2 * ...
  EXPECT_NEAR(model.joint_success({0, 1}), 0.9 * 0.8 * 0.7, 1e-12);
  EXPECT_NEAR(model.joint_success({0}), 0.9 * 0.8, 1e-12);
}

TEST(UserLevel, UserAvailabilityIsScenarioWeighted) {
  const auto model = shared_service_model(0.9, 0.8, 0.7);
  const double expected = 0.3 * (0.9 * 0.8) + 0.3 * (0.9 * 0.7) +
                          0.4 * (0.9 * 0.8 * 0.7);
  EXPECT_NEAR(model.user_availability(), expected, 1e-12);
}

TEST(UserLevel, UnavailabilityContributionsSumToComplement) {
  const auto model = shared_service_model(0.95, 0.9, 0.85);
  const auto contributions = model.unavailability_contributions();
  double total = 0.0;
  for (double c : contributions) total += c;
  EXPECT_NEAR(total, 1.0 - model.user_availability(), 1e-12);
}

TEST(UserLevel, FunctionNameMismatchRejected) {
  uc::ServiceCatalog catalog;
  const auto s = catalog.add("s", 0.9);
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel::all_of("WrongName", {s}));
  up::ScenarioSet scenarios({"F"});
  scenarios.add("St-F-Ex", {0}, 1.0);
  EXPECT_THROW(uc::UserLevelModel(std::move(catalog), std::move(functions),
                                  std::move(scenarios)),
               ModelError);
}

TEST(UserLevel, MixturePathsInteractExactly) {
  // F is a mixture over {s1} and {s1, s2}; G requires {s2}. In a joint
  // scenario the s2-dependence of F and G is correlated through s2.
  uc::ServiceCatalog catalog;
  const auto s1 = catalog.add("s1", 0.9);
  const auto s2 = catalog.add("s2", 0.5);
  std::vector<uc::FunctionModel> functions;
  functions.push_back(uc::FunctionModel(
      "F", {uc::ExecutionPath{0.5, {s1}}, uc::ExecutionPath{0.5, {s1, s2}}}));
  functions.push_back(uc::FunctionModel::all_of("G", {s2}));
  up::ScenarioSet scenarios({"F", "G"});
  scenarios.add("St-F-G-Ex", {0, 1}, 1.0);
  const uc::UserLevelModel model(std::move(catalog), std::move(functions),
                                 std::move(scenarios));
  // Exact: E[F G] = P(s1 up) * P(s2 up) * 1 (given s2 up, F succeeds w.p.
  // 1 since both paths work) = 0.9 * 0.5. Naive independent-product would
  // give A(F) * A(G) = 0.9*0.75 * 0.5 = 0.3375.
  EXPECT_NEAR(model.user_availability(), 0.45, 1e-12);
  EXPECT_NEAR(model.function(0).availability(model.catalog()), 0.675,
              1e-12);
}

TEST(FunctionModel, RequiredServicesAreOnEveryPath) {
  uc::ServiceCatalog catalog;
  const auto ws = catalog.add("ws", 0.99);
  const auto as = catalog.add("as", 0.95);
  const auto ds = catalog.add("ds", 0.90);
  const uc::FunctionModel browse(
      "Browse", {uc::ExecutionPath{0.2, {ws}},
                 uc::ExecutionPath{0.32, {as, ws}},
                 uc::ExecutionPath{0.48, {ws, as, ds}}});
  EXPECT_EQ(browse.required_services(), std::vector<uc::ServiceId>{ws});
  const auto all = uc::FunctionModel::all_of("All", {ds, ws, ds});
  EXPECT_EQ(all.required_services(), (std::vector<uc::ServiceId>{ws, ds}));
}

namespace {

/// Reference for the conditioning kernel: the plain expectation over all
/// 2^m joint states of the involved services, nothing factored out.
double brute_force_joint(const uc::ServiceCatalog& catalog,
                         const std::vector<const uc::FunctionModel*>& fns) {
  std::set<uc::ServiceId> union_of;
  for (const uc::FunctionModel* f : fns) {
    union_of.insert(f->involved_services().begin(),
                    f->involved_services().end());
  }
  const std::vector<uc::ServiceId> involved(union_of.begin(),
                                            union_of.end());
  const std::size_t m = involved.size();
  double total = 0.0;
  std::vector<bool> state(catalog.size(), false);
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const bool up = mask & (std::size_t{1} << i);
      const double a = catalog.availability(involved[i]);
      weight *= up ? a : 1.0 - a;
      state[involved[i]] = up;
    }
    double joint = 1.0;
    for (const uc::FunctionModel* f : fns) joint *= f->success_given(state);
    total += weight * joint;
  }
  return total;
}

void expect_relative(double got, double want, double rel) {
  EXPECT_LE(std::abs(got - want),
            rel * std::max(std::abs(got), std::abs(want)))
      << "got " << got << " want " << want;
}

/// Random multi-path function over `n` services. With probability 0.8 the
/// paths share a random core (the required services); otherwise they
/// are drawn independently and may share nothing.
uc::FunctionModel random_function(std::mt19937_64& rng, std::size_t n,
                                  const std::string& name) {
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<uc::ServiceId> core;
  if (unit(rng) < 0.8) {
    const std::size_t k = 1 + pick(rng) % 3;
    for (std::size_t i = 0; i < k; ++i) core.push_back(pick(rng));
  }
  const std::size_t paths = 1 + pick(rng) % 3;
  std::vector<uc::ExecutionPath> out;
  double left = 1.0;
  for (std::size_t p = 0; p < paths; ++p) {
    uc::ExecutionPath path;
    path.probability = p + 1 == paths ? left : left * unit(rng);
    left -= path.probability;
    path.services = core;
    const std::size_t extra = pick(rng) % 3 + (core.empty() ? 1 : 0);
    for (std::size_t i = 0; i < extra; ++i) {
      path.services.push_back(pick(rng));
    }
    out.push_back(std::move(path));
  }
  return uc::FunctionModel(name, std::move(out));
}

}  // namespace

TEST(UserLevelProperty, FactoredKernelMatchesBruteForce) {
  std::mt19937_64 rng(20030623);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(trial % 7);
    uc::ServiceCatalog catalog;
    for (std::size_t s = 0; s < n; ++s) {
      // Exact 0 and 1 availabilities exercise the pinned product's
      // zero short-cut and the weight-zero skip.
      const double u = unit(rng);
      const double a = u < 0.05 ? 0.0 : u < 0.1 ? 1.0
                                 : u < 0.55 ? 0.9 + 0.1 * unit(rng)
                                            : unit(rng);
      catalog.add("s" + std::to_string(s), a);
    }
    const std::size_t k = 1 + static_cast<std::size_t>(trial % 4);
    std::vector<std::string> names;
    std::vector<uc::FunctionModel> functions;
    for (std::size_t f = 0; f < k; ++f) {
      names.push_back("F" + std::to_string(f));
      functions.push_back(random_function(rng, n, names.back()));
    }
    for (const uc::FunctionModel& f : functions) {
      expect_relative(f.availability(catalog),
                      brute_force_joint(catalog, {&f}), 1e-15);
    }
    up::ScenarioSet scenarios(names);
    scenarios.add("first", {0}, 1.0);
    const uc::UserLevelModel model(catalog, functions, std::move(scenarios));
    for (std::size_t subset = 1; subset < (std::size_t{1} << k); ++subset) {
      std::set<std::size_t> invoked;
      std::vector<const uc::FunctionModel*> fns;
      for (std::size_t f = 0; f < k; ++f) {
        if (!(subset & (std::size_t{1} << f))) continue;
        invoked.insert(f);
        fns.push_back(&functions[f]);
      }
      expect_relative(model.joint_success(invoked),
                      brute_force_joint(catalog, fns), 1e-15);
    }
  }
}

TEST(UserLevelProperty, DisjointPathsLeaveEveryServiceFree) {
  uc::ServiceCatalog catalog;
  const auto a = catalog.add("a", 0.9);
  const auto b = catalog.add("b", 0.6);
  const auto c = catalog.add("c", 0.0);
  const uc::FunctionModel f("F", {uc::ExecutionPath{0.3, {a}},
                                  uc::ExecutionPath{0.5, {b}},
                                  uc::ExecutionPath{0.2, {c}}});
  EXPECT_TRUE(f.required_services().empty());
  EXPECT_EQ(f.involved_services().size(), 3u);
  expect_relative(f.availability(catalog), 0.3 * 0.9 + 0.5 * 0.6, 1e-15);
  expect_relative(f.availability(catalog), brute_force_joint(catalog, {&f}),
                  1e-15);
}

TEST(UserLevelProperty, TwentyFreeBoundsTheEnumerationNotTheInvolvedSet) {
  // F needs 22 services on both paths and 2 more on one of them: 24
  // involved, 2 free. G needs 11 of F's required services and 3 free
  // ones of its own, so {F, G} involves 27 services with 5 free.
  uc::ServiceCatalog catalog;
  std::vector<uc::ServiceId> core;
  double core_product = 1.0;
  for (int s = 0; s < 22; ++s) {
    const double a = 0.99 - 0.001 * s;
    core.push_back(catalog.add("core" + std::to_string(s), a));
    core_product *= a;
  }
  const auto x = catalog.add("x", 0.8);
  const auto y = catalog.add("y", 0.7);
  std::vector<uc::ServiceId> with_xy = core;
  with_xy.push_back(x);
  with_xy.push_back(y);
  const uc::FunctionModel f(
      "F", {uc::ExecutionPath{0.4, core}, uc::ExecutionPath{0.6, with_xy}});
  EXPECT_EQ(f.involved_services().size(), 24u);
  EXPECT_EQ(f.required_services().size(), 22u);
  expect_relative(f.availability(catalog),
                  core_product * (0.4 + 0.6 * 0.8 * 0.7), 1e-14);

  std::vector<uc::ServiceId> half(core.begin(), core.begin() + 11);
  std::vector<uc::ExecutionPath> g_paths;
  double g_free = 0.0;
  for (int i = 0; i < 3; ++i) {
    const double a = 0.5 + 0.1 * i;
    std::vector<uc::ServiceId> path = half;
    path.push_back(catalog.add("g" + std::to_string(i), a));
    g_paths.push_back(uc::ExecutionPath{1.0 / 3.0, path});
    g_free += a / 3.0;
  }
  std::vector<uc::FunctionModel> functions{f, uc::FunctionModel("G", g_paths)};
  up::ScenarioSet scenarios({"F", "G"});
  scenarios.add("both", {0, 1}, 1.0);
  const uc::UserLevelModel model(catalog, functions, std::move(scenarios));
  // G's core is a subset of F's, so it is counted once.
  expect_relative(model.joint_success({0, 1}),
                  core_product * (0.4 + 0.6 * 0.8 * 0.7) * g_free, 1e-14);
}

TEST(UserLevelProperty, MoreThanTwentyFreeServicesStillThrows) {
  uc::ServiceCatalog catalog;
  std::vector<uc::ExecutionPath> wide;
  std::vector<uc::ExecutionPath> narrow;
  for (int s = 0; s < 21; ++s) {
    const auto id = catalog.add("s" + std::to_string(s), 0.9);
    wide.push_back(uc::ExecutionPath{1.0 / 21.0, {id}});
    if (s < 11) narrow.push_back(uc::ExecutionPath{1.0 / 11.0, {id}});
  }
  const uc::FunctionModel f("F", wide);
  EXPECT_THROW((void)f.availability(catalog), ModelError);

  // 11 + 10 disjoint single-service paths: each function alone is fine,
  // jointly they leave 21 services free.
  std::vector<uc::ExecutionPath> rest(wide.begin() + 11, wide.end());
  for (auto& path : rest) path.probability = 1.0 / 10.0;
  std::vector<uc::FunctionModel> functions{uc::FunctionModel("G", narrow),
                                           uc::FunctionModel("H", rest)};
  EXPECT_NO_THROW((void)functions[0].availability(catalog));
  EXPECT_NO_THROW((void)functions[1].availability(catalog));
  up::ScenarioSet scenarios({"G", "H"});
  scenarios.add("both", {0, 1}, 1.0);
  const uc::UserLevelModel model(catalog, functions, std::move(scenarios));
  EXPECT_THROW((void)model.joint_success({0, 1}), ModelError);
}

TEST(Performability, BreakdownSumsCorrectly) {
  upa::markov::Ctmc chain(3);
  chain.add_rate(0, 1, 1.0);
  chain.add_rate(1, 2, 1.0);
  chain.add_rate(2, 0, 1.0);
  const uc::CompositeAvailabilityModel model(std::move(chain),
                                             {1.0, 0.5, 0.0});
  const auto b = model.breakdown();
  EXPECT_NEAR(b.availability, model.availability(), 1e-12);
  EXPECT_NEAR(b.availability + b.performance_loss + b.downtime_loss, 1.0,
              1e-12);
  // Uniform steady state by symmetry: availability = (1 + 0.5)/3.
  EXPECT_NEAR(model.availability(), 0.5, 1e-12);
}

TEST(Performability, RejectsBadRewards) {
  upa::markov::Ctmc chain = upa::markov::two_state_availability(1.0, 1.0);
  EXPECT_THROW(
      uc::CompositeAvailabilityModel(std::move(chain), {1.0, 1.5}),
      ModelError);
}

TEST(Performability, TimescaleSeparation) {
  upa::markov::Ctmc chain = upa::markov::two_state_availability(1e-4, 1.0);
  EXPECT_NEAR(uc::timescale_separation_ratio(chain, 3.6e5), 1.0 / 3.6e5,
              1e-12);
  EXPECT_THROW((void)uc::timescale_separation_ratio(chain, 0.0), ModelError);
}
