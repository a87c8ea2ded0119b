#include "traffic.hpp"

#include <cmath>
#include <stdexcept>

#include "upa/common/numeric.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/markov/ctmc.hpp"
#include "upa/queueing/mmck.hpp"
#include "upa/serve/loadgen.hpp"
#include "upa/ta/params.hpp"
#include "upa/ta/services.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

namespace ledger {

using upa::serve::Json;

namespace {

const char* const kFunctions[] = {"Home", "Browse", "Search", "Book", "Pay"};
constexpr std::size_t kFunctionCount = 5;

double number(const Json& params, const char* key, double fallback) {
  const Json* v = params.find(key);
  return v == nullptr ? fallback : v->as_number();
}

}  // namespace

upa::ta::TaParameters ta_params(const Json& params) {
  upa::ta::TaParameters p = upa::ta::TaParameters::paper_defaults();
  p.n_web = static_cast<std::size_t>(number(params, "nw", 4));
  p.coverage = number(params, "coverage", p.coverage);
  p.alpha = number(params, "alpha", p.alpha);
  p.nu = number(params, "nu", p.nu);
  p.buffer = static_cast<std::size_t>(number(params, "buffer", 10));
  if (const Json* perfect = params.find("perfect");
      perfect != nullptr && perfect->as_bool()) {
    p.coverage_model = upa::ta::CoverageModel::kPerfect;
  }
  p.validate();
  return p;
}

namespace {

Json numbers(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push_back(Json(v));
  return out;
}

Json composite_result(const upa::ta::TaParameters& p) {
  const auto farm = upa::ta::web_farm_params(p);
  const auto queue = upa::ta::web_queue_params(p);
  const bool perfect = p.coverage_model == upa::ta::CoverageModel::kPerfect;
  const auto model = perfect ? upa::core::composite_perfect(farm, queue)
                             : upa::core::composite_imperfect(farm, queue);
  const auto b = model.breakdown();
  Json out = Json::object();
  out.set("coverage_model", Json(perfect ? "perfect" : "imperfect"));
  out.set("availability", Json(b.availability));
  out.set("performance_loss", Json(b.performance_loss));
  out.set("downtime_loss", Json(b.downtime_loss));
  out.set("states", Json(model.chain().state_count()));
  return out;
}

/// The result member the RPC must carry, from the public functions.
Json expected_result(const Rpc& rpc) {
  const Json& params = rpc.params;
  Json out = Json::object();
  if (rpc.method == "ping") {
    out.set("pong", Json(true));
  } else if (rpc.method == "mmck_metrics") {
    const auto m = upa::queueing::mmck_metrics(
        number(params, "alpha", 100), number(params, "nu", 100),
        static_cast<std::size_t>(number(params, "servers", 4)),
        static_cast<std::size_t>(number(params, "capacity", 10)));
    out.set("rho", Json(m.rho));
    out.set("loss_probability", Json(m.blocking));
    out.set("mean_in_system", Json(m.mean_in_system));
    out.set("mean_in_queue", Json(m.mean_in_queue));
    out.set("throughput", Json(m.throughput));
    out.set("mean_response", Json(m.mean_response));
    out.set("mean_busy_servers", Json(m.mean_busy_servers));
    out.set("state_probabilities", numbers(m.state_probabilities));
  } else if (rpc.method == "web_farm_availability") {
    const auto p = ta_params(params);
    const auto farm = upa::ta::web_farm_params(p);
    const auto queue = upa::ta::web_queue_params(p);
    const bool perfect = p.coverage_model == upa::ta::CoverageModel::kPerfect;
    const double a =
        perfect ? upa::core::web_service_availability_perfect(farm, queue)
                : upa::core::web_service_availability_imperfect(farm, queue);
    out.set("coverage_model", Json(perfect ? "perfect" : "imperfect"));
    out.set("availability", Json(a));
    out.set("downtime_minutes_per_year",
            Json(upa::common::downtime_minutes_per_year(a)));
  } else if (rpc.method == "user_availability") {
    const auto p = ta_params(params);
    const auto cls = params.find("class")->as_string() == "A"
                         ? upa::ta::UserClass::kA
                         : upa::ta::UserClass::kB;
    const double a = upa::ta::user_availability_eq10(cls, p);
    out.set("class", Json(upa::ta::user_class_name(cls)));
    out.set("availability", Json(a));
    out.set("downtime_hours_per_year",
            Json(upa::common::downtime_hours_per_year(a)));
    Json categories = Json::object();
    for (const auto& [category, ua] :
         upa::ta::category_breakdown(cls, p).unavailability) {
      categories.set(upa::ta::category_name(category), Json(ua));
    }
    out.set("category_unavailability", std::move(categories));
  } else if (rpc.method == "composite_availability") {
    out = composite_result(ta_params(params));
  } else if (rpc.method == "steady_state") {
    const auto farm = upa::ta::web_farm_params(ta_params(params));
    const auto chain = upa::core::imperfect_coverage_chain(farm).chain;
    const auto report = chain.steady_state_robust();
    out.set("model", Json("imperfect"));
    out.set("states", Json(chain.state_count()));
    out.set("method",
            Json(upa::markov::stationary_method_name(report.method)));
    out.set("residual", Json(report.residual));
    out.set("distribution", numbers(report.distribution));
  } else {
    throw std::runtime_error("no public function for method " + rpc.method);
  }
  return out;
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

Rpc make_rpc(std::uint64_t id, const std::string& method, Json params) {
  Json request = Json::object();
  request.set("id", Json(static_cast<double>(id)));
  request.set("method", Json(method));
  request.set("params", params);
  return Rpc{id, method, std::move(params), request.dump()};
}

std::string expected_line(const Rpc& rpc) {
  Json response = Json::object();
  response.set("id", Json(static_cast<double>(rpc.id)));
  response.set("ok", Json(true));
  response.set("result", expected_result(rpc));
  return response.dump();
}

std::uint64_t line_digest(std::string_view line) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : line) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

double evaluate(const Rpc& rpc) {
  const Json& params = rpc.params;
  if (rpc.method == "mmck_metrics") {
    return upa::queueing::mmck_metrics(
               number(params, "alpha", 100), number(params, "nu", 100),
               static_cast<std::size_t>(number(params, "servers", 4)),
               static_cast<std::size_t>(number(params, "capacity", 10)))
        .blocking;
  }
  if (rpc.method == "ping") return 1.0;
  const auto p = ta_params(params);
  const auto farm = upa::ta::web_farm_params(p);
  const auto queue = upa::ta::web_queue_params(p);
  const bool perfect = p.coverage_model == upa::ta::CoverageModel::kPerfect;
  if (rpc.method == "web_farm_availability") {
    return perfect ? upa::core::web_service_availability_perfect(farm, queue)
                   : upa::core::web_service_availability_imperfect(farm,
                                                                   queue);
  }
  if (rpc.method == "user_availability") {
    const auto cls = params.find("class")->as_string() == "A"
                         ? upa::ta::UserClass::kA
                         : upa::ta::UserClass::kB;
    return upa::ta::user_availability_eq10(cls, p) +
           upa::ta::category_breakdown(cls, p).total_unavailability;
  }
  if (rpc.method == "composite_availability") {
    return (perfect ? upa::core::composite_perfect(farm, queue)
                    : upa::core::composite_imperfect(farm, queue))
        .breakdown()
        .availability;
  }
  if (rpc.method == "steady_state") {
    return upa::core::imperfect_coverage_chain(farm)
        .chain.steady_state_robust()
        .residual;
  }
  throw std::runtime_error("no public function for method " + rpc.method);
}

// --- Table 1 sessions ----------------------------------------------------

namespace {

/// Catalogue design points: the paper's farm (Table 7 defaults) at four
/// farm sizes and two coverage factors.
constexpr std::size_t kFarmSizes[] = {2, 3, 4, 5};
constexpr double kCoverages[] = {0.95, 0.99};

}  // namespace

std::size_t Catalogue::key(std::size_t f, std::size_t point,
                           std::size_t cls) const {
  switch (f) {
    case 0: return 0;                                  // Home: ping
    case 1: return 1 + point;                          // Browse
    case 2: return 1 + points + point;                 // Search
    case 3: return 1 + 2 * points + 2 * point + cls;   // Book
    default: return 1 + 4 * points + point;            // Pay
  }
}

Catalogue make_catalogue() {
  Catalogue c;
  std::vector<Json> ta_points;
  std::vector<Json> queue_points;
  for (const std::size_t nw : kFarmSizes) {
    for (const double coverage : kCoverages) {
      Json p = Json::object();
      p.set("nw", Json(nw));
      p.set("coverage", Json(coverage));
      ta_points.push_back(p);
      Json q = Json::object();
      q.set("alpha", Json(100.0 * coverage));
      q.set("nu", Json(100.0));
      q.set("servers", Json(nw));
      q.set("capacity", Json(10));
      queue_points.push_back(q);
    }
  }
  c.points = ta_points.size();
  const auto add = [&](const std::string& method, Json params) {
    c.rpcs.push_back(make_rpc(c.rpcs.size(), method, std::move(params)));
  };
  add("ping", Json());
  for (const Json& q : queue_points) add("mmck_metrics", q);
  for (const Json& p : ta_points) add("web_farm_availability", p);
  for (const Json& p : ta_points) {
    for (const char* cls : {"A", "B"}) {
      Json with_class = p;
      with_class.set("class", Json(cls));
      add("user_availability", with_class);
    }
  }
  for (const Json& p : ta_points) add("composite_availability", p);
  return c;
}

SessionSource::SessionSource(const Catalogue& catalogue, std::uint64_t seed)
    : catalogue_(catalogue), rng_(seed) {}

Session SessionSource::next() {
  static const upa::profile::OperationalProfile kProfiles[] = {
      upa::ta::fitted_session_graph(upa::ta::UserClass::kA),
      upa::ta::fitted_session_graph(upa::ta::UserClass::kB)};
  Session s;
  s.cls = rng_.uniform01() < 0.5 ? 0 : 1;
  const auto& profile = kProfiles[s.cls];
  std::size_t state = upa::profile::NodeIndex::kStart;
  for (;;) {
    const auto row = profile.transition_matrix().row(state);
    const double u = rng_.uniform01();
    double cumulative = 0.0;
    std::size_t next = profile.exit_state();
    for (std::size_t j = 0; j < row.size(); ++j) {
      cumulative += row[j];
      if (u < cumulative) {
        next = j;
        break;
      }
    }
    state = next;
    if (state == profile.exit_state()) break;
    const std::string& name = profile.function_name(state - 1);
    std::size_t f = 0;
    while (f < kFunctionCount && name != kFunctions[f]) ++f;
    if (f == kFunctionCount) {
      throw std::runtime_error("unknown Table 1 function " + name);
    }
    const auto point = static_cast<std::size_t>(
        rng_.uniform01() * static_cast<double>(catalogue_.points));
    s.keys.push_back(catalogue_.key(f, point, s.cls));
  }
  return s;
}

std::vector<double> poisson_schedule(double rate, double horizon,
                                     std::uint64_t seed) {
  upa::sim::Xoshiro256 rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.uniform01_open_left()) / rate;
    if (t >= horizon) return due;
    due.push_back(t);
  }
}

// --- Design grid ------------------------------------------------------------

std::vector<Rpc> grid_point(std::uint64_t stream, std::uint64_t index) {
  const std::uint64_t base =
      splitmix64(splitmix64(stream) ^ (index * 0x9e3779b97f4a7c15ULL));
  const double u[4] = {unit(splitmix64(base + 1)), unit(splitmix64(base + 2)),
                       unit(splitmix64(base + 3)), unit(splitmix64(base + 4))};
  const std::size_t nw = 1 + static_cast<std::size_t>(u[0] * 6.0);
  const std::size_t buffer = nw + static_cast<std::size_t>(u[1] * 40.0);
  const double coverage = 0.9 + 0.099 * u[2];
  const double nu = 100.0;
  const double alpha = (0.3 + 0.9 * u[3]) * nu * static_cast<double>(nw);

  Json farm = Json::object();
  farm.set("nw", Json(nw));
  farm.set("buffer", Json(buffer));
  farm.set("coverage", Json(coverage));
  farm.set("alpha", Json(alpha));
  farm.set("nu", Json(nu));

  Json perfect = farm;
  perfect.set("perfect", Json(true));
  Json chain = farm;
  chain.set("model", Json("imperfect"));
  Json queue = Json::object();
  queue.set("alpha", Json(alpha));
  queue.set("nu", Json(nu));
  queue.set("servers", Json(nw));
  queue.set("capacity", Json(buffer));

  const std::uint64_t id = index * kRpcsPerPoint;
  return {make_rpc(id, "composite_availability", std::move(perfect)),
          make_rpc(id + 1, "composite_availability", farm),
          make_rpc(id + 2, "steady_state", std::move(chain)),
          make_rpc(id + 3, "mmck_metrics", std::move(queue))};
}

}  // namespace ledger
