#include "upa/ta/symbolic.hpp"

#include "upa/common/error.hpp"
#include "upa/ta/services.hpp"
#include "upa/ta/user_availability.hpp"

namespace upa::ta {

core::Expr user_availability_expr(UserClass uc, const TaParameters& p) {
  using core::Expr;
  const Eq10Masses m = eq10_category_masses(scenario_table(uc));

  const Expr browse_bracket =
      Expr::constant(p.q23) +
      Expr::param("AAS") *
          (Expr::constant(p.q24 * p.q45) +
           Expr::constant(p.q24 * p.q47) * Expr::param("ADS"));
  const Expr search_factor =
      Expr::param("AAS") * Expr::param("ADS") * Expr::param("AFlight") *
      Expr::param("AHotel") * Expr::param("ACar");

  return Expr::param("Anet") * Expr::param("ALAN") * Expr::param("AWS") *
         (Expr::constant(m.home_only) +
          Expr::constant(m.browse) * browse_bracket +
          search_factor * (Expr::constant(m.search_no_pay) +
                           Expr::constant(m.pay) * Expr::param("APS")));
}

std::map<std::string, double> user_availability_gradient(
    UserClass uc, const TaParameters& p) {
  const core::Expr expr = user_availability_expr(uc, p);
  const core::Params at = service_params(compute_services(p));
  return core::gradient(expr, at);
}

}  // namespace upa::ta
