// Kernel timings: the numerical engines under the reproduction (dense LU
// steady state vs iterative uniformized power iteration, birth-death
// closed form, BDD compilation, GSPN reachability, absorbing-chain
// analysis, the user-level conditioning kernel) and the evaluation
// cache's fixed cost per lookup (hit, miss, and miss with a disk tier
// appending). No paper table here -- this bench characterizes the
// library itself.

#include <stdlib.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "upa/cache/eval_cache.hpp"
#include "upa/cache/persist.hpp"
#include "upa/core/web_farm.hpp"
#include "upa/faulttree/bdd.hpp"
#include "upa/linalg/lu.hpp"
#include "upa/markov/birth_death.hpp"
#include "upa/markov/ctmc.hpp"
#include "upa/markov/transient.hpp"
#include "upa/profile/scenario.hpp"
#include "upa/spn/net.hpp"
#include "upa/spn/reachability.hpp"
#include "upa/spn/to_ctmc.hpp"
#include "upa/ta/model_builder.hpp"
#include "upa/ta/user_availability.hpp"
#include "upa/ta/user_classes.hpp"

namespace {

namespace um = upa::markov;
namespace ul = upa::linalg;

void print_nothing() {
  upa::bench::print_header(
      "solver kernels",
      "Timing-only bench: no paper artifact, see the counters below.");
}

/// Ring + shortcuts chain of n states (irreducible, sparse).
um::Ctmc ring_chain(std::size_t n) {
  um::Ctmc chain(n);
  for (std::size_t i = 0; i < n; ++i) {
    chain.add_rate(i, (i + 1) % n, 1.0 + 0.01 * static_cast<double>(i % 7));
    if (i % 5 == 0) chain.add_rate(i, (i + 3) % n, 0.25);
  }
  return chain;
}

void bm_ctmc_steady_dense(benchmark::State& state) {
  const um::Ctmc chain = ring_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.steady_state());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(bm_ctmc_steady_dense)->Arg(16)->Arg(64)->Arg(256)->Complexity();

void bm_ctmc_steady_iterative(benchmark::State& state) {
  const um::Ctmc chain = ring_chain(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.steady_state_iterative(1e-10));
  }
}
BENCHMARK(bm_ctmc_steady_iterative)->Arg(16)->Arg(64)->Arg(256);

void bm_birth_death_closed_form(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> birth(n, 2.0);
  const std::vector<double> death(n, 3.0);
  const um::BirthDeath bd(birth, death);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bd.steady_state());
  }
}
BENCHMARK(bm_birth_death_closed_form)->Arg(16)->Arg(256)->Arg(4096);

void bm_lu_solve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ul::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = (i == j) ? 4.0 : 1.0 / static_cast<double>(1 + i + j);
    }
  }
  const ul::Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ul::solve(a, b));
  }
}
BENCHMARK(bm_lu_solve)->Arg(32)->Arg(128)->Arg(512);

void bm_transient_uniformization(benchmark::State& state) {
  const um::Ctmc chain = ring_chain(64);
  ul::Vector initial(64, 0.0);
  initial[0] = 1.0;
  const double t = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        um::transient_distribution(chain, initial, t));
  }
}
BENCHMARK(bm_transient_uniformization)->Arg(1)->Arg(10)->Arg(100);

void bm_bdd_majority(benchmark::State& state) {
  const std::size_t vars = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    upa::faulttree::BddManager mgr(vars);
    std::vector<upa::faulttree::BddRef> fns;
    for (std::size_t v = 0; v < vars; ++v) fns.push_back(mgr.variable(v));
    const auto top = mgr.at_least(vars / 2, fns);
    const std::vector<double> p(vars, 0.01);
    benchmark::DoNotOptimize(mgr.probability(top, p));
  }
}
BENCHMARK(bm_bdd_majority)->Arg(8)->Arg(16)->Arg(32);

void bm_spn_reachability(benchmark::State& state) {
  const int tokens = static_cast<int>(state.range(0));
  for (auto _ : state) {
    upa::spn::PetriNet net;
    const auto up = net.add_place("up", tokens);
    const auto down = net.add_place("down", 0);
    const auto fail = net.add_timed_transition(
        "fail", 1e-3, upa::spn::ServerSemantics::kInfiniteServer);
    net.add_input_arc(fail, up);
    net.add_output_arc(fail, down);
    const auto repair = net.add_timed_transition("repair", 1.0);
    net.add_input_arc(repair, down);
    net.add_output_arc(repair, up);
    const auto graph = upa::spn::explore(net);
    benchmark::DoNotOptimize(upa::spn::to_ctmc(net, graph));
  }
}
BENCHMARK(bm_spn_reachability)->Arg(10)->Arg(100)->Arg(1000);

void bm_visited_set_probability(benchmark::State& state) {
  const auto profile =
      upa::ta::fitted_session_graph(upa::ta::UserClass::kA);
  const std::set<std::size_t> all{0, 1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        upa::profile::visited_exactly_probability(profile, all));
  }
}
BENCHMARK(bm_visited_set_probability);

/// User-level kernel over the travel agency's scenario shapes, one per
/// argument: Home, Home+Browse, then adding Search, Book and Pay in turn.
/// Only Home+Browse leaves services free (application and database).
void bm_joint_success(benchmark::State& state) {
  static const std::array<std::pair<const char*, std::set<std::size_t>>, 5>
      kShapes = {{{"Ho", {0}},
                  {"Ho-Br", {0, 1}},
                  {"Ho-Br-Se", {0, 1, 2}},
                  {"Ho-Br-Se-Bo", {0, 1, 2, 3}},
                  {"Ho-Br-Se-Bo-Pa", {0, 1, 2, 3, 4}}}};
  const auto& [label, functions] =
      kShapes[static_cast<std::size_t>(state.range(0))];
  const upa::core::UserLevelModel model = upa::ta::build_user_model(
      upa::ta::UserClass::kA, upa::bench::paper_params(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.joint_success(functions));
  }
  state.SetLabel(label);
}
BENCHMARK(bm_joint_success)->DenseRange(0, 4);

/// The Table 1 category breakdown a Book request pays for, class A (0)
/// and class B (1): builds the user model and evaluates all 12 classes.
void bm_category_breakdown(benchmark::State& state) {
  const auto uclass =
      state.range(0) == 0 ? upa::ta::UserClass::kA : upa::ta::UserClass::kB;
  const auto p = upa::bench::paper_params(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(upa::ta::category_breakdown(uclass, p));
  }
  state.SetLabel(upa::ta::user_class_name(uclass));
}
BENCHMARK(bm_category_breakdown)->Arg(0)->Arg(1);

/// The memo layer's fixed cost, measured on what a memoized solver pays
/// around its solve: the key of the design sweep's imperfect-coverage
/// chain (N_W = 4, 9 states) built from the chain each time, plus one
/// get_or_compute. The compute returns a precomputed distribution, so a
/// miss times the cache, not the LU solve (bm_ctmc_steady_dense does).
/// A cold solve is only worth memoizing when it costs more than
/// bm_cache_hit.
struct CacheBenchChain {
  CacheBenchChain()
      : chain(upa::core::imperfect_coverage_chain(
                  upa::core::WebFarmParams{4, 1e-3, 1.0, 0.98, 12.0})
                  .chain),
        pi(chain.steady_state()) {}

  /// `unique` > 0 appends a distinguishing word, so every call misses.
  [[nodiscard]] upa::cache::CacheKey key(std::uint64_t unique = 0) const {
    upa::cache::KeyBuilder kb("markov.steady_state", 1);
    chain.append_cache_key(kb);
    if (unique > 0) kb.add(unique);
    return std::move(kb).finish();
  }

  um::Ctmc chain;
  ul::Vector pi;
};

void bm_cache_hit(benchmark::State& state) {
  const CacheBenchChain bench;
  upa::cache::EvalCache cache;
  (void)cache.get_or_compute<ul::Vector>(bench.key(), [&] { return bench.pi; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get_or_compute<ul::Vector>(
        bench.key(), [&] { return bench.pi; }));
  }
}
BENCHMARK(bm_cache_hit);

void bm_cache_miss(benchmark::State& state) {
  const CacheBenchChain bench;
  upa::cache::EvalCache cache;
  std::uint64_t unique = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get_or_compute<ul::Vector>(
        bench.key(++unique), [&] { return bench.pi; }));
  }
}
BENCHMARK(bm_cache_miss);

/// bm_cache_miss with a PersistentCache attached on a fresh temporary
/// directory: every miss also probes the (empty) disk tier and appends
/// one record to the active segment.
void bm_cache_miss_persisted(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "upa_bench_miss_XXXXXX");
  if (mkdtemp(dir.data()) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  const CacheBenchChain bench;
  {
    upa::cache::EvalCache cache;
    upa::cache::PersistentCache tier(cache, dir);
    std::uint64_t unique = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(cache.get_or_compute<ul::Vector>(
          bench.key(++unique), [&] { return bench.pi; }));
    }
    state.counters["records_appended"] =
        static_cast<double>(tier.stats().records_appended);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}
BENCHMARK(bm_cache_miss_persisted);

}  // namespace

UPA_BENCH_MAIN(print_nothing)
