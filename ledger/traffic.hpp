#pragma once
// The ledger's traffic, as a pure function of the seed, and the answer
// checks that hold the serving stack to the in-process public functions.
//
//  - Table 1 sessions: class A and B users in equal seeded shares walk
//    ta::fitted_session_graph; each visited function becomes one RPC
//    (serve::method_for_function) whose parameters come from a fixed
//    design-point catalogue.
//  - Design grid: seeded points of the Figures 11-12 design box
//    (N_W x K x coverage x lambda/nu). Each point is four RPCs. Coverage
//    and load are continuous, so every point -- and every RPC key --
//    is distinct.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "upa/serve/json.hpp"
#include "upa/sim/rng.hpp"
#include "upa/ta/params.hpp"

namespace ledger {

/// One request line of the catalogue or grid and what it asks for.
struct Rpc {
  std::uint64_t id = 0;
  std::string method;
  upa::serve::Json params;
  std::string line;  ///< {"id":..,"method":..,"params":..}
};

[[nodiscard]] Rpc make_rpc(std::uint64_t id, const std::string& method,
                           upa::serve::Json params);

/// The exact response line the RPC must get: its result built from the
/// in-process public functions for the same parameters, serialized with
/// the wire protocol's member order and shortest round-trip numbers. A
/// served answer equals it byte for byte exactly when every number in it
/// is bit-identical to the public function's.
[[nodiscard]] std::string expected_line(const Rpc& rpc);

/// 64-bit FNV-1a digest of a line (answers kept for a later check).
[[nodiscard]] std::uint64_t line_digest(std::string_view line);

/// The TaParameters an RPC's params select: the paper's defaults with
/// the overridden knobs (nw, coverage, alpha, nu, buffer, perfect).
[[nodiscard]] upa::ta::TaParameters ta_params(const upa::serve::Json& params);

/// Calls the public function behind the RPC once (no serialization) and
/// returns one of its results, so the call cannot be optimized away.
[[nodiscard]] double evaluate(const Rpc& rpc);

// --- Table 1 sessions ----------------------------------------------------

/// The fixed design-point catalogue: one RPC per (function, design
/// point, user class) the sessions can send. Ids are catalogue indexes,
/// so the expected response of every key is one fixed line.
struct Catalogue {
  std::vector<Rpc> rpcs;
  /// Catalogue index of function `f` (0..4 = Home..Pay) at design point
  /// `point`, for user class `cls` (0 = A, 1 = B; only Book differs).
  [[nodiscard]] std::size_t key(std::size_t f, std::size_t point,
                                std::size_t cls) const;
  std::size_t points = 0;
};
[[nodiscard]] Catalogue make_catalogue();

/// One session: its class and the catalogue keys of its requests.
struct Session {
  std::size_t cls = 0;
  std::vector<std::size_t> keys;
};

/// Draws sessions from one seeded stream.
class SessionSource {
 public:
  SessionSource(const Catalogue& catalogue, std::uint64_t seed);
  [[nodiscard]] Session next();

 private:
  const Catalogue& catalogue_;
  upa::sim::Xoshiro256 rng_;
};

/// Poisson due times (seconds) at `rate` per second, up to `horizon`.
[[nodiscard]] std::vector<double> poisson_schedule(double rate,
                                                   double horizon,
                                                   std::uint64_t seed);

// --- Design grid ------------------------------------------------------------

inline constexpr std::size_t kRpcsPerPoint = 4;

/// The four RPCs of grid point `index` of stream `stream`: composite
/// availability under perfect and imperfect coverage, the coverage
/// chain's steady state, and M/M/N_W/K metrics. Request ids are
/// index * 4 + position, so a replayed line is byte-identical.
[[nodiscard]] std::vector<Rpc> grid_point(std::uint64_t stream,
                                          std::uint64_t index);

}  // namespace ledger
