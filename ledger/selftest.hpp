#pragma once
// Self-tests of the ledger's own arithmetic (stats.hpp). Every run
// executes them before it measures; `upa_ledger --selftest` runs them
// alone and prints each check.

#include <ostream>

namespace ledger {

/// Returns true when every check passes; failures go to `log`.
[[nodiscard]] bool run_selftests(std::ostream& log, bool verbose);

}  // namespace ledger
