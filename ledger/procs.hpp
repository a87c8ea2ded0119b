#pragma once
// Process plumbing the ledger measures from outside: the spawned front
// (`upa_dispatch`), discovery of the replica processes a
// dispatch::FarmOrchestrator started, and /proc readers for CPU time
// and peak resident set.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "upa/dispatch/upstream.hpp"

namespace ledger {

/// One `upa_dispatch` process in front of `upstreams`. The constructor
/// spawns it and waits for its listening line; the destructor kills and
/// reaps it. The child dies with the ledger (PR_SET_PDEATHSIG).
class FrontProcess {
 public:
  FrontProcess(const std::string& binary,
               const std::vector<upa::dispatch::UpstreamAddress>& upstreams,
               std::size_t workers);
  ~FrontProcess();
  FrontProcess(const FrontProcess&) = delete;
  FrontProcess& operator=(const FrontProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A child process that keeps every CPU out of its idle state with one
/// SCHED_IDLE spinner per CPU. SCHED_IDLE threads run only when nothing
/// else is runnable and yield to any woken thread at once, so they take
/// no CPU from the stack under test; they keep a virtual CPU from
/// halting, so a wake-up costs a scheduler switch instead of a trip
/// through the hypervisor, whose latency varies with the host's load.
/// Construct it while the process is still single-threaded.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  pid_t pid_ = -1;
};

/// Live children of this process whose command name is `comm`.
[[nodiscard]] std::vector<pid_t> children_named(const std::string& comm);

/// CPU seconds of a whole process: the sum over its live threads.
[[nodiscard]] double process_cpu_seconds(pid_t pid);

/// Peak resident set (VmHWM) in bytes.
[[nodiscard]] double process_peak_rss_bytes(pid_t pid);

/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_seconds();

/// Total bytes of regular files directly inside `directory`.
[[nodiscard]] std::uint64_t directory_bytes(const std::string& directory);

/// Ids of the CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Number of CPUs this process may run on (nproc).
[[nodiscard]] std::size_t available_cpus();

}  // namespace ledger
