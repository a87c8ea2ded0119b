#include "procs.hpp"

#include "stats.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace ledger {

namespace fs = std::filesystem;

FrontProcess::FrontProcess(
    const std::string& binary,
    const std::vector<upa::dispatch::UpstreamAddress>& upstreams,
    std::size_t workers) {
  std::string list;
  for (const auto& u : upstreams) {
    if (!list.empty()) list += ",";
    list += u.label();
  }
  std::vector<std::string> args = {binary, "--port", "0",
                                   "--upstreams", list,
                                   "--workers", std::to_string(workers)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::syscall(SYS_close_range, 3u, ~0u, 0u);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  stdout_fd_ = fds[0];

  std::string buffer;
  const std::string marker = "listening on ";
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = buffer.find(marker);
    const std::size_t eol = buffer.find('\n', at);
    if (at == std::string::npos || eol == std::string::npos) continue;
    const std::string addr = buffer.substr(at + marker.size(),
                                           eol - at - marker.size());
    const std::size_t colon = addr.find(':');
    const std::size_t space = addr.find(' ');
    port_ = static_cast<std::uint16_t>(
        std::stoi(addr.substr(colon + 1, space - colon - 1)));
    return;
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  ::close(stdout_fd_);
  throw std::runtime_error("upa_dispatch did not start: " + buffer);
}

FrontProcess::~FrontProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ != 0) return;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) _exit(0);
  ::syscall(SYS_close_range, 0u, ~0u, 0u);
  // The child only spins until the parent kills it, so its threads are
  // never joined; the parent was single-threaded at the fork.
  const auto spin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);  // this thread only
    const sched_param param{};
    ::sched_setscheduler(0, SCHED_IDLE, &param);
    for (;;) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  };
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < cpus.size(); ++i) {
    others.emplace_back(spin, cpus[i]);
  }
  spin(cpus.front());
}

IdleSpinners::~IdleSpinners() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

namespace {

/// Fields of /proc/<pid>/stat after the parenthesised command name.
std::vector<std::string> stat_fields(pid_t pid, std::string* comm) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const std::size_t open = line.find('(');
  const std::size_t close = line.rfind(')');
  if (open == std::string::npos || close == std::string::npos) return {};
  if (comm != nullptr) *comm = line.substr(open + 1, close - open - 1);
  std::istringstream rest(line.substr(close + 2));
  std::vector<std::string> fields;
  for (std::string f; rest >> f;) fields.push_back(f);
  return fields;  // fields[0] is the state (stat field 3)
}

}  // namespace

std::vector<pid_t> children_named(const std::string& comm) {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos) {
      continue;
    }
    const pid_t pid = static_cast<pid_t>(std::stol(name));
    std::string c;
    const std::vector<std::string> f = stat_fields(pid, &c);
    if (f.size() < 2 || c != comm || f[0] == "Z") continue;
    if (static_cast<pid_t>(std::stol(f[1])) == self) out.push_back(pid);
  }
  return out;
}

double process_cpu_seconds(pid_t pid) {
  // The first schedstat field is the thread's time on CPU in ns: exact,
  // where /proc/<pid>/stat only samples at clock ticks.
  double ns = 0.0;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : fs::directory_iterator(tasks)) {
    std::ifstream in(entry.path() / "schedstat");
    double run = 0.0;
    if (in >> run) ns += run;
  }
  return ns * 1e-9;
}

double process_peak_rss_bytes(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("cannot read VmHWM of pid " + std::to_string(pid));
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t directory_bytes(const std::string& directory) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

std::size_t available_cpus() { return allowed_cpus().size(); }

}  // namespace ledger
