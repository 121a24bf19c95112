#include "child.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  const cpu_set_t set = cpu_set_of(cpus);
  sched_setaffinity(0, sizeof(set), &set);
}

ServerChild::ServerChild(const std::vector<std::string>& argv,
                         const std::vector<int>& cpus,
                         const std::string& log_path)
    : log_path_(log_path) {
  // Everything the child touches between fork and exec is prepared
  // here: after fork only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const cpu_set_t set = cpu_set_of(cpus);
  const bool pin = !cpus.empty();
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);

  exec_at_ = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Die with the benchmark, so no server outlives a killed run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (pin) sched_setaffinity(0, sizeof(set), &set);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) throw std::runtime_error("fork failed");
}

ServerChild::~ServerChild() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

std::uint16_t ServerChild::wait_port(double timeout_s) {
  const std::string marker = "listening on ";
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  while (Clock::now() < deadline) {
    const std::string log = read_file(log_path_);
    const auto at = log.find(marker);
    if (at != std::string::npos) {
      const auto eol = log.find('\n', at);
      const auto colon = log.rfind(':', eol);
      if (eol != std::string::npos && colon != std::string::npos &&
          colon > at) {
        return static_cast<std::uint16_t>(
            std::stoul(log.substr(colon + 1, eol - colon - 1)));
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("hmd_serve exited before listening:\n" + log);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  throw std::runtime_error("hmd_serve did not listen within the timeout");
}

ServerExit ServerChild::stop() {
  ServerExit out;
  if (pid_ <= 0) throw std::runtime_error("server already stopped");
  ::kill(pid_, SIGTERM);
  rusage usage{};
  // The server drains and prints its summary; a server that hangs is
  // killed after 30 s rather than hanging the benchmark.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (::wait4(pid_, &out.status, WNOHANG, &usage) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &out.status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  out.cpu_ms = 1e3 * (static_cast<double>(usage.ru_utime.tv_sec) +
                      static_cast<double>(usage.ru_stime.tv_sec)) +
               1e-3 * (static_cast<double>(usage.ru_utime.tv_usec) +
                       static_cast<double>(usage.ru_stime.tv_usec));
  out.maxrss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  out.log = read_file(log_path_);
  return out;
}

}  // namespace perfbench
