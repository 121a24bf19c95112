#pragma once
// The server under test as a child process: spawn hmd_serve pinned to a
// CPU set with its output in a log file, learn its port from the
// "listening on" line, and stop it with SIGTERM, collecting the rusage
// that wait4() reports and the end-of-run summary lines.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct ServerExit {
  int status = 0;        ///< raw wait status
  double cpu_ms = 0.0;   ///< user + sys
  double maxrss_mib = 0.0;
  std::string log;       ///< everything the server printed
};

class ServerChild {
 public:
  /// Fork + exec `argv` with affinity `cpus`; stdout and stderr go to
  /// `log_path`. Throws std::runtime_error if the exec fails.
  ServerChild(const std::vector<std::string>& argv,
              const std::vector<int>& cpus, const std::string& log_path);
  /// Kills (SIGKILL) and reaps a child that was never stopped.
  ~ServerChild();
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;

  /// Block until the server printed its listening port (throws on exit or
  /// after `timeout_s`).
  std::uint16_t wait_port(double timeout_s);

  /// SIGTERM, then wait4(): the server drains, prints its summary, exits.
  ServerExit stop();

  Clock::time_point exec_at() const { return exec_at_; }

 private:
  pid_t pid_ = -1;
  std::string log_path_;
  Clock::time_point exec_at_;
};

/// Pin the calling thread to `cpus` (no-op for an empty set).
void pin_current_thread(const std::vector<int>& cpus);

}  // namespace perfbench
