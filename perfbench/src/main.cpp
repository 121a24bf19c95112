// perfbench — the serving benchmark's measuring binary (see README.md).
//
// One invocation measures one workload for one seed: it starts the real
// hmd_serve as a pinned child process, drives it over loopback with the
// generator in loadgen.h, verifies every response against a direct
// score() oracle, and prints one JSON object as the last line of stdout:
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --fixtures=DIR --serve=PATH --work=DIR
//                  [--plant-corrupt=N] [--plant-stall-ms=M]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "child.h"
#include "jit/jit.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/wire.h"
#include "simd/cpu.h"
#include "workload.h"

namespace {

namespace fs = std::filesystem;
namespace wire = hmd::serve::wire;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string fixtures;
  std::string serve;
  std::string work;
  std::uint64_t plant_corrupt = 0;
  double plant_stall_ms = 0.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (name == "--workload") a.workload = value;
    else if (name == "--seed") a.seed = std::stoull(value);
    else if (name == "--seconds") a.seconds = std::stod(value);
    else if (name == "--trace") a.trace = std::stoi(value);
    else if (name == "--fixtures") a.fixtures = value;
    else if (name == "--serve") a.serve = value;
    else if (name == "--work") a.work = value;
    else if (name == "--plant-corrupt") a.plant_corrupt = std::stoull(value);
    else if (name == "--plant-stall-ms") a.plant_stall_ms = std::stod(value);
    else throw std::runtime_error("unknown argument " + arg);
  }
  if (a.workload.empty() || a.fixtures.empty() || a.serve.empty() ||
      a.work.empty() || a.seconds <= 0.0) {
    throw std::runtime_error("missing --workload/--fixtures/--serve/--work");
  }
  return a;
}

/// Generator and server on disjoint CPUs: the generator on the first
/// allowed CPU, the server on the last two (one spare between them keeps
/// run.py, the publisher and kernel work off both when there are four).
struct Placement {
  std::vector<int> generator;
  std::vector<int> server;
  std::vector<int> spare;  ///< the hot-swap publisher's thread
  int allowed = 0;
};

Placement place() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  Placement p;
  p.allowed = static_cast<int>(cpus.size());
  if (cpus.size() >= 3) {
    p.generator = {cpus.front()};
    p.server = {cpus[cpus.size() - 2], cpus.back()};
    p.spare = {cpus[1]};
  } else if (cpus.size() == 2) {
    p.generator = {cpus.front()};
    p.server = {cpus.back()};
  }  // one CPU: nothing to separate; leave both unpinned
  return p;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

int connect_blocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0) throw std::runtime_error("socket failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const timeval timeout{30, 0};  // a silent server fails the probe
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// One blocking request: send, read one frame, verify. Returns the
/// due-to-answer ms, or a negative value when the answer was wrong.
double probe(int fd, const Shape& shape, std::uint32_t id, std::string& why) {
  std::vector<unsigned char> out;
  const auto start = Clock::now();
  wire::append_request(out, id, shape.key, shape.outputs, std::nullopt,
                       shape.features, shape.rows, shape.cols, shape.accuracy);
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("probe send failed");
    sent += static_cast<std::size_t>(n);
  }
  std::vector<unsigned char> in;
  wire::Frame frame;
  std::size_t length = 0;
  while (length == 0) {
    unsigned char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("probe: server closed the connection");
    in.insert(in.end(), chunk, chunk + n);
    length = wire::parse_frame(in.data(), in.size(), wire::kMaxPayloadBytes, frame);
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  std::uint64_t flagged = 0;
  return verify_response(in.data(), length, shape, id, why, flagged) ? ms : -1.0;
}

/// A started server, its set-up time and the first answer per hot key.
struct Started {
  std::unique_ptr<ServerChild> child;
  std::uint16_t port = 0;
  double setup_s = 0.0;
  std::vector<double> first_ms;
  std::uint64_t probes = 0;
};

Started start_server(const Workload& w, const Args& args,
                     const Placement& placement, const std::string& log) {
  std::vector<std::string> argv = {args.serve};
  argv.insert(argv.end(), w.server_args.begin(), w.server_args.end());
  Started s;
  s.child = std::make_unique<ServerChild>(argv, placement.server, log);
  s.port = s.child->wait_port(120.0);
  const int fd = connect_blocking(s.port);
  std::uint32_t id = 1;
  for (const std::uint32_t shape : w.hot_shapes) {
    // Until the key answers correctly: set-up ends when every hot key
    // has returned one verified response.
    while (true) {
      std::string why;
      ++s.probes;
      const double ms = probe(fd, w.shapes[shape], id++, why);
      if (ms >= 0.0) {
        s.first_ms.push_back(ms);
        break;
      }
      if (std::chrono::duration<double>(Clock::now() - s.child->exec_at()).count() > 120.0) {
        throw std::runtime_error("set-up never answered correctly: " + why);
      }
    }
  }
  s.setup_s =
      std::chrono::duration<double>(Clock::now() - s.child->exec_at()).count();
  ::close(fd);
  return s;
}

/// The server's end-of-run summary lines, parsed.
struct Summary {
  double requests_in = 0, errors_out = 0;
  double batches = 0, mean_rows = 0;
  double flush_rows_cap = 0, flush_deadline = 0, flush_idle = 0;
  double hot_swaps = 0, loads_ok = 0, evictions = 0, keys = 0;
  double resident_kib = 0, unknown_rejects = 0;
  std::map<std::string, int> backends;  ///< kernel backend -> models
};

Summary parse_summary(const std::string& log) {
  Summary s;
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    unsigned long long a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
    double x = 0;
    char word[256] = {0};
    if (std::sscanf(line.c_str(), "traffic %llu request(s) -> %llu result(s), %llu error",
                    &a, &b, &c) == 3) {
      s.requests_in = static_cast<double>(a);
      s.errors_out = static_cast<double>(c);
    } else if (std::sscanf(line.c_str(),
                           "batcher %llu row(s) in %llu batch(es), mean %lf max "
                           "%llu rows/batch (flush: rows-cap %llu, deadline %llu, "
                           "idle %llu)",
                           &a, &b, &x, &c, &d, &e, &f) == 7) {
      s.batches = static_cast<double>(b);
      s.mean_rows = x;
      s.flush_rows_cap = static_cast<double>(d);
      s.flush_deadline = static_cast<double>(e);
      s.flush_idle = static_cast<double>(f);
    } else if (std::sscanf(line.c_str(),
                           "served %llu row(s) in %lf s, %llu refresh(es), %llu "
                           "hot-swap",
                           &a, &x, &b, &c) == 4) {
      s.hot_swaps = static_cast<double>(c);
    } else if (line.rfind("health ", 0) == 0) {
      const auto at = line.find("loads ok=");
      if (at != std::string::npos &&
          std::sscanf(line.c_str() + at, "loads ok=%llu failed=%llu retried=%llu evicted=%llu",
                      &a, &b, &c, &d) == 4) {
        s.loads_ok += static_cast<double>(a);
        s.keys += 1;
      }
    } else if (line.rfind("fleet ", 0) == 0) {
      const auto at = line.rfind("), ");
      if (at != std::string::npos &&
          std::sscanf(line.c_str() + at, "), %llu unknown-key", &a) == 1) {
        s.unknown_rejects = static_cast<double>(a);
      }
    } else if (line.rfind("resident ", 0) == 0) {
      if (std::sscanf(line.c_str(), "resident %llu", &a) == 1) {
        s.resident_kib = static_cast<double>(a);
      }
      const auto at = line.find("admit(s), ");
      if (at != std::string::npos &&
          std::sscanf(line.c_str() + at, "admit(s), %llu eviction", &b) == 1) {
        s.evictions = static_cast<double>(b);
      }
    } else if (line.rfind("model ", 0) == 0) {
      const auto at = line.find(", kernel ");
      if (at != std::string::npos &&
          std::sscanf(line.c_str() + at, ", kernel %255[^,]", word) == 1) {
        ++s.backends[word];
      }
    }
  }
  return s;
}

/// Latency stats of one phase, timed from each request's due time. The
/// phase is cut into windows by due time (at least 100 ms and 1000
/// requests each) and each figure is the median over windows, so a burst
/// of host preemption moves a few windows, not the result.
struct Latency {
  std::size_t samples = 0;  ///< requests answered correctly
  std::size_t windows = 0;
  double p50_us = 0.0, p99_us = 0.0;
  double within_limit_share = 0.0;
  double late_p99_us = 0.0;
  /// Worst one-second median of send lateness. Above 1 ms the
  /// generator fell behind for most of a second — a stall or a backlog
  /// it could not clear — and the run's latencies are not measurements
  /// of the server. Host preemption of a few ms does not reach it.
  double worst_late_median_us = 0.0;
  bool lagging() const { return worst_late_median_us > 1000.0; }
};

Latency latency_of(const PhaseResult& r, const Workload& w, double seconds) {
  const double rate = static_cast<double>(r.records.size()) / std::max(seconds, 1e-9);
  const double window_s =
      std::min(seconds, std::max(0.1, 1000.0 / std::max(rate, 1.0)));
  const auto n_windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s + 1e-9));
  struct Window {
    std::vector<double> us;
    std::size_t sent = 0, within = 0;
  };
  std::vector<Window> windows(n_windows);
  std::vector<std::vector<double>> late_by_second(
      static_cast<std::size_t>(seconds) + 1);
  std::vector<double> late;
  Latency l;
  for (const Record& rec : r.records) {
    if (rec.sent_ns >= 0) {
      const double lateness = static_cast<double>(rec.sent_ns - rec.due_ns) * 1e-3;
      late.push_back(lateness);
      const auto second = static_cast<std::size_t>(rec.due_ns / 1'000'000'000);
      if (second < late_by_second.size()) late_by_second[second].push_back(lateness);
    }
    const auto at = static_cast<std::size_t>(static_cast<double>(rec.due_ns) * 1e-9 / window_s);
    if (at >= windows.size()) continue;  // the closed loop's last answers
    Window& win = windows[at];
    ++win.sent;
    if (rec.status != Status::kOk) continue;
    const double us = static_cast<double>(rec.done_ns - rec.due_ns) * 1e-3;
    win.us.push_back(us);
    win.within += us <= w.limit_us;
    ++l.samples;
  }
  std::vector<double> p50, p99, share;
  for (Window& win : windows) {
    std::sort(win.us.begin(), win.us.end());
    p50.push_back(quantile(win.us, 0.50));
    p99.push_back(quantile(win.us, 0.99));
    share.push_back(static_cast<double>(win.within) /
                    static_cast<double>(std::max<std::size_t>(win.sent, 1)));
  }
  l.windows = windows.size();
  l.p50_us = median(p50);
  l.p99_us = median(p99);
  l.within_limit_share = median(share);
  std::sort(late.begin(), late.end());
  l.late_p99_us = quantile(late, 0.99);
  for (std::vector<double>& second : late_by_second) {
    l.worst_late_median_us = std::max(l.worst_late_median_us, median(second));
  }
  return l;
}

/// Re-publish hot artifacts between two versions (temp file + rename)
/// every `publish_ms` while a phase runs: the writes beside the reads.
/// Runs on the spare CPU so file copies never delay the generator.
class Publisher {
 public:
  Publisher(const Workload& w, std::vector<int> cpus) : w_(w) {
    if (w.publish_paths.empty()) return;
    thread_ = std::thread([this, cpus = std::move(cpus)] {
      pin_current_thread(cpus);
      loop();
    });
  }
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t published() const { return published_; }

 private:
  void loop() {
    std::size_t turn = 0;
    while (!stop_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(w_.publish_ms));
      const std::string& target = w_.publish_paths[turn % w_.publish_paths.size()];
      const std::string& version =
          (turn / w_.publish_paths.size()) % 2 == 0 ? w_.version_b : w_.version_a;
      const std::string tmp = target + ".publish.tmp";
      fs::copy_file(version, tmp, fs::copy_options::overwrite_existing);
      fs::rename(tmp, target);
      ++published_;
      ++turn;
    }
  }
  const Workload& w_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> published_{0};
  std::thread thread_;
};

/// Unit of a per-layer metric, from its name.
const char* unit_of(const std::string& name) {
  const auto has = [&](const char* token) {
    return name.find(token) != std::string::npos;
  };
  if (has(".ns_per_") || has("_ns_per_") || name.ends_with("_ns")) return "ns";
  if (name.ends_with("_us")) return "us";
  if (has("_ms")) return "ms";
  if (name.ends_with("_mib")) return "MiB";
  if (name.ends_with("_bytes")) return "bytes";
  if (name.ends_with("_share")) return "share";
  if (name.ends_with("_per_kreq")) return "1/krequest";
  if (name.ends_with("_rps")) return "1/s";
  if (name.ends_with("mean_rows")) return "rows";
  return "count";
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, metric.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Open-loop rate ladder: the highest rate whose within-limit share stays
/// at or above the target without the generator falling behind. The
/// fixed ladder brackets it (a failing rung is re-measured once, so one
/// burst of host noise does not end the climb early), then four
/// bisection steps narrow the bracket to 1/16 of a rung.
double sustained_rate(const Workload& w, std::uint16_t port, double step_s,
                      std::uint64_t& attempted, std::uint64_t& failed) {
  constexpr double kTarget = 0.99;
  std::size_t offset = 0;
  const auto share_at = [&](double rate) {
    Phase step;
    step.rate = rate;
    step.connections = w.main.connections;
    step.seconds = step_s;
    const std::vector<std::uint32_t> seq(
        w.sequence.begin() + static_cast<long>(offset % (w.sequence.size() / 2)),
        w.sequence.end());
    offset += static_cast<std::size_t>(rate * step_s);
    const PhaseResult r = run_phase(step, w.shapes, seq, port, nullptr);
    attempted += r.records.size();
    failed += r.count(Status::kFailed);
    const Latency l = latency_of(r, w, step_s);
    return l.lagging() ? 0.0 : l.within_limit_share;
  };
  double passed = 0.0, failing = 0.0;
  bool retried = false;
  for (std::size_t rung = 0; rung < w.ladder.size() && failing == 0.0; ++rung) {
    const double share = share_at(w.ladder[rung]);
    if (share >= kTarget) {
      passed = w.ladder[rung];
    } else if (!retried) {
      retried = true;
      --rung;
    } else {
      failing = w.ladder[rung];
      if (passed == 0.0) return failing * share;  // not even the first rung
    }
  }
  if (failing == 0.0) return passed;  // the whole ladder held
  for (int step = 0; step < 4; ++step) {
    const double mid = 0.5 * (passed + failing);
    (share_at(mid) >= kTarget ? passed : failing) = mid;
  }
  return passed;
}

int run(const Args& args) {
  const Placement placement = place();
  pin_current_thread(placement.generator);
  hmd::jit::set_policy(hmd::jit::Policy::kAuto);
  const std::string isa = hmd::simd::isa_name(hmd::simd::detected_isa());
  const int server_threads = std::max<int>(1, static_cast<int>(placement.server.size()));

  const std::string run_dir =
      args.work + "/run-" + args.workload + "-" + std::to_string(::getpid());
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  std::string fleet_dir;
  if (args.workload == "fleet_churn") {
    fleet_dir = run_dir + "/fleet";
    fs::copy(args.fixtures + "/fleet", fleet_dir);
  }
  const FixtureData data = load_fixture_data(args.fixtures);
  const Workload w = make_workload(args.workload, args.seed, args.fixtures,
                                   run_dir, data, server_threads, isa);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> first_ms(w.hot_shapes.size());
  const auto account_start = [&](const Started& s) {
    setup_s.push_back(s.setup_s);
    for (std::size_t k = 0; k < s.first_ms.size(); ++k) {
      first_ms[k].push_back(s.first_ms[k]);
    }
    attempted += s.probes;  // a probe answered wrong is retried, not failed
  };
  // First answers on fresh servers: each hot key's median, averaged over
  // the keys (their costs differ, so one pooled median would jump
  // between them).
  const auto first_answer_ms = [&] {
    double sum = 0.0;
    for (const auto& key : first_ms) sum += median(key);
    return sum / static_cast<double>(std::max<std::size_t>(first_ms.size(), 1));
  };
  const int starts = args.trace ? 1 : w.setup_starts;
  for (int i = 0; i + 1 < starts; ++i) {
    Started s = start_server(w, args, placement, run_dir + "/serve.log");
    account_start(s);
    s.child->stop();
  }
  Started server = start_server(w, args, placement, run_dir + "/serve.log");
  account_start(server);

  std::unique_ptr<ResidencyModel> residency;
  if (w.residency_budget > 0) {
    std::vector<std::size_t> footprint;
    for (const std::size_t s : w.key_source) {
      footprint.push_back(w.sources[s]->hmd->engine().memory_bytes());
    }
    residency = std::make_unique<ResidencyModel>(footprint, w.residency_budget);
  }
  // Traced runs split the time: an untraced half, then a traced half
  // whose difference is the tracing overhead.
  Phase main = w.main;
  main.seconds = args.trace ? args.seconds / 2 : args.seconds;
  main.corrupt_nth = args.plant_corrupt;
  main.stall_ms = args.plant_stall_ms;
  PhaseResult untraced, traced;
  std::uint64_t published = 0;
  {
    Publisher publisher(w, placement.spare);
    untraced = run_phase(main, w.shapes, w.sequence, server.port, residency.get());
    if (args.trace) {
      main.trace = true;
      traced = run_phase(main, w.shapes, w.sequence, server.port, residency.get());
    }
    publisher.stop();
    published = publisher.published();
  }
  const ServerExit exit = server.child->stop();
  const Summary summary = parse_summary(exit.log);
  const std::vector<const PhaseResult*> phases =
      args.trace ? std::vector<const PhaseResult*>{&untraced, &traced}
                 : std::vector<const PhaseResult*>{&untraced};
  std::uint64_t rows_ok = 0;
  for (const PhaseResult* p : phases) {
    attempted += p->records.size();
    failed += p->count(Status::kFailed);
    rows_ok += p->rows_ok;
  }
  const Latency lat = latency_of(untraced, w, main.seconds);
  const bool lagging = lat.lagging();

  std::printf("# workload %s seed %llu: %zu request(s) in %.2f s, %llu failed, "
              "generator late p99 %.1f us, worst one-second median %.1f us%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.records.size(), untraced.seconds,
              static_cast<unsigned long long>(untraced.count(Status::kFailed)),
              lat.late_p99_us, lat.worst_late_median_us,
              lagging ? " -- generator fell behind, run INVALID" : "");
  if (!untraced.first_failure.empty()) {
    std::printf("# first failure: %s\n", untraced.first_failure.c_str());
  }
  std::string backends;
  for (const auto& [backend, n] : summary.backends) {
    backends += (backends.empty() ? "" : ", ") + backend + " x" + std::to_string(n);
  }
  std::string server_cpus, gen_cpus;
  for (const int c : placement.server) server_cpus += std::to_string(c) + " ";
  for (const int c : placement.generator) gen_cpus += std::to_string(c) + " ";
  std::printf("# host nproc %d, isa %s; generator cpus [ %s], server cpus [ %s]; "
              "kernels: %s; %llu re-publish(es)\n# server:",
              placement.allowed, isa.c_str(), gen_cpus.c_str(),
              server_cpus.c_str(), backends.c_str(),
              static_cast<unsigned long long>(published));
  for (const std::string& a : w.server_args) {
    if (a.rfind("--", 0) == 0) std::printf(" %s", a.c_str());
  }
  std::printf("\n");

  // p99_us, sustained_rps and cold_get_ms are not steady enough on shared
  // virtual CPUs to carry an end-to-end bound on every workload, so they
  // are reported per layer and on the '#' lines. The last two are each
  // defined by one workload (the ladder on small_open, evictions on
  // fleet_churn); elsewhere they are the documented stand-ins below.
  double sustained = 0.0;
  if (!w.ladder.empty()) {
    // A fresh server for the ladder, so the main run's CPU and memory
    // figures cover the main run alone; its start is one more set-up.
    Started ladder_server = start_server(w, args, placement, run_dir + "/ladder.log");
    account_start(ladder_server);
    const double step_s = std::clamp(args.seconds / 20.0, 0.1, 0.5);
    sustained = sustained_rate(w, ladder_server.port, step_s, attempted, failed);
    ladder_server.child->stop();
  } else {
    // Closed loop or a fixed offered rate: the rate answered within the
    // limit (goodput).
    sustained = lat.within_limit_share *
                static_cast<double>(untraced.records.size()) /
                std::max(untraced.seconds, 1e-9);
  }
  // Cold gets of the deep forests: their load + JIT compile is the cost a
  // cold key pays. The small DVFS artifacts load in tens of microseconds,
  // which no latency can tell apart from a warm get. Without evictions:
  // the first answers on fresh servers.
  std::vector<double> cold;
  for (const Record& r : untraced.records) {
    const int key = w.shapes[r.shape].key_index;
    if (r.cold && r.status == Status::kOk &&
        w.sources[w.key_source[static_cast<std::size_t>(key)]]->family == "rf_deep") {
      cold.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-6);
    }
  }
  const double cold_get_ms = residency ? median(cold) : first_answer_ms();
  std::printf("# p99_us %.3f us, sustained_rps %.1f 1/s, cold_get_ms %.4f ms\n",
              lat.p99_us, sustained, cold_get_ms);

  std::map<std::string, Metric> m;
  if (!args.trace) {
    const double served_krows = static_cast<double>(rows_ok) / 1000.0;
    m["setup_s"] = {median(setup_s), "s"};
    m["p50_us"] = {lat.p50_us, "us"};
    m["within_limit_share"] = {lat.within_limit_share, "share"};
    m["rows_per_s"] = {static_cast<double>(untraced.rows_ok) /
                           std::max(untraced.seconds, 1e-9), "1/s"};
    m["server_cpu_ms_per_krow"] = {exit.cpu_ms / std::max(served_krows, 1e-9), "ms"};
    m["peak_rss_mib"] = {exit.maxrss_mib, "MiB"};
    m["unknown_flagged_share"] = {
        static_cast<double>(untraced.zero_day_flagged) /
            static_cast<double>(std::max<std::uint64_t>(untraced.zero_day_rows, 1)),
        "share"};
    std::printf("# %zu latency sample(s) in %zu window(s); error_share %.6f (%llu of %llu "
                "operation(s) failed)\n",
                lat.samples, lat.windows,
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  } else {
    const Latency traced_lat = latency_of(traced, w, main.seconds);
    Observed observed;
    observed.mean_batch_rows = summary.mean_rows;
    observed.batches_per_request =
        summary.batches / std::max(summary.requests_in, 1.0);
    observed.server_p50_us = traced_lat.p50_us;
    std::map<std::string, double> layers = time_layers(
        w, data, args.fixtures, fleet_dir, server_threads, observed);
    const double requests = std::max(summary.requests_in, 1.0);
    const double flushes =
        std::max(summary.flush_idle + summary.flush_deadline + summary.flush_rows_cap, 1.0);
    const double reloads =
        std::max(0.0, summary.loads_ok - summary.keys - summary.hot_swaps);
    layers["batcher.mean_rows"] = summary.mean_rows;
    layers["batcher.flush_idle_share"] = summary.flush_idle / flushes;
    layers["batcher.flush_deadline_share"] = summary.flush_deadline / flushes;
    layers["batcher.flush_rowscap_share"] = summary.flush_rows_cap / flushes;
    layers["server.requests_in"] = summary.requests_in;
    layers["server.errors_out"] = summary.errors_out;
    layers["fleet.hit_share"] = 1.0 - reloads / requests;
    layers["fleet.reloads_per_kreq"] = 1000.0 * reloads / requests;
    layers["fleet.evictions_per_kreq"] = 1000.0 * summary.evictions / requests;
    layers["fleet.resident_mib"] = summary.resident_kib / 1024.0;
    layers["fleet.unknown_rejects"] = summary.unknown_rejects;
    layers["gen.late_p99_us"] = lat.late_p99_us;
    layers["gen.sent"] = static_cast<double>(untraced.records.size() + traced.records.size());
    layers["trace.overhead_share"] =
        (traced_lat.p50_us - lat.p50_us) / std::max(lat.p50_us, 1e-9);
    layers["p99_us"] = lat.p99_us;
    layers["sustained_rps"] = sustained;
    layers["cold_get_ms"] = cold_get_ms;
    layers["error_share"] =
        static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
    for (const auto& [name, value] : layers) {
      m[name] = {value, unit_of(name)};
    }
    // Spans stay in memory during the run and are written out at its end.
    const std::string spans = args.work + "/spans-" + w.name + "-" +
                              std::to_string(args.seed) + ".csv";
    std::ofstream out(spans);
    out << "phase,request,key,rows,due_ns,sent_ns,done_ns,encode_ns,verify_ns,"
           "status,cold\n";
    for (const PhaseResult* p : phases) {
      const char* name = p == &traced ? "traced" : "untraced";
      for (std::size_t i = 0; i < p->records.size(); ++i) {
        const Record& r = p->records[i];
        const Shape& s = w.shapes[r.shape];
        out << name << ',' << i << ',' << s.key << ',' << s.rows << ',' << r.due_ns
            << ',' << r.sent_ns << ',' << r.done_ns << ',' << r.encode_ns << ','
            << r.verify_ns << ',' << static_cast<int>(r.status) << ','
            << r.cold << '\n';
      }
    }
    std::printf("# spans written to %s\n", spans.c_str());
  }
  fs::remove_all(run_dir);
  print_result(failed == 0 && !lagging, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
