// hmd_serve — the "serve many" half of the train-once / serve-many split,
// as a multi-model server.
//
// A DetectorRegistry (api/detector_registry.h) maps model keys to `.hmdf`
// artifacts: --models=DIR registers every artifact in a directory (keyed
// by stem) and positional paths register individual files.
//
// Two serving modes:
//
//  - `--listen=HOST:PORT` starts the socket front-end (serve/server.h):
//    an epoll event loop speaking the HMDW wire protocol (serve/wire.h),
//    coalescing client requests through the adaptive micro-batcher
//    (serve/batcher.h; sized by --batch-rows / --batch-delay-us) into the
//    score() spine. Clients pick their own OutputMask and uncertainty
//    mode per request (tools/hmd_client is the reference client and load
//    generator). The server runs until SIGINT/SIGTERM, then drains and
//    prints traffic + batcher + health summaries.
//
//  - Without --listen, the legacy closed-loop driver: each round scores
//    one dataset batch per model with the mask picked by --outputs,
//    reusing one ScoreResult per model so the steady-state loop
//    allocates nothing.
//
// In both modes the registry re-stats artifacts on a wall-clock cadence —
// --refresh-ms, a timerfd inside the event loop when listening — and
// hot-swaps any that changed on disk: retrained models are picked up
// without a restart, hot-swap latency independent of traffic, and
// snapshots held by in-flight batches stay valid. --refresh-every=N (the
// old per-round counter) is kept as an alias mapping to roughly the same
// wall-clock cadence: N * max(--sleep-ms, 1) milliseconds.
//
// --swap-with=PATH is a built-in hot-swap self-check: halfway through the
// run the first model's artifact is replaced with PATH's bytes — published
// via temp file + rename, the only safe way to swap an artifact other
// processes may be mmap-serving — and refresh() must report the reload
// (exit 1 otherwise) while the pre-swap snapshot keeps scoring — the
// proof that a process can take a field update mid-traffic.
//
// --mmap picks how artifact bytes are materialised: on requires a
// mapping (artifacts served in place — model residency = pages
// actually touched), off forces the full-copy read path. Without the
// flag the mode is auto: map, falling back to a full read if the
// mapping fails.
//
// Failure handling: the server degrades, it does not crash. A model whose
// artifact fails to load at startup is skipped with a warning; a model
// whose *replacement* fails mid-run keeps serving its last-good snapshot
// (the registry's retry/quarantine machinery, detector_registry.h) and
// every health-state transition is logged as a `health` line; the end of
// the run prints a per-model health summary. Exit codes: 0 success,
// 1 runtime failure (hot-swap self-check failed), 2 usage, 3 nothing
// servable / fatal load error. HMD_FAILPOINTS (common/failpoint.h) is
// honoured for fault-injection drills.
//
// Fleet-scale knobs: --residency-mb=N bounds how many artifact bytes stay
// resident (the registry evicts the coldest unleased models past the
// budget and transparently reloads them on next use; 0 = unbounded) and
// --filter=off disables the cuckoo-filter front door that rejects
// unknown-model lookups without touching a shard lock. Both modes print
// `fleet`/`resident` summary lines with filter occupancy and eviction
// counters, and each `health` line carries the entry's eviction tally.
//
// Numeric knobs: --accuracy=exact|fast picks the serving tier for the
// legacy closed-loop driver (api/score.h — fast permits the vectorised
// ≤2-ULP transcendental kernels; socket clients pick their tier per
// request instead, and the traffic summary reports the split).
// --simd=auto|scalar|avx2|avx512 caps the runtime ISA dispatch for those
// kernels (simd/cpu.h; the flag beats the HMD_SIMD env var, and neither
// can raise the level above what CPUID detected).
//
// usage: hmd_serve [--models=DIR] [model.hmdf ...] [--listen=HOST:PORT]
//                  [--dataset=dvfs|hpc] [--batches=N] [--threads=N]
//                  [--scale=F] [--model=rf|lr|svm]
//                  [--outputs=prediction|detect|estimate] [--refresh-ms=N]
//                  [--refresh-every=N] [--batch-rows=N] [--batch-delay-us=N]
//                  [--swap-with=PATH] [--mmap[=on|off]] [--sleep-ms=N]
//                  [--residency-mb=N] [--filter[=on|off]]
//                  [--accuracy=exact|fast] [--simd=auto|scalar|avx2|avx512]

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "bench_common.h"
#include "common/args.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/hmd.h"
#include "jit/jit.h"
#include "serve/server.h"
#include "simd/cpu.h"

namespace {

using namespace hmd;
using clock_type = std::chrono::steady_clock;

[[noreturn]] void usage_error(const std::string& flag) {
  std::fprintf(
      stderr,
      "hmd_serve: bad argument '%s'\n"
      "usage: hmd_serve [--models=DIR] [model.hmdf ...] "
      "[--listen=HOST:PORT] [--dataset=dvfs|hpc] [--batches=N] "
      "[--threads=N] [--scale=F] [--model=rf|lr|svm] "
      "[--outputs=prediction|detect|estimate] [--refresh-ms=N] "
      "[--refresh-every=N] [--batch-rows=N] [--batch-delay-us=N] "
      "[--swap-with=PATH] [--mmap[=on|off]] [--jit[=on|off|auto]] "
      "[--sleep-ms=N] [--residency-mb=N] [--filter[=on|off]] "
      "[--accuracy=exact|fast] [--simd=auto|scalar|avx2|avx512]\n",
      flag.c_str());
  std::exit(2);
}

struct ServeArgs {
  std::string models_dir;
  std::vector<std::string> artifacts;
  std::string listen;  ///< HOST:PORT; empty = legacy closed-loop driver
  std::string dataset = "dvfs";
  int batches = 200;
  int refresh_ms = -1;     ///< wall-clock refresh cadence; -1 = default
  int refresh_every = -1;  ///< legacy alias (rounds); -1 = not given
  int sleep_ms = 0;  ///< pacing between rounds (chaos drills need wall time)
  std::size_t batch_rows = 256;
  int batch_delay_us = 200;
  std::string swap_with;
  std::optional<core::ModelKind> model_filter;
  api::OutputMask outputs = api::kDetectionOutputs;
  std::string outputs_name = "detect";
  core::LoadMode load_mode = core::LoadMode::kAuto;
  int residency_mb = 0;  ///< resident-artifact budget; 0 = unbounded
  bool filter = true;    ///< cuckoo-filter front door for unknown keys
  core::Accuracy accuracy = core::Accuracy::kExact;
  std::string accuracy_name = "exact";
  bench::BenchOptions options;

  /// The effective wall-clock cadence: --refresh-ms wins; the legacy
  /// --refresh-every=N alias maps to its old real-time behaviour under
  /// --sleep-ms pacing (N rounds ~= N * sleep_ms of wall time, at least
  /// 1 ms so refresh still happens in unpaced runs).
  int effective_refresh_ms() const {
    if (refresh_ms >= 0) return refresh_ms;
    if (refresh_every >= 0) return refresh_every * std::max(sleep_ms, 1);
    return listen.empty() ? 16 * std::max(sleep_ms, 1) : 1000;
  }
};

ServeArgs parse_args(int argc, char** argv) {
  ServeArgs args;
  args::Parser cli(argc, argv,
                   [](const std::string& bad) { usage_error(bad); });
  std::string model_name;
  std::string toggle;
  bool legacy_estimate = false;
  while (cli.next()) {
    if (cli.match("--models", args.models_dir)) continue;
    if (cli.match_choice("--dataset", {"dvfs", "hpc"}, args.dataset)) continue;
    if (cli.match_int("--batches", args.batches, 1)) continue;
    if (cli.match_int("--threads", args.options.n_threads)) continue;
    if (cli.match_double("--scale", args.options.scale, 0.0, 16.0,
                         /*min_exclusive=*/true)) {
      continue;
    }
    if (cli.match("--model", model_name)) {
      args.model_filter = core::parse_model_kind(model_name);
      if (!args.model_filter) cli.reject();
      continue;
    }
    if (cli.match_choice("--outputs", {"prediction", "detect", "estimate"},
                         args.outputs_name)) {
      args.outputs = args.outputs_name == "prediction"
                         ? (api::kPredictionOnly | api::kOutTrusted)
                     : args.outputs_name == "detect" ? api::kDetectionOutputs
                                                     : api::kEstimateOutputs;
      continue;
    }
    if (cli.match("--listen", args.listen)) {
      if (!args::parse_host_port(args.listen)) cli.reject();
      continue;
    }
    if (cli.match_int("--refresh-ms", args.refresh_ms, 0)) continue;
    if (cli.match_int("--refresh-every", args.refresh_every, 1)) continue;
    if (cli.match_int("--batch-rows", args.batch_rows, 1)) continue;
    if (cli.match_int("--batch-delay-us", args.batch_delay_us, 0)) continue;
    if (cli.match_int("--sleep-ms", args.sleep_ms, 0)) continue;
    if (cli.match_int("--residency-mb", args.residency_mb, 0)) continue;
    if (cli.match_toggle("--filter", toggle)) {
      if (toggle.empty() || toggle == "on") {
        args.filter = true;
      } else if (toggle == "off") {
        args.filter = false;
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match("--swap-with", args.swap_with)) continue;
    if (cli.match_toggle("--mmap", toggle)) {
      if (toggle.empty() || toggle == "on") {
        args.load_mode = core::LoadMode::kMmap;
      } else if (toggle == "off") {
        args.load_mode = core::LoadMode::kStream;
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match_toggle("--jit", toggle)) {
      // Process-wide policy for every engine loaded after this point:
      // bare --jit / --jit=on forces native compilation, off pins the
      // interpreted arena, auto restores the profitability heuristic.
      if (toggle.empty() || toggle == "on") {
        jit::set_policy(jit::Policy::kOn);
      } else if (toggle == "off") {
        jit::set_policy(jit::Policy::kOff);
      } else if (toggle == "auto") {
        jit::set_policy(jit::Policy::kAuto);
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match_choice("--accuracy", {"exact", "fast"},
                         args.accuracy_name)) {
      args.accuracy = args.accuracy_name == "fast" ? core::Accuracy::kFast
                                                   : core::Accuracy::kExact;
      continue;
    }
    if (cli.match("--simd", toggle)) {
      // Cap the runtime ISA dispatch: "auto" restores pure detection,
      // anything else clamps down to the named level (never up — an
      // override cannot make the host execute instructions it lacks).
      if (toggle == "auto") {
        simd::set_isa_override(std::nullopt);
      } else if (const auto level = simd::parse_isa(toggle)) {
        simd::set_isa_override(*level);
      } else {
        cli.reject();
      }
      continue;
    }
    if (cli.match_switch("--estimate", legacy_estimate)) {  // legacy spelling
      args.outputs = api::kEstimateOutputs;
      args.outputs_name = "estimate";
      continue;
    }
    if (cli.is_option()) cli.reject();
    args.artifacts.push_back(std::string(cli.token()));
  }
  if (args.models_dir.empty() && args.artifacts.empty()) {
    usage_error("<missing --models=DIR or model.hmdf>");
  }
  return args;
}

/// One served model: its registry key, reusable result buffers, and
/// running traffic counters.
struct ServedModel {
  std::string key;
  std::string path;
  api::ScoreResult result;  ///< reused every round: steady state is alloc-free
  std::size_t items = 0;
  std::size_t flagged = 0;
  std::size_t rejected = 0;
  bool filtered_out = false;  ///< hot-swapped to a family --model excludes
};

void describe(const std::string& key, const core::TrustedHmd& hmd) {
  std::printf("model    %-24s %s x%d, engine %s (%zu KiB%s), kernel %s, "
              "threshold %.2f\n",
              key.c_str(), core::model_kind_name(hmd.config().model).c_str(),
              hmd.config().n_members, hmd.engine().name().c_str(),
              hmd.engine().memory_bytes() / 1024,
              hmd.engine().zero_copy() ? ", zero-copy" : "",
              hmd.engine().kernel_backend().c_str(),
              hmd.config().entropy_threshold);
}

/// Replace `target` with `source`'s bytes the only way that is safe
/// against other processes serving `target` from a mapping: copy to a
/// sibling temp file, then rename into place. The old inode — and every
/// live mapping of it — survives until its last reader drops it.
void publish_over(const std::string& source, const std::string& target) {
  const std::string tmp = target + ".swap.tmp";
  std::filesystem::copy_file(
      source, tmp, std::filesystem::copy_options::overwrite_existing);
  std::filesystem::rename(tmp, target);
}

/// Log every health-state transition since the previous call (and update
/// `last`) — the serving log's record of degradation and recovery.
void report_health_changes(const api::DetectorRegistry& registry,
                           std::map<std::string, api::HealthState>& last) {
  for (const api::ModelHealth& entry : registry.health()) {
    const auto it = last.find(entry.key);
    const api::HealthState previous =
        it == last.end() ? api::HealthState::kHealthy : it->second;
    if (previous != entry.state) {
      if (entry.state == api::HealthState::kHealthy) {
        std::printf("health   %-24s %s -> healthy (recovered)\n",
                    entry.key.c_str(), api::health_state_name(previous));
      } else {
        std::printf("health   %-24s %s -> %s: %s\n", entry.key.c_str(),
                    api::health_state_name(previous),
                    api::health_state_name(entry.state),
                    entry.last_error.c_str());
      }
    }
    last[entry.key] = entry.state;
  }
}

/// End-of-run fleet accounting: key/shard spread, filter occupancy and
/// front-door rejections, residency budget vs resident set and eviction
/// counters. One line each, machine-greppable like the other summaries.
void print_fleet_summary(const api::DetectorRegistry& registry) {
  const fleet::FleetStats stats = registry.fleet_stats();
  if (stats.filter.enabled) {
    std::printf(
        "fleet    %zu key(s) in %zu shard(s), filter %zu fingerprint(s) in "
        "%zu segment(s) (occupancy %.2f, fp-bound %.3f%%), %llu unknown-key "
        "reject(s)\n",
        stats.keys, stats.shards, stats.filter.keys, stats.filter.segments,
        stats.filter.occupancy, 100.0 * stats.filter.fp_bound,
        static_cast<unsigned long long>(stats.filter.rejected));
  } else {
    std::printf("fleet    %zu key(s) in %zu shard(s), filter off\n",
                stats.keys, stats.shards);
  }
  const fleet::ResidencyStats& res = stats.residency;
  if (res.budget_bytes > 0) {
    std::printf(
        "resident %zu/%zu KiB across %zu model(s), %llu admit(s), %llu "
        "eviction(s) (%zu KiB), %llu pinned skip(s)\n",
        res.resident_bytes / 1024, res.budget_bytes / 1024,
        res.resident_entries, static_cast<unsigned long long>(res.admits),
        static_cast<unsigned long long>(res.evictions),
        static_cast<std::size_t>(res.evicted_bytes / 1024),
        static_cast<unsigned long long>(res.pinned_skips));
  } else {
    std::printf("resident %zu KiB across %zu model(s), unbounded, %llu "
                "admit(s)\n",
                res.resident_bytes / 1024, res.resident_entries,
                static_cast<unsigned long long>(res.admits));
  }
}

serve::ScoreServer* g_server = nullptr;

void on_stop_signal(int) {
  // Async-signal-safe: request_stop is an atomic store + eventfd write.
  if (g_server != nullptr) g_server->request_stop();
}

/// `--listen` mode: host the socket front-end until SIGINT/SIGTERM.
int run_listen(const ServeArgs& args, api::DetectorRegistry& registry,
               std::size_t n_models, const char* load_mode_name) {
  serve::ServerOptions options;
  const auto endpoint = args::parse_host_port(args.listen);
  if (!endpoint) usage_error("--listen=" + args.listen);
  options.host = endpoint->host;
  options.port = endpoint->port;
  options.batcher.max_batch_rows = args.batch_rows;
  options.batcher.max_delay_us = args.batch_delay_us;
  options.refresh_ms = args.effective_refresh_ms();

  serve::ScoreServer server(registry, options);
  std::map<std::string, api::HealthState> health_seen;
  report_health_changes(registry, health_seen);
  server.set_refresh_hook(
      [&registry, &health_seen](const std::vector<std::string>& reloaded) {
        for (const std::string& key : reloaded) {
          std::printf("refresh  reloaded %s\n", key.c_str());
        }
        report_health_changes(registry, health_seen);
        std::fflush(stdout);
      });

  std::printf("serving  %zu model(s), load=%s, refresh every %d ms, "
              "batch<=%zu rows, delay<=%d us\n",
              n_models, load_mode_name, options.refresh_ms, args.batch_rows,
              args.batch_delay_us);
  std::printf("listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);  // clients parse the port from this line

  g_server = &server;
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  const auto start = clock_type::now();
  server.run();
  const double seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;

  const serve::ServerStats& stats = server.stats();
  const serve::BatcherStats& batcher = server.batcher_stats();
  std::printf("traffic  %llu request(s) -> %llu result(s), %llu error "
              "frame(s), %llu connection(s)\n",
              static_cast<unsigned long long>(stats.requests_in),
              static_cast<unsigned long long>(stats.results_out),
              static_cast<unsigned long long>(stats.errors_out),
              static_cast<unsigned long long>(stats.connections_accepted));
  std::printf("accuracy %llu exact-tier, %llu fast-tier request(s), simd "
              "%s\n",
              static_cast<unsigned long long>(stats.requests_exact),
              static_cast<unsigned long long>(stats.requests_fast),
              simd::isa_name(simd::active_isa()));
  const double mean_rows =
      batcher.batches > 0 ? static_cast<double>(batcher.rows) /
                                static_cast<double>(batcher.batches)
                          : 0.0;
  std::printf("batcher  %llu row(s) in %llu batch(es), mean %.1f max %llu "
              "rows/batch (flush: rows-cap %llu, deadline %llu, idle "
              "%llu)\n",
              static_cast<unsigned long long>(batcher.rows),
              static_cast<unsigned long long>(batcher.batches), mean_rows,
              static_cast<unsigned long long>(batcher.max_batch_rows_seen),
              static_cast<unsigned long long>(batcher.flushed_rows_cap),
              static_cast<unsigned long long>(batcher.flushed_deadline),
              static_cast<unsigned long long>(batcher.flushed_idle));
  std::printf("served   %llu row(s) in %.3f s, %llu refresh(es), %llu "
              "hot-swap reload(s)\n",
              static_cast<unsigned long long>(batcher.rows), seconds,
              static_cast<unsigned long long>(stats.refreshes),
              static_cast<unsigned long long>(stats.models_reloaded));
  for (const api::ModelHealth& entry : registry.health()) {
    std::printf(
        "health   %-24s %s, kernel %s, loads ok=%llu failed=%llu "
        "retried=%llu evicted=%llu\n",
        entry.key.c_str(), api::health_state_name(entry.state),
        entry.kernel_backend.empty() ? "-" : entry.kernel_backend.c_str(),
        static_cast<unsigned long long>(entry.loads_ok),
        static_cast<unsigned long long>(entry.loads_failed),
        static_cast<unsigned long long>(entry.retries),
        static_cast<unsigned long long>(entry.evictions));
  }
  print_fleet_summary(registry);
  return 0;
}

int run(const ServeArgs& args) {
  fleet::FleetOptions fleet_options;
  fleet_options.filter = args.filter;
  fleet_options.residency_budget_bytes =
      static_cast<std::size_t>(args.residency_mb) * 1024 * 1024;
  api::DetectorRegistry registry(args.options.n_threads, args.load_mode,
                                 fleet_options);
  if (!args.models_dir.empty()) {
    const std::size_t found = registry.add_directory(args.models_dir);
    std::printf("registry scanned %s: %zu artifact(s)\n",
                args.models_dir.c_str(), found);
  }
  for (const std::string& path : args.artifacts) {
    const std::string key = std::filesystem::path(path).stem().string();
    if (registry.contains(key)) {
      // add() would silently re-point the key at the later path; make the
      // operator's collision visible instead of dropping a model.
      std::fprintf(stderr,
                   "hmd_serve: duplicate model key '%s' (from %s)\n",
                   key.c_str(), path.c_str());
      return 2;
    }
    registry.add(key, path);
  }

  // Materialise the served set (loading each artifact once) and apply the
  // --model family filter. One bad artifact must not take down its
  // healthy siblings: skip it with a warning, like refresh() does.
  std::vector<ServedModel> served;
  for (const std::string& key : registry.keys()) {
    std::shared_ptr<const core::TrustedHmd> hmd;
    try {
      hmd = registry.get(key);
    } catch (const HmdError& error) {
      std::fprintf(stderr, "hmd_serve: skipping %s: %s\n", key.c_str(),
                   error.what());
      continue;
    }
    if (args.model_filter && hmd->config().model != *args.model_filter) {
      continue;
    }
    describe(key, *hmd);
    ServedModel model;
    model.key = key;
    model.path = registry.path(key);  // the file refresh() re-stats
    served.push_back(std::move(model));
  }
  if (served.empty()) {
    // Nothing servable is a load/integrity outcome (3), not a runtime
    // crash (1): every registered artifact was rejected at load.
    std::fprintf(stderr, "hmd_serve: no models to serve\n");
    return 3;
  }
  const char* mode_name = args.load_mode == core::LoadMode::kMmap ? "mmap"
                          : args.load_mode == core::LoadMode::kStream
                              ? "stream"
                              : "auto";
  if (!args.listen.empty()) {
    return run_listen(args, registry, served.size(), mode_name);
  }
  std::printf(
      "serving  %zu model(s), outputs=%s, accuracy=%s (simd %s), load=%s, "
      "refresh every %d ms\n",
      served.size(), args.outputs_name.c_str(), args.accuracy_name.c_str(),
      simd::isa_name(simd::active_isa()), mode_name,
      args.effective_refresh_ms());

  const data::DatasetBundle bundle = args.dataset == "dvfs"
                                         ? bench::dvfs_bundle(args.options)
                                         : bench::hpc_bundle(args.options);
  api::ScoreRequest request;
  request.x = &bundle.test.X;
  request.outputs = args.outputs;
  request.accuracy = args.accuracy;

  const int swap_round = args.batches / 2;
  bool swap_verified = args.swap_with.empty();
  std::map<std::string, api::HealthState> health_seen;
  // Baseline; logs any degradation already incurred by startup loads.
  report_health_changes(registry, health_seen);

  const auto refresh_interval =
      std::chrono::milliseconds(args.effective_refresh_ms());
  const auto start = clock_type::now();
  auto last_refresh = start;
  for (int round = 0; round < args.batches; ++round) {
    if (args.sleep_ms > 0 && round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(args.sleep_ms));
    }
    if (!args.swap_with.empty() && round == swap_round) {
      // Hot-swap self-check: overwrite the first model's artifact and
      // demand that refresh() picks it up, while the snapshot taken
      // before the swap keeps serving the old version.
      ServedModel& target = served.front();
      const auto before = registry.get(target.key);
      publish_over(args.swap_with, target.path);
      const auto reloaded = registry.refresh();
      const auto after = registry.get(target.key);
      before->detect_batch(bundle.test.X);  // old snapshot still serves
      const bool swapped =
          std::find(reloaded.begin(), reloaded.end(), target.key) !=
              reloaded.end() &&
          after.get() != before.get();
      std::printf("hot-swap %s: refresh reloaded %zu key(s), %s -> %s x%d\n",
                  target.key.c_str(), reloaded.size(),
                  before->engine().name().c_str(),
                  after->engine().name().c_str(), after->config().n_members);
      if (!swapped) {
        std::fprintf(stderr, "hmd_serve: hot-swap NOT picked up\n");
        return 1;
      }
      swap_verified = true;
      last_refresh = clock_type::now();
      report_health_changes(registry, health_seen);
    } else if (refresh_interval.count() > 0 &&
               clock_type::now() - last_refresh >= refresh_interval) {
      for (const std::string& key : registry.refresh()) {
        std::printf("refresh  reloaded %s\n", key.c_str());
      }
      last_refresh = clock_type::now();
      report_health_changes(registry, health_seen);
    }

    for (ServedModel& model : served) {
      const auto hmd = registry.get(model.key);  // snapshot for this batch
      // The --model filter holds across hot-swaps: a refresh() that
      // replaced this key with another family takes it out of rotation
      // until a matching artifact comes back.
      if (args.model_filter && hmd->config().model != *args.model_filter) {
        if (!model.filtered_out) {
          std::printf("filter   %s swapped to %s; no longer served\n",
                      model.key.c_str(),
                      core::model_kind_name(hmd->config().model).c_str());
          model.filtered_out = true;
        }
        continue;
      }
      model.filtered_out = false;
      hmd->score(request, model.result);
      model.items += model.result.rows;
      for (std::size_t r = 0; r < model.result.rows; ++r) {
        if (request.outputs & api::kOutPrediction) {
          model.flagged += model.result.prediction[r] == 1;
        }
        if (request.outputs & api::kOutTrusted) {
          model.rejected += model.result.trusted[r] == 0;
        }
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();

  std::size_t total_items = 0;
  for (const ServedModel& model : served) {
    total_items += model.items;
    if (model.items == 0) {
      std::printf("traffic  %-24s 0 items\n", model.key.c_str());
      continue;
    }
    std::printf("traffic  %-24s %zu items, %.1f%% flagged malware, "
                "%.1f%% rejected as untrustworthy\n",
                model.key.c_str(), model.items,
                100.0 * static_cast<double>(model.flagged) /
                    static_cast<double>(model.items),
                100.0 * static_cast<double>(model.rejected) /
                    static_cast<double>(model.items));
  }
  std::printf("served   %zu items across %zu model(s) in %.3f s = %.0f "
              "items/s\n",
              total_items, served.size(), seconds,
              static_cast<double>(total_items) / seconds);
  for (const api::ModelHealth& entry : registry.health()) {
    std::printf(
        "health   %-24s %s, kernel %s, loads ok=%llu failed=%llu "
        "retried=%llu evicted=%llu\n",
        entry.key.c_str(), api::health_state_name(entry.state),
        entry.kernel_backend.empty() ? "-" : entry.kernel_backend.c_str(),
        static_cast<unsigned long long>(entry.loads_ok),
        static_cast<unsigned long long>(entry.loads_failed),
        static_cast<unsigned long long>(entry.retries),
        static_cast<unsigned long long>(entry.evictions));
  }
  print_fleet_summary(registry);
  return swap_verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const ServeArgs args = parse_args(argc, argv);
  if (const std::size_t armed = fail::arm_from_env()) {
    std::fprintf(stderr, "hmd_serve: %zu failpoint(s) armed from env\n",
                 armed);
  }
  try {
    return run(args);
  } catch (const LoadError& error) {
    // One structured line, machine-greppable: tool, class, code, path,
    // detail — what a supervisor needs to decide retry vs page.
    std::fprintf(stderr, "hmd_serve: fatal load error [%s] %s: %s\n",
                 load_error_code_name(error.code()), error.path().c_str(),
                 error.detail().c_str());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hmd_serve: fatal error: %s\n", error.what());
    return 1;
  }
}
