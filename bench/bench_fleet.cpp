// Fleet-scale registry bench: the numbers behind the sharded-map +
// cuckoo-filter + bounded-residency redesign, measured.
//
//   lookup   hit and miss latency across fleet sizes (10k -> 1M keys,
//            every key aliasing one verified artifact): miss with the
//            filter front door, miss with the filter off (sharded map
//            only), and miss against a replica of the pre-fleet
//            registry's key store (std::map under one global mutex) —
//            the speedup column is the headline O(1) negative-lookup
//            claim.
//   threads  aggregate miss throughput under concurrency: the filter's
//            shared-lock probe vs the legacy global mutex.
//   filter   false-positive rate vs occupancy as the dynamic filter
//            grows through stacked segments, against its analytic bound.
//   resident bounded-residency churn over real artifact copies (each
//            its own inode): steady-state resident bytes vs the budget,
//            eviction counters, VmRSS, and bit-parity of every response
//            against an unbounded registry and the in-memory detector.
//
// Results go to BENCH_fleet.json. --max-keys=N trims the fleet-size
// series (default 1000000) for quick runs; other flags are the common
// bench flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "bench_common.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "fleet/cuckoo_filter.h"
#include "fleet/fleet.h"

namespace {

using namespace hmd;
using clock_type = std::chrono::steady_clock;

double elapsed_ns(clock_type::time_point start) {
  return std::chrono::duration<double, std::nano>(clock_type::now() - start)
      .count();
}

/// VmRSS in KiB from /proc/self/status (0 when unavailable).
std::size_t rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

std::string fleet_key(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%07zu", i);
  return buf;
}

/// Distinct miss keys patched digit-by-digit into ONE reused string —
/// the way a real front end sees keys (parsed into a hot wire buffer),
/// so the timing measures the lookup structure, not 16 MB of cold
/// pre-generated probe strings streaming through the cache. Probes look
/// like "k0123456x": the trailing 'x' guarantees a miss (registered
/// keys end in a digit) while the digits land each probe *among* the
/// registered "k%07zu" keys — a probe set sorting wholly after the
/// keyspace would ride the ordered-map baseline's single hot rightmost
/// path and flatter it badly; interleaved probes walk genuinely random
/// (and at fleet scale, cold) paths in every structure.
class KeyGen {
 public:
  KeyGen() : key_("k0000000x") {}

  const std::string& next(std::size_t i) {
    i %= 10'000'000;
    for (std::size_t p = 7; p > 0; --p) {
      key_[p] = static_cast<char>('0' + i % 10);
      i /= 10;
    }
    return key_;
  }

 private:
  std::string key_;
};

/// Replica of the pre-fleet registry's key store: every lookup — hit or
/// miss — serialises behind one global mutex and walks an ordered map
/// (O(log n) string comparisons). This is the miss path the filter
/// front door replaces.
struct LegacyKeyStore {
  std::mutex mutex;
  std::map<std::string, std::string> keys;

  void add(const std::string& key, const std::string& path) {
    const std::lock_guard<std::mutex> lock(mutex);
    keys[key] = path;
  }
  bool contains(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex);
    return keys.find(key) != keys.end();
  }
};

/// Best-of-kReps ns/op for `op`; each rep is one pass over its own range
/// of distinct miss keys, after an untimed warmup pass over yet another
/// range. One pass over distinct keys is the realistic miss workload (a
/// front end fielding unknown keys sees fresh values, not a hot
/// microloop re-walking the same few); per-rep ranges keep every timed
/// probe's own path cold; taking the best rep filters out scheduler
/// preemption on busy hosts.
constexpr std::size_t kMissProbes = 500'000;
constexpr std::size_t kRepProbes = 150'000;
constexpr int kReps = 3;
constexpr std::size_t kWarmupProbes = 100'000;
/// Warmup key range, disjoint from the per-rep probe ranges.
constexpr std::size_t kWarmupBase = 5'000'000;

template <typename Op>
double time_probes(Op&& op) {
  KeyGen gen;
  std::size_t sink = 0;
  for (std::size_t i = 0; i < kWarmupProbes; ++i) {
    sink += op(gen.next(kWarmupBase + i)) ? 1 : 0;
  }
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * kRepProbes;
    const auto start = clock_type::now();
    for (std::size_t i = 0; i < kRepProbes; ++i) {
      sink += op(gen.next(base + i)) ? 1 : 0;
    }
    best = std::min(best, elapsed_ns(start) / kRepProbes);
  }
  // The sink keeps the probe loop observable; misses contribute 0.
  if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
  return best;
}

/// ns/op cycling over a small hot working set `rounds` times — the
/// realistic *hit* workload (a served fleet's active models stay hot).
template <typename Op>
double time_hot_probes(const std::vector<std::string>& probes, int rounds,
                       Op&& op) {
  std::size_t sink = 0;
  const auto start = clock_type::now();
  for (int r = 0; r < rounds; ++r) {
    for (const std::string& key : probes) sink += op(key) ? 1 : 0;
  }
  const double ns = elapsed_ns(start);
  if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
  return ns / (static_cast<double>(probes.size()) * rounds);
}

/// Aggregate Mops/s of `threads` workers each probing a disjoint miss
/// key range against `op`. On a single-core host this degenerates to
/// timeshared throughput — hardware_threads in the JSON says which.
template <typename Op>
double concurrent_miss_mops(std::size_t per_thread, int threads, Op&& op) {
  std::vector<std::thread> workers;
  const auto start = clock_type::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&op, per_thread, t] {
      KeyGen gen;
      std::size_t sink = 0;
      const std::size_t base =
          1'000'000 + static_cast<std::size_t>(t) * 777'777;
      for (std::size_t i = 0; i < per_thread; ++i) {
        sink += op(gen.next(base + i)) ? 1 : 0;
      }
      if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = elapsed_ns(start) * 1e-9;
  return static_cast<double>(per_thread) * threads / seconds / 1e6;
}

struct LookupRow {
  std::size_t fleet_keys = 0;
  double hit_ns = 0.0;
  double miss_filter_ns = 0.0;
  double miss_unfiltered_ns = 0.0;
  double miss_legacy_ns = 0.0;
  fleet::FilterStats filter;
};

struct FpRow {
  std::size_t inserted = 0;
  double occupancy = 0.0;
  std::size_t segments = 0;
  double fp_bound = 0.0;
  double measured_fp = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_keys = 1'000'000;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-keys=", 11) == 0) {
      max_keys = std::strtoull(argv[i] + 11, nullptr, 10);
      if (max_keys < 1000) max_keys = 1000;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::BenchOptions options = bench::parse_bench_args(
      static_cast<int>(passthrough.size()), passthrough.data());
  bench::print_header("bench_fleet",
                      "fleet-scale registry: filter front door, sharded "
                      "lookups, bounded residency");

  // One real training run; every fleet key aliases the artifact.
  const data::DatasetBundle bundle = bench::dvfs_bundle(options);
  core::TrustedHmd hmd(bench::paper_config(options));
  hmd.fit(bundle.train);
  std::filesystem::create_directories("bench_results");
  const std::string artifact = "bench_results/fleet_probe.hmdf";
  core::save_model(hmd, artifact);
  const std::size_t artifact_bytes = std::filesystem::file_size(artifact);
  std::printf("artifact %s: %zu bytes\n", artifact.c_str(), artifact_bytes);

  std::vector<std::size_t> sizes;
  for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000},
                              std::size_t{1'000'000}}) {
    if (n <= max_keys) sizes.push_back(n);
  }
  if (sizes.empty() || sizes.back() != max_keys) sizes.push_back(max_keys);
  const std::size_t top = sizes.back();

  const int kRounds = 4;
  const int kThreads =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  std::vector<LookupRow> rows(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    rows[i].fleet_keys = sizes[i];
  }

  // Phase A: the legacy key store (global mutex + std::map), grown
  // incrementally through the size series; kept alive for the
  // concurrency leg, then dropped.
  double legacy_mops = 0.0;
  {
    LegacyKeyStore legacy;
    std::size_t next = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (; next < sizes[i]; ++next) legacy.add(fleet_key(next), artifact);
      rows[i].miss_legacy_ns = time_probes(
          [&](const std::string& key) { return legacy.contains(key); });
    }
    legacy_mops = concurrent_miss_mops(
        kMissProbes, kThreads,
        [&](const std::string& key) { return legacy.contains(key); });
  }

  // Phase B: sharded map without the filter (FleetOptions::filter off) —
  // isolates what sharding alone buys on the miss path.
  {
    fleet::FleetOptions no_filter;
    no_filter.filter = false;
    api::DetectorRegistry registry(1, core::LoadMode::kAuto, no_filter);
    std::size_t next = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (; next < sizes[i]; ++next) registry.add(fleet_key(next), artifact);
      rows[i].miss_unfiltered_ns = time_probes(
          [&](const std::string& key) { return registry.try_get(key) != nullptr; });
    }
  }

  // Phase C: the full fleet registry. Hit probes cycle over a small
  // pre-loaded working set (the snapshot fast path); miss probes bounce
  // off the filter front door.
  double filter_mops = 0.0;
  {
    api::DetectorRegistry registry(1);
    std::vector<std::string> hit_probes;
    for (std::size_t i = 0; i < 64; ++i) hit_probes.push_back(fleet_key(i));
    std::size_t next = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      for (; next < sizes[i]; ++next) registry.add(fleet_key(next), artifact);
      if (i == 0) {
        for (const std::string& key : hit_probes) registry.get(key);
      }
      rows[i].hit_ns = time_hot_probes(
          hit_probes, kRounds * 512,
          [&](const std::string& key) { return registry.try_get(key) != nullptr; });
      rows[i].miss_filter_ns = time_probes(
          [&](const std::string& key) { return registry.try_get(key) != nullptr; });
      rows[i].filter = registry.fleet_stats().filter;
    }
    filter_mops = concurrent_miss_mops(
        kMissProbes, kThreads,
        [&](const std::string& key) { return registry.try_get(key) != nullptr; });
  }

  std::printf("\nlookup   fleet      hit ns   miss(filter)  miss(sharded)  "
              "miss(legacy map)  speedup\n");
  for (const LookupRow& row : rows) {
    std::printf("lookup   %-9zu %7.1f  %12.1f  %13.1f  %16.1f  %6.1fx\n",
                row.fleet_keys, row.hit_ns, row.miss_filter_ns,
                row.miss_unfiltered_ns, row.miss_legacy_ns,
                row.miss_legacy_ns / row.miss_filter_ns);
  }
  std::printf("threads  %d-thread miss throughput: filter %.1f Mops/s vs "
              "legacy %.1f Mops/s (%.1fx)\n",
              kThreads, filter_mops, legacy_mops, filter_mops / legacy_mops);

  // Filter FP vs occupancy: grow a standalone filter through its
  // stacked segments; at each checkpoint probe non-members and compare
  // the measured rate against the analytic bound.
  std::vector<FpRow> fp_rows;
  double fp_max = 0.0;
  {
    fleet::DynamicCuckooFilter filter;
    const std::vector<std::size_t> checkpoints = {4'000, 16'000, 64'000,
                                                  256'000, top};
    std::size_t inserted = 0;
    for (const std::size_t checkpoint : checkpoints) {
      if (checkpoint > top) break;
      for (; inserted < checkpoint; ++inserted) {
        filter.insert(fleet_key(inserted));
      }
      KeyGen gen;
      std::size_t false_hits = 0;
      for (std::size_t i = 0; i < kMissProbes; ++i) {
        false_hits += filter.may_contain(gen.next(i)) ? 1 : 0;
      }
      const fleet::FilterStats stats = filter.stats();
      FpRow row;
      row.inserted = inserted;
      row.occupancy = stats.occupancy;
      row.segments = stats.segments;
      row.fp_bound = stats.fp_bound;
      row.measured_fp =
          static_cast<double>(false_hits) / static_cast<double>(kMissProbes);
      fp_max = std::max(fp_max, row.measured_fp);
      fp_rows.push_back(row);
      std::printf("filter   %7zu keys, %zu segment(s), occupancy %.2f: "
                  "measured fp %.4f%% (bound %.4f%%)\n",
                  row.inserted, row.segments, row.occupancy,
                  100.0 * row.measured_fp, 100.0 * row.fp_bound);
    }
  }

  // Bounded residency churn over real copies (each its own inode, so an
  // eviction genuinely unmaps pages), with bit-parity against both an
  // unbounded registry and the in-memory detector.
  const std::size_t kCopies = 32;
  const std::string copies_dir = "bench_results/fleet_copies";
  std::filesystem::create_directories(copies_dir);
  std::vector<std::string> copy_keys;
  for (std::size_t i = 0; i < kCopies; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "copy_%03zu", i);
    const std::string path = copies_dir + "/" + name + ".hmdf";
    std::filesystem::copy_file(
        artifact, path, std::filesystem::copy_options::overwrite_existing);
    copy_keys.emplace_back(name);
  }
  const api::ScoreRequest estimate{.x = &bundle.test.X,
                                   .outputs = api::kEstimateOutputs};
  api::ScoreResult want;
  api::ScoreResult got;
  hmd.score(estimate, want);

  const std::size_t rss_baseline = rss_kib();
  std::size_t footprint = 0;
  std::size_t budget = 0;
  fleet::ResidencyStats bounded_stats;
  std::size_t rss_bounded = 0;
  bool within_budget = false;
  bool parity_ok = true;
  {
    api::DetectorRegistry bounded(options.n_threads);
    for (std::size_t i = 0; i < kCopies; ++i) {
      bounded.add(copy_keys[i], copies_dir + "/" + copy_keys[i] + ".hmdf");
    }
    bounded.get(copy_keys[0]);
    footprint = bounded.fleet_stats().residency.resident_bytes;
    budget = footprint * 6;  // room for ~6 of the 32 copies
    bounded.set_residency_budget_bytes(budget);
    // Churn: several passes in a scrambled order, so the LRU tier keeps
    // evicting cold copies and transparently reloading them.
    for (int pass = 0; pass < 4; ++pass) {
      for (std::size_t i = 0; i < kCopies; ++i) {
        const std::size_t pick = (i * 2654435761ull + pass) % kCopies;
        const auto detector = bounded.get(copy_keys[pick]);
        if (pass == 3 && pick < 4) {
          detector->score(estimate, got);
          parity_ok = parity_ok && api::bit_identical(want, got);
        }
      }
    }
    bounded_stats = bounded.fleet_stats().residency;
    rss_bounded = rss_kib();
    within_budget = bounded_stats.resident_bytes <= budget;
  }

  std::size_t rss_unbounded = 0;
  {
    api::DetectorRegistry unbounded(options.n_threads);
    for (std::size_t i = 0; i < kCopies; ++i) {
      unbounded.add(copy_keys[i], copies_dir + "/" + copy_keys[i] + ".hmdf");
    }
    for (std::size_t i = 0; i < kCopies; ++i) {
      const auto detector = unbounded.get(copy_keys[i]);
      if (i < 4) {
        detector->score(estimate, got);
        parity_ok = parity_ok && api::bit_identical(want, got);
      }
    }
    rss_unbounded = rss_kib();
  }

  std::printf("resident %zu copies x %zu KiB, budget %zu KiB: steady "
              "%zu KiB (%s), %llu eviction(s), %llu pinned skip(s)\n",
              kCopies, footprint / 1024, budget / 1024,
              bounded_stats.resident_bytes / 1024,
              within_budget ? "within budget" : "OVER BUDGET",
              static_cast<unsigned long long>(bounded_stats.evictions),
              static_cast<unsigned long long>(bounded_stats.pinned_skips));
  std::printf("rss      baseline %zu KiB, bounded churn %zu KiB, unbounded "
              "all-resident %zu KiB\n",
              rss_baseline, rss_bounded, rss_unbounded);
  std::printf("parity   %s\n", parity_ok ? "ok" : "FAIL");

  const LookupRow& top_row = rows.back();
  const double speedup_vs_legacy =
      top_row.miss_legacy_ns / top_row.miss_filter_ns;
  const double speedup_vs_unfiltered =
      top_row.miss_unfiltered_ns / top_row.miss_filter_ns;

  std::FILE* out = std::fopen("BENCH_fleet.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_fleet: cannot write BENCH_fleet.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_fleet\",\n");
  std::fprintf(out, "  \"schema_version\": 1,\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"max_keys\": %zu,\n", top);
  std::fprintf(out, "  \"artifact_bytes\": %zu,\n", artifact_bytes);
  std::fprintf(out, "  \"lookup_series\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LookupRow& row = rows[i];
    std::fprintf(out,
                 "    {\"fleet_keys\": %zu, \"hit_ns\": %.1f, "
                 "\"miss_filter_ns\": %.1f, \"miss_unfiltered_ns\": %.1f, "
                 "\"miss_legacy_map_ns\": %.1f,\n     "
                 "\"miss_speedup_vs_legacy\": %.2f, "
                 "\"filter_segments\": %zu, \"filter_occupancy\": %.3f, "
                 "\"filter_fp_bound\": %.5f}%s\n",
                 row.fleet_keys, row.hit_ns, row.miss_filter_ns,
                 row.miss_unfiltered_ns, row.miss_legacy_ns,
                 row.miss_legacy_ns / row.miss_filter_ns,
                 row.filter.segments, row.filter.occupancy,
                 row.filter.fp_bound, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"concurrent_miss\": {\"threads\": %d, \"fleet_keys\": "
               "%zu, \"filter_mops\": %.2f, \"legacy_mops\": %.2f, "
               "\"speedup\": %.2f},\n",
               kThreads, top, filter_mops, legacy_mops,
               filter_mops / legacy_mops);
  std::fprintf(out, "  \"fp_sweep\": [\n");
  for (std::size_t i = 0; i < fp_rows.size(); ++i) {
    const FpRow& row = fp_rows[i];
    std::fprintf(out,
                 "    {\"inserted\": %zu, \"occupancy\": %.3f, "
                 "\"segments\": %zu, \"fp_bound\": %.5f, "
                 "\"measured_fp\": %.5f}%s\n",
                 row.inserted, row.occupancy, row.segments, row.fp_bound,
                 row.measured_fp, i + 1 < fp_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"fp_max_measured\": %.5f,\n", fp_max);
  std::fprintf(out,
               "  \"residency\": {\"copies\": %zu, \"model_footprint_bytes\""
               ": %zu, \"budget_bytes\": %zu,\n   \"steady_resident_bytes\": "
               "%zu, \"within_budget\": %s, \"admits\": %llu, \"evictions\": "
               "%llu,\n   \"pinned_skips\": %llu, \"rss_baseline_kib\": %zu, "
               "\"rss_bounded_kib\": %zu, \"rss_unbounded_kib\": %zu},\n",
               kCopies, footprint, budget, bounded_stats.resident_bytes,
               within_budget ? "true" : "false",
               static_cast<unsigned long long>(bounded_stats.admits),
               static_cast<unsigned long long>(bounded_stats.evictions),
               static_cast<unsigned long long>(bounded_stats.pinned_skips),
               rss_baseline, rss_bounded, rss_unbounded);
  // The speedup is reported against both baselines: the pre-fleet key
  // store (global mutex + ordered map) and this registry with the front
  // door disabled (sharded map only). On a memory-resident keyspace both
  // the filter probe and the tree walk bottom out at DRAM latency, so
  // the single-thread ratio is hardware-bound; the filter's structural
  // wins — a flat O(1) miss cost as the fleet grows and a lock-free
  // probe that scales with cores where the mutex serialises — show in
  // the lookup series' shape and the concurrent leg.
  std::fprintf(out,
               "  \"acceptance\": {\"miss_speedup_vs_legacy_at_max_keys\": "
               "%.2f, \"miss_speedup_vs_unfiltered_at_max_keys\": %.2f, "
               "\"concurrent_miss_speedup\": %.2f,\n   "
               "\"miss_ns_flat_across_series\": %s, "
               "\"fp_within_one_percent\": %s, \"residency_within_budget\": "
               "%s, \"parity_ok\": %s}\n",
               speedup_vs_legacy, speedup_vs_unfiltered,
               filter_mops / legacy_mops,
               top_row.miss_filter_ns <= 4.0 * rows.front().miss_filter_ns
                   ? "true"
                   : "false",
               fp_max <= 0.01 ? "true" : "false",
               within_budget ? "true" : "false", parity_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::filesystem::remove(artifact);
  std::filesystem::remove_all(copies_dir);
  std::printf("summary written to BENCH_fleet.json\n");
  return parity_ok && within_budget && fp_max <= 0.01 ? 0 : 1;
}
