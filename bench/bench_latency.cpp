// Ablation A4 (google-benchmark): the runtime cost of trustworthiness.
//
// The paper positions the estimator as an *online* component with "minor
// modifications to the standard pipeline"; this bench quantifies that
// claim: score() throughput of detection- and estimate-shaped requests
// across ensemble sizes and model families, the pre-engine reference
// member path for comparison, registry and artifact costs, and the cost
// of the surrounding pipeline stages (SoC simulation and feature
// extraction). Every inference row calls score() with one reused
// ScoreResult, the shape a serving loop has.
//
// After the google-benchmark suite runs, main() self-times the inference,
// artifact, JIT and accuracy-tier series and writes a machine-readable
// BENCH_latency.json summary into the working directory, so the perf
// trajectory is tracked PR-over-PR.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "core/uncertainty.h"
#include "datasets/dvfs_dataset.h"
#include "datasets/hpc_dataset.h"
#include "datasets/io.h"
#include "features/dvfs_features.h"
#include "features/hpc_features.h"
#include "jit/jit.h"
#include "sim/app_profiles.h"
#include "sim/soc.h"

namespace {

using namespace hmd;

/// Small shared DVFS bundle (built once; benchmarks time inference only).
const data::DatasetBundle& bundle() {
  static const data::DatasetBundle instance = [] {
    data::DvfsDatasetConfig config;
    config.n_train = 420;
    config.n_test = 140;
    config.n_unknown = 60;
    return data::build_dvfs_dataset(config);
  }();
  return instance;
}

core::HmdConfig config_for(int members) {
  core::HmdConfig config;
  config.n_members = members;
  config.n_threads = 0;
  config.seed = 1;
  return config;
}

/// A serving-scale forest for the zero-copy artifact rows: HPC data
/// (overlapping classes, deep trees — the DVFS bundle compiles to a few
/// hundred stumps, far too small to show a residency effect) at a train
/// size that puts the arena in the megabyte range. Built once; both the
/// BM_ rows and the JSON summary share it.
struct BigForest {
  data::DatasetBundle bundle;
  core::TrustedHmd hmd;
};

const BigForest& big_forest() {
  static const BigForest instance = [] {
    data::HpcDatasetConfig config;
    config.n_train = 8000;
    config.n_test = 16;  // the "first batch" a cold-started server sees
    config.n_unknown = 16;
    data::DatasetBundle bundle = data::build_hpc_dataset(config);
    core::TrustedHmd hmd(config_for(100));
    hmd.fit(bundle.train);
    return BigForest{std::move(bundle), std::move(hmd)};
  }();
  return instance;
}

core::HmdConfig linear_config_for(core::ModelKind kind, int members) {
  core::HmdConfig config = config_for(members);
  config.model = kind;
  return config;
}

/// The pre-engine linear batch path, reproduced verbatim: standardise the
/// whole matrix, then query members one sample at a time and accumulate
/// with the reference accumulate_stats. This is what a detection batch
/// cost on LR/SVM models before FlatLinearEngine existed.
std::vector<core::EnsembleStats> reference_linear_batch(
    const core::UntrustedHmd& hmd, const Matrix& x) {
  const Matrix scaled = hmd.input_scaler().transform(x);
  std::vector<core::EnsembleStats> stats(scaled.rows());
  std::vector<double> probabilities;
  for (std::size_t r = 0; r < scaled.rows(); ++r) {
    hmd.ensemble().member_probabilities(scaled.row(r), probabilities);
    stats[r] = core::accumulate_stats(probabilities);
  }
  return stats;
}

/// Time score() over `x` under `outputs` with one reused ScoreResult: the
/// serving shape, whose loop body allocates nothing.
void run_score(benchmark::State& state, const core::UntrustedHmd& hmd,
               const Matrix& x, api::OutputMask outputs) {
  const api::ScoreRequest request{.x = &x, .outputs = outputs};
  api::ScoreResult result;
  hmd.score(request, result);
  for (auto _ : state) {
    hmd.score(request, result);
    benchmark::DoNotOptimize(result.prediction.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.rows()));
}

void BM_TrustedDetectBatch(benchmark::State& state) {
  core::TrustedHmd hmd(config_for(static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  run_score(state, hmd, bundle().test.X, api::kDetectionOutputs);
}
BENCHMARK(BM_TrustedDetectBatch)->Arg(20)->Arg(100);

void BM_TrustedEstimateBatch(benchmark::State& state) {
  core::TrustedHmd hmd(config_for(static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  run_score(state, hmd, bundle().unknown.X, api::kEstimateOutputs);
}
BENCHMARK(BM_TrustedEstimateBatch)->Arg(20)->Arg(100);

void BM_LinearDetectBatch(benchmark::State& state) {
  const auto kind = state.range(1) == 0 ? core::ModelKind::kBaggedLogistic
                                        : core::ModelKind::kBaggedSvm;
  core::TrustedHmd hmd(
      linear_config_for(kind, static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  run_score(state, hmd, bundle().test.X, api::kDetectionOutputs);
}
BENCHMARK(BM_LinearDetectBatch)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({20, 0});

void BM_LinearDetectBatchReference(benchmark::State& state) {
  const auto kind = state.range(1) == 0 ? core::ModelKind::kBaggedLogistic
                                        : core::ModelKind::kBaggedSvm;
  core::TrustedHmd hmd(
      linear_config_for(kind, static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  const auto& x = bundle().test.X;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_linear_batch(hmd, x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.rows()));
}
BENCHMARK(BM_LinearDetectBatchReference)->Args({100, 0})->Args({100, 1});

void BM_LinearEstimateBatch(benchmark::State& state) {
  core::TrustedHmd hmd(linear_config_for(core::ModelKind::kBaggedLogistic,
                                         static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  run_score(state, hmd, bundle().unknown.X, api::kEstimateOutputs);
}
BENCHMARK(BM_LinearEstimateBatch)->Arg(100);

/// The unified score() spine under different OutputMasks: what a serving
/// loop pays for hard labels only vs the full estimate mask. range(0) =
/// M, range(1) = model (0 rf / 1 lr / 2 svm), range(2) = mask (0
/// prediction-only / 1 detection / 2 full estimate).
void BM_MaskedScore(benchmark::State& state) {
  static const core::ModelKind kinds[] = {core::ModelKind::kRandomForest,
                                          core::ModelKind::kBaggedLogistic,
                                          core::ModelKind::kBaggedSvm};
  static const api::OutputMask masks[] = {
      api::kPredictionOnly, api::kDetectionOutputs, api::kEstimateOutputs};
  core::TrustedHmd hmd(linear_config_for(
      kinds[state.range(1)], static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  run_score(state, hmd, bundle().test.X, masks[state.range(2)]);
}
BENCHMARK(BM_MaskedScore)
    ->Args({100, 0, 0})
    ->Args({100, 0, 2})
    ->Args({100, 1, 0})
    ->Args({100, 1, 2})
    ->Args({100, 2, 0})
    ->Args({100, 2, 2});

/// Steady-state cost of a DetectorRegistry snapshot lookup (the per-batch
/// overhead hmd_serve pays for hot-swappability).
void BM_RegistryLookup(benchmark::State& state) {
  core::TrustedHmd hmd(config_for(static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/bm_registry.hmdf";
  core::save_model(hmd, path);
  api::DetectorRegistry registry(1);
  registry.add("model", path);
  registry.get("model");  // pay the lazy load outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.get("model"));
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_RegistryLookup)->Arg(100);

/// Steady-state cost of an unknown-key lookup: with the cuckoo-filter
/// front door (range(0) != 0) the probe is rejected O(1) with no shard
/// lock; with the filter off it pays the sharded-map walk. This is the
/// per-request floor a fleet front end pays for junk keys.
void BM_RegistryLookupMiss(benchmark::State& state) {
  fleet::FleetOptions fleet_options;
  fleet_options.filter = state.range(0) != 0;
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, fleet_options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.try_get("unknown_model"));
  }
}
BENCHMARK(BM_RegistryLookupMiss)->Arg(1)->Arg(0);

void BM_ArtifactSave(benchmark::State& state) {
  core::TrustedHmd hmd(config_for(static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/bm_artifact.hmdf";
  for (auto _ : state) {
    core::save_model(hmd, path);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_ArtifactSave)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_ArtifactLoad(benchmark::State& state) {
  core::TrustedHmd hmd(config_for(static_cast<int>(state.range(0))));
  hmd.fit(bundle().train);
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/bm_artifact.hmdf";
  core::save_model(hmd, path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::load_model(path));
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_ArtifactLoad)->Arg(100)->Unit(benchmark::kMicrosecond);

/// One detection over `x` into a fresh ScoreResult: what the first
/// request to a cold-started server pays.
void detect_once(const core::TrustedHmd& hmd, const Matrix& x) {
  api::ScoreResult result;
  hmd.score({.x = &x, .outputs = api::kDetectionOutputs}, result);
  benchmark::DoNotOptimize(result.prediction.data());
}

/// Map-and-serve: an artifact loaded zero-copy (mmap) and immediately
/// asked for its first batch — the serving cold start. range(0) picks the
/// mode: 0 = mmap, 1 = full-copy read.
void BM_ArtifactLoadMmap(benchmark::State& state) {
  const BigForest& forest = big_forest();
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/bm_artifact_mmap.hmdf";
  core::save_model(forest.hmd, path);
  const auto mode =
      state.range(0) == 0 ? core::LoadMode::kMmap : core::LoadMode::kStream;
  const auto& x = forest.bundle.test.X;
  for (auto _ : state) {
    detect_once(core::load_model(path, 1, mode), x);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.rows()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ArtifactLoadMmap)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_EnsembleFit(benchmark::State& state) {
  for (auto _ : state) {
    core::TrustedHmd hmd(config_for(static_cast<int>(state.range(0))));
    hmd.fit(bundle().train);
    benchmark::DoNotOptimize(hmd);
  }
}
BENCHMARK(BM_EnsembleFit)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_SocSimOneSecond(benchmark::State& state) {
  sim::SocSim soc;
  const auto profile = sim::dvfs_benign_apps()[0];
  Rng rng(3);
  for (auto _ : state) {
    sim::Workload run = profile.sample(rng);
    while (run.total_duration_ms() < 1000.0) {
      const auto more = profile.sample(rng);
      run.phases.insert(run.phases.end(), more.phases.begin(),
                        more.phases.end());
    }
    benchmark::DoNotOptimize(soc.run(run, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SocSimOneSecond)->Unit(benchmark::kMillisecond);

void BM_DvfsFeaturize(benchmark::State& state) {
  sim::SocSim soc;
  Rng rng(4);
  const auto trace = soc.run(sim::dvfs_benign_apps()[1].sample(rng), rng);
  const features::DvfsFeaturizer featurizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer.features(trace));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DvfsFeaturize);

void BM_HpcFeaturize(benchmark::State& state) {
  sim::SocSim soc;
  Rng rng(5);
  const auto trace = soc.run(sim::dvfs_benign_apps()[1].sample(rng), rng);
  const features::HpcFeaturizer featurizer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer.features(trace.hpc_windows.front()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HpcFeaturize);

// ---------------------------------------------------------------------------
// BENCH_latency.json summary: self-timed score() throughput per request
// shape, registry / artifact / JIT / accuracy-tier costs, and the binary
// bundle cache.

/// Items/sec of `call` (which processes items_per_call items), run for at
/// least min_seconds after one warm-up call.
template <typename F>
double items_per_sec(std::size_t items_per_call, F&& call,
                     double min_seconds = 0.4) {
  using clock = std::chrono::steady_clock;
  call();  // warm-up
  std::size_t calls = 0;
  double elapsed = 0.0;
  const auto start = clock::now();
  do {
    call();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  return static_cast<double>(calls * items_per_call) / elapsed;
}

/// Items/sec of score() over `x` under `outputs`, one reused ScoreResult.
double score_throughput(const core::TrustedHmd& hmd, const Matrix& x,
                        api::OutputMask outputs) {
  const api::ScoreRequest request{.x = &x, .outputs = outputs};
  api::ScoreResult result;
  return items_per_sec(x.rows(), [&] {
    hmd.score(request, result);
    benchmark::DoNotOptimize(result.prediction.data());
  });
}

/// Wall-clock milliseconds of one call.
template <typename F>
double time_ms(F&& call) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  call();
  return std::chrono::duration<double, std::milli>(clock::now() - start)
      .count();
}

struct ThroughputRow {
  int members = 0;
  double batch = 0.0;           ///< score(kDetectionOutputs) items/sec
  double estimate_batch = 0.0;  ///< score(kEstimateOutputs) items/sec
};

ThroughputRow measure_throughput(int members) {
  core::TrustedHmd hmd(config_for(members));
  hmd.fit(bundle().train);
  const auto& x = bundle().test.X;
  ThroughputRow row;
  row.members = members;
  row.batch = score_throughput(hmd, x, api::kDetectionOutputs);
  row.estimate_batch = score_throughput(hmd, x, api::kEstimateOutputs);
  return row;
}

/// Linear-ensemble batch throughput: the flat weight-matrix engine vs the
/// pre-engine per-member path (the "batch cliff" this PR removed).
struct LinearThroughputRow {
  std::string model;
  int members = 0;
  double batch_flat = 0.0;       ///< score(kDetectionOutputs) items/sec
  double batch_reference = 0.0;  ///< pre-engine per-member batch path
  double estimate_batch = 0.0;   ///< score(kEstimateOutputs) items/sec
};

LinearThroughputRow measure_linear_throughput(core::ModelKind kind,
                                              int members) {
  core::TrustedHmd hmd(linear_config_for(kind, members));
  hmd.fit(bundle().train);
  const auto& x = bundle().test.X;
  LinearThroughputRow row;
  row.model = core::model_kind_name(kind);
  row.members = members;
  row.batch_flat = score_throughput(hmd, x, api::kDetectionOutputs);
  row.batch_reference = items_per_sec(x.rows(), [&] {
    benchmark::DoNotOptimize(reference_linear_batch(hmd, x));
  });
  row.estimate_batch = score_throughput(hmd, x, api::kEstimateOutputs);
  return row;
}

/// Masked score() throughput per model family: the cheapest useful
/// request (prediction only) vs the detection mask vs the full estimate
/// mask, all through one spine with one reused ScoreResult.
struct MaskedScoreRow {
  std::string model;
  int members = 0;
  double prediction_only = 0.0;  ///< api::kPredictionOnly items/sec
  double detection = 0.0;        ///< api::kDetectionOutputs items/sec
  double full_estimate = 0.0;    ///< api::kEstimateOutputs items/sec
};

MaskedScoreRow measure_masked_score(core::ModelKind kind, int members) {
  core::TrustedHmd hmd(linear_config_for(kind, members));
  hmd.fit(bundle().train);
  const auto& x = bundle().test.X;
  MaskedScoreRow row;
  row.model = core::model_kind_name(kind);
  row.members = members;
  row.prediction_only = score_throughput(hmd, x, api::kPredictionOnly);
  row.detection = score_throughput(hmd, x, api::kDetectionOutputs);
  row.full_estimate = score_throughput(hmd, x, api::kEstimateOutputs);
  return row;
}

/// Registry overheads: the snapshot lookup a serving loop pays per batch,
/// the no-op refresh() a hot-swap poll pays per interval, and the
/// unknown-key miss — through the filter front door and with the filter
/// disabled (sharded map only).
struct RegistryTiming {
  double lookup_ns = 0.0;
  double refresh_noop_ns = 0.0;
  double miss_ns = 0.0;
  double miss_unfiltered_ns = 0.0;
};

RegistryTiming measure_registry(int members) {
  core::TrustedHmd hmd(config_for(members));
  hmd.fit(bundle().train);
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/latency_registry_probe.hmdf";
  core::save_model(hmd, path);
  api::DetectorRegistry registry(1);
  registry.add("model", path);
  registry.get("model");
  RegistryTiming timing;
  timing.lookup_ns =
      1e9 / items_per_sec(1, [&] {
        benchmark::DoNotOptimize(registry.get("model"));
      }, /*min_seconds=*/0.1);
  timing.refresh_noop_ns =
      1e9 / items_per_sec(1, [&] {
        benchmark::DoNotOptimize(registry.refresh());
      }, /*min_seconds=*/0.1);
  timing.miss_ns =
      1e9 / items_per_sec(1, [&] {
        benchmark::DoNotOptimize(registry.try_get("unknown_model"));
      }, /*min_seconds=*/0.1);
  {
    fleet::FleetOptions no_filter;
    no_filter.filter = false;
    api::DetectorRegistry unfiltered(1, core::LoadMode::kAuto, no_filter);
    unfiltered.add("model", path);
    timing.miss_unfiltered_ns =
        1e9 / items_per_sec(1, [&] {
          benchmark::DoNotOptimize(unfiltered.try_get("unknown_model"));
        }, /*min_seconds=*/0.1);
  }
  std::filesystem::remove(path);
  return timing;
}

/// Train-once / serve-many: what a serving process pays to load a .hmdf
/// artifact vs retraining the same detector from scratch.
struct ArtifactTiming {
  double retrain_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
};

ArtifactTiming measure_artifact(int members) {
  ArtifactTiming timing;
  core::TrustedHmd hmd(config_for(members));
  timing.retrain_ms = time_ms([&] { hmd.fit(bundle().train); });
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/latency_artifact_probe.hmdf";
  timing.save_ms = time_ms([&] { core::save_model(hmd, path); });
  timing.load_ms = time_ms([&] {
    benchmark::DoNotOptimize(core::load_model(path));
  });
  std::filesystem::remove(path);
  return timing;
}

/// Zero-copy vs full-copy artifact residency: load alone for the mmap and
/// full-read paths, and load-plus-first-batch (map-and-serve) for the
/// mmap path. Measured over repeated calls (items_per_sec inverted) —
/// single-shot sub-millisecond timings are too noisy for PR-over-PR
/// tracking.
struct ArtifactMmapTiming {
  double v2_mmap_load_ms = 0.0;
  double v2_read_load_ms = 0.0;
  double v2_mmap_serve_ms = 0.0;  ///< load + first detection batch
};

ArtifactMmapTiming measure_artifact_mmap() {
  const BigForest& forest = big_forest();
  std::filesystem::create_directories("bench_results");
  const std::string v2_path = "bench_results/latency_mmap_probe_v2.hmdf";
  core::save_model(forest.hmd, v2_path);
  const auto& x = forest.bundle.test.X;

  const auto ms_per_call = [](auto&& call) {
    return 1e3 / items_per_sec(1, call, /*min_seconds=*/0.2);
  };
  ArtifactMmapTiming timing;
  timing.v2_mmap_load_ms = ms_per_call([&] {
    benchmark::DoNotOptimize(
        core::load_model(v2_path, 1, core::LoadMode::kMmap));
  });
  timing.v2_read_load_ms = ms_per_call([&] {
    benchmark::DoNotOptimize(
        core::load_model(v2_path, 1, core::LoadMode::kStream));
  });
  timing.v2_mmap_serve_ms = ms_per_call([&] {
    detect_once(core::load_model(v2_path, 1, core::LoadMode::kMmap), x);
  });
  std::filesystem::remove(v2_path);
  return timing;
}

/// Tree-to-native JIT vs the interpreted arena, per artifact scale. Each
/// row trains an RF, publishes it as a .hmdf, loads it twice from the
/// same bytes — policy off (interpreted arena kernels) and policy on
/// (native code compiled at load) — and gates everything on every output
/// column being bit-identical over the serving-scale batch. A row whose parity check fails is REFUSED: it is
/// reported on stderr and counted, but never written to the JSON (a fast
/// wrong kernel must not enter the perf trajectory as a win).
struct JitSeriesRow {
  std::string label;
  std::size_t n_train = 0;
  int members = 0;
  std::size_t nodes = 0;
  std::size_t stumps = 0;
  std::size_t batch_rows = 0;
  std::size_t code_bytes = 0;
  double compile_ms = 0.0;
  /// Cold-start yardstick the compile cost is judged against: mmap load
  /// of the same artifact plus its first interpreted detection batch.
  double arena_load_first_batch_ms = 0.0;
  double arena_batch = 0.0;  ///< score(kDetectionOutputs) items/sec, arena
  double jit_batch = 0.0;    ///< score(kDetectionOutputs) items/sec, native
  double arena_estimate_mask = 0.0; ///< score(kEstimateOutputs) items/sec
  double jit_estimate_mask = 0.0;
  bool parity_ok = false;
};

JitSeriesRow measure_jit(const std::string& label,
                         const core::TrustedHmd& trained,
                         const Matrix& batch, std::size_t n_train) {
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/latency_jit_probe.hmdf";
  core::save_model(trained, path);
  const auto ms_per_call = [](auto&& call) {
    return 1e3 / items_per_sec(1, call, /*min_seconds=*/0.2);
  };

  JitSeriesRow row;
  row.label = label;
  row.n_train = n_train;
  row.members = static_cast<int>(trained.engine().n_members());
  row.batch_rows = batch.rows();

  const jit::Policy saved = jit::policy();
  jit::set_policy(jit::Policy::kOff);
  const core::TrustedHmd arena =
      core::load_model(path, 1, core::LoadMode::kMmap);
  row.arena_load_first_batch_ms = ms_per_call([&] {
    detect_once(core::load_model(path, 1, core::LoadMode::kMmap), batch);
  });
  jit::set_policy(jit::Policy::kOn);
  const core::TrustedHmd jitted =
      core::load_model(path, 1, core::LoadMode::kMmap);
  jit::set_policy(saved);
  std::filesystem::remove(path);

  row.nodes = jitted.flat_forest().n_nodes();
  row.stumps = jitted.flat_forest().n_stumps();
  row.code_bytes = jitted.flat_forest().jit_code_bytes();
  row.compile_ms = jitted.flat_forest().jit_compile_ms();

  // The gate comes first: no parity, no timings worth having.
  const api::ScoreRequest every_column{
      .x = &batch, .outputs = api::kEstimateOutputs | api::kOutConfidence};
  api::ScoreResult arena_result;
  api::ScoreResult jit_result;
  arena.score(every_column, arena_result);
  jitted.score(every_column, jit_result);
  row.parity_ok = api::bit_identical(arena_result, jit_result);
  if (!row.parity_ok) return row;

  row.arena_batch = score_throughput(arena, batch, api::kDetectionOutputs);
  row.jit_batch = score_throughput(jitted, batch, api::kDetectionOutputs);
  row.arena_estimate_mask =
      score_throughput(arena, batch, api::kEstimateOutputs);
  row.jit_estimate_mask =
      score_throughput(jitted, batch, api::kEstimateOutputs);
  return row;
}

/// A fixed-size serving batch (rows cycled from `x`): both series rows
/// are judged against the same 4096-row batch a socket server's batcher
/// would hand the engine, independent of the training-set size.
Matrix serving_batch(const Matrix& x, std::size_t rows) {
  Matrix batch(rows, x.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      batch(r, c) = x(r % x.rows(), c);
    }
  }
  return batch;
}

std::vector<JitSeriesRow> measure_jit_series() {
  constexpr std::size_t kServingRows = 4096;
  std::vector<JitSeriesRow> rows;
  if (!jit::available()) return rows;
  {
    // Mid-size serving artifact: the scale where compile time must pay
    // for itself inside one arena cold start.
    data::HpcDatasetConfig config;
    config.n_train = 1000;
    config.n_test = 16;
    config.n_unknown = 16;
    const data::DatasetBundle hpc1k = data::build_hpc_dataset(config);
    core::TrustedHmd trained(config_for(100));
    trained.fit(hpc1k.train);
    rows.push_back(measure_jit("hpc_rf_1k", trained,
                               serving_batch(hpc1k.train.X, kServingRows),
                               config.n_train));
  }
  // The deep megabyte-scale forest shared with the artifact rows.
  const BigForest& forest = big_forest();
  rows.push_back(measure_jit("hpc_rf_8k", forest.hmd,
                             serving_batch(forest.bundle.train.X,
                                           kServingRows),
                             8000));
  return rows;
}

/// Schema v8: the two-tier accuracy series. Fast- vs exact-tier score()
/// under the full estimate mask with the soft-entropy mode — the only
/// request shape whose fill stage pays per-element transcendentals, i.e.
/// where the vectorised vmath kernels can show up at all. Rows are
/// band-gated the way the jit series is parity-gated: integer columns
/// must match the exact tier bit for bit and every double column must
/// sit inside the documented contract band (8 ULP or 1e-12 absolute,
/// the same tolerance hmd_client --verify uses); a row outside the band
/// is refused rather than recorded as a speedup.
struct AccuracyTierRow {
  std::string model;
  int members = 0;
  std::size_t batch_rows = 0;
  double exact = 0.0;  ///< score(kEstimateOutputs, kExact) items/sec
  double fast = 0.0;   ///< score(kEstimateOutputs, kFast) items/sec
  bool band_ok = false;
};

bool within_contract_band(const api::ScoreResult& exact,
                          const api::ScoreResult& fast) {
  if (exact.rows != fast.rows) return false;
  const auto rank = [](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ull);
  };
  const auto close = [&](const std::vector<double>& a,
                         const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i]) continue;
      if (std::abs(a[i] - b[i]) <= 1e-12) continue;
      const std::uint64_t ra = rank(a[i]), rb = rank(b[i]);
      if ((ra > rb ? ra - rb : rb - ra) > 8) return false;
    }
    return true;
  };
  return exact.prediction == fast.prediction && exact.votes == fast.votes &&
         exact.trusted == fast.trusted &&
         close(exact.confidence, fast.confidence) &&
         close(exact.vote_entropy, fast.vote_entropy) &&
         close(exact.soft_entropy, fast.soft_entropy) &&
         close(exact.expected_entropy, fast.expected_entropy) &&
         close(exact.mutual_information, fast.mutual_information) &&
         close(exact.variation_ratio, fast.variation_ratio) &&
         close(exact.max_probability, fast.max_probability) &&
         close(exact.score, fast.score);
}

AccuracyTierRow measure_accuracy_tier(core::ModelKind kind, int members,
                                      const Matrix& batch) {
  core::TrustedHmd hmd(linear_config_for(kind, members));
  hmd.fit(bundle().train);
  api::ScoreRequest request;
  request.x = &batch;
  request.outputs = api::kEstimateOutputs;
  request.mode = core::UncertaintyMode::kSoftEntropy;

  AccuracyTierRow row;
  row.model = core::model_kind_name(kind);
  row.members = members;
  row.batch_rows = batch.rows();

  api::ScoreResult exact_result;
  request.accuracy = core::Accuracy::kExact;
  hmd.score(request, exact_result);
  api::ScoreResult fast_result;
  request.accuracy = core::Accuracy::kFast;
  hmd.score(request, fast_result);
  row.band_ok = within_contract_band(exact_result, fast_result);
  if (!row.band_ok) return row;  // no band, no timings worth having

  const auto throughput = [&](core::Accuracy accuracy,
                              api::ScoreResult& result) {
    request.accuracy = accuracy;
    return items_per_sec(batch.rows(), [&] {
      hmd.score(request, result);
      benchmark::DoNotOptimize(result.prediction.data());
    });
  };
  row.exact = throughput(core::Accuracy::kExact, exact_result);
  row.fast = throughput(core::Accuracy::kFast, fast_result);
  return row;
}

std::vector<AccuracyTierRow> measure_accuracy_tier_series() {
  const Matrix batch = serving_batch(bundle().test.X, 4096);
  std::vector<AccuracyTierRow> rows;
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    rows.push_back(measure_accuracy_tier(kind, 100, batch));
  }
  return rows;
}

struct CacheTiming {
  double binary_save_ms = 0.0;
  double binary_load_ms = 0.0;
};

CacheTiming measure_cache(const std::string& stem) {
  CacheTiming timing;
  const auto& probe = bundle();
  timing.binary_save_ms = time_ms([&] { data::save_bundle(probe, stem); });
  timing.binary_load_ms = time_ms([&] {
    benchmark::DoNotOptimize(data::load_bundle("probe", stem));
  });
  return timing;
}

void write_summary_json(const char* path) {
  std::fprintf(stderr, "\n[bench_latency] measuring summary for %s ...\n",
               path);
  std::vector<ThroughputRow> rows;
  for (const int members : {20, 100}) {
    rows.push_back(measure_throughput(members));
  }
  std::vector<LinearThroughputRow> linear_rows;
  for (const auto kind :
       {core::ModelKind::kBaggedLogistic, core::ModelKind::kBaggedSvm}) {
    linear_rows.push_back(measure_linear_throughput(kind, 100));
  }
  std::vector<MaskedScoreRow> masked_rows;
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    masked_rows.push_back(measure_masked_score(kind, 100));
  }
  const RegistryTiming registry = measure_registry(100);
  const ArtifactTiming artifact = measure_artifact(100);
  const ArtifactMmapTiming mmap = measure_artifact_mmap();
  const std::vector<JitSeriesRow> jit_rows = measure_jit_series();
  const std::vector<AccuracyTierRow> tier_rows = measure_accuracy_tier_series();

  const std::string probe_dir = "bench_results";
  std::filesystem::create_directories(probe_dir);
  const std::string stem = probe_dir + "/latency_cache_probe";
  const CacheTiming cache = measure_cache(stem);
  std::filesystem::remove(data::bundle_path(stem));

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench_latency] cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_latency\",\n");
  std::fprintf(out, "  \"schema_version\": 11,\n");
  std::fprintf(out, "  \"n_train\": %zu,\n  \"n_test\": %zu,\n",
               bundle().train.size(), bundle().test.size());
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"throughput_items_per_sec\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& row = rows[i];
    std::fprintf(out,
                 "    {\"members\": %d, \"detect_batch\": %.1f, "
                 "\"estimate_batch\": %.1f}%s\n",
                 row.members, row.batch, row.estimate_batch,
                 i + 1 < rows.size() ? "," : "");
    std::fprintf(stderr,
                 "[bench_latency] RF M=%d score() items/sec: detection "
                 "%.0f | estimate %.0f\n",
                 row.members, row.batch, row.estimate_batch);
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"linear_throughput_items_per_sec\": [\n");
  for (std::size_t i = 0; i < linear_rows.size(); ++i) {
    const LinearThroughputRow& row = linear_rows[i];
    std::fprintf(out,
                 "    {\"model\": \"%s\", \"members\": %d, "
                 "\"detect_batch_flat\": %.1f, "
                 "\"detect_batch_reference\": %.1f, "
                 "\"estimate_batch_flat\": %.1f,\n     "
                 "\"speedup_flat_vs_reference\": %.2f}%s\n",
                 row.model.c_str(), row.members, row.batch_flat,
                 row.batch_reference, row.estimate_batch,
                 row.batch_flat / row.batch_reference,
                 i + 1 < linear_rows.size() ? "," : "");
    std::fprintf(stderr,
                 "[bench_latency] %s M=%d detect items/sec: reference "
                 "member path %.0f | flat batch %.0f (%.1fx) | "
                 "estimate batch %.0f\n",
                 row.model.c_str(), row.members, row.batch_reference,
                 row.batch_flat, row.batch_flat / row.batch_reference,
                 row.estimate_batch);
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"masked_score_items_per_sec\": [\n");
  for (std::size_t i = 0; i < masked_rows.size(); ++i) {
    const MaskedScoreRow& row = masked_rows[i];
    std::fprintf(out,
                 "    {\"model\": \"%s\", \"members\": %d, "
                 "\"prediction_only\": %.1f, \"detection\": %.1f, "
                 "\"full_estimate\": %.1f,\n     "
                 "\"speedup_prediction_vs_estimate\": %.2f}%s\n",
                 row.model.c_str(), row.members, row.prediction_only,
                 row.detection, row.full_estimate,
                 row.prediction_only / row.full_estimate,
                 i + 1 < masked_rows.size() ? "," : "");
    std::fprintf(stderr,
                 "[bench_latency] %s M=%d score() items/sec: prediction-only "
                 "%.0f | detection %.0f | full estimate %.0f "
                 "(prediction %.1fx vs estimate)\n",
                 row.model.c_str(), row.members, row.prediction_only,
                 row.detection, row.full_estimate,
                 row.prediction_only / row.full_estimate);
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"registry_ns\": {\"lookup\": %.1f, \"refresh_noop\": "
               "%.1f, \"miss\": %.1f, \"miss_unfiltered\": %.1f},\n",
               registry.lookup_ns, registry.refresh_noop_ns,
               registry.miss_ns, registry.miss_unfiltered_ns);
  std::fprintf(stderr,
               "[bench_latency] registry: snapshot lookup %.0f ns, no-op "
               "refresh %.0f ns, miss %.0f ns (filter) / %.0f ns "
               "(unfiltered)\n",
               registry.lookup_ns, registry.refresh_noop_ns,
               registry.miss_ns, registry.miss_unfiltered_ns);
  std::fprintf(out,
               "  \"model_artifact_ms\": {\"retrain\": %.3f, \"save\": "
               "%.3f, \"load\": %.3f, \"speedup_load_vs_retrain\": %.1f},\n",
               artifact.retrain_ms, artifact.save_ms, artifact.load_ms,
               artifact.retrain_ms / artifact.load_ms);
  std::fprintf(stderr,
               "[bench_latency] RF M=100 artifact: retrain %.1f ms -> "
               "save %.2f ms, load %.2f ms (load %.0fx faster than "
               "retrain)\n",
               artifact.retrain_ms, artifact.save_ms, artifact.load_ms,
               artifact.retrain_ms / artifact.load_ms);
  std::fprintf(out,
               "  \"artifact_mmap\": {\"members\": 100, "
               "\"v2_mmap_load_ms\": %.4f, \"v2_read_load_ms\": %.4f, "
               "\"v2_mmap_load_first_batch_ms\": %.4f},\n",
               mmap.v2_mmap_load_ms, mmap.v2_read_load_ms,
               mmap.v2_mmap_serve_ms);
  std::fprintf(stderr,
               "[bench_latency] RF M=100 artifact load: read %.3f ms | "
               "mmap %.3f ms; map-and-serve-first-batch %.3f ms\n",
               mmap.v2_read_load_ms, mmap.v2_mmap_load_ms,
               mmap.v2_mmap_serve_ms);
  // Schema v6: the tree-to-native JIT series. Entries are parity-gated —
  // a row whose native kernels were not bit-identical to the interpreted
  // arena is refused (counted in "refused", reported on stderr) rather
  // than recorded as a speedup.
  std::size_t jit_refused = 0;
  std::vector<const JitSeriesRow*> jit_accepted;
  for (const JitSeriesRow& row : jit_rows) {
    if (row.parity_ok) {
      jit_accepted.push_back(&row);
    } else {
      ++jit_refused;
      std::fprintf(stderr,
                   "[bench_latency] jit %s M=%d: PARITY FAILURE vs arena "
                   "— entry refused, not written to the summary\n",
                   row.label.c_str(), row.members);
    }
  }
  std::fprintf(out, "  \"jit\": {\"available\": %s, \"refused\": %zu, "
               "\"series\": [\n",
               jit::available() ? "true" : "false", jit_refused);
  for (std::size_t i = 0; i < jit_accepted.size(); ++i) {
    const JitSeriesRow& row = *jit_accepted[i];
    std::fprintf(
        out,
        "    {\"label\": \"%s\", \"n_train\": %zu, \"members\": %d, "
        "\"nodes\": %zu, \"stumps\": %zu, \"batch_rows\": %zu,\n     "
        "\"code_bytes\": %zu, \"compile_ms\": %.3f, "
        "\"arena_load_first_batch_ms\": %.3f,\n     "
        "\"detect_batch_arena\": %.1f, \"detect_batch_jit\": %.1f, "
        "\"estimate_score_arena\": %.1f, \"estimate_score_jit\": %.1f,\n"
        "     \"speedup_batch_jit_vs_arena\": %.2f, "
        "\"speedup_estimate_jit_vs_arena\": %.2f, "
        "\"compile_fits_arena_cold_start\": %s, \"parity_ok\": true}%s\n",
        row.label.c_str(), row.n_train, row.members, row.nodes, row.stumps,
        row.batch_rows, row.code_bytes, row.compile_ms,
        row.arena_load_first_batch_ms, row.arena_batch, row.jit_batch,
        row.arena_estimate_mask, row.jit_estimate_mask,
        row.jit_batch / row.arena_batch,
        row.jit_estimate_mask / row.arena_estimate_mask,
        row.compile_ms < row.arena_load_first_batch_ms ? "true" : "false",
        i + 1 < jit_accepted.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  if (!jit::available()) {
    std::fprintf(stderr,
                 "[bench_latency] jit: backend unavailable on this target "
                 "(interpreted arena only)\n");
  }
  for (const JitSeriesRow* row : jit_accepted) {
    // The one-line jit-vs-arena verdict per artifact scale.
    std::fprintf(stderr,
                 "[bench_latency] jit %s M=%d (%zu nodes): batch %.2fx vs "
                 "arena (%.0f -> %.0f items/sec), estimate mask %.2fx; "
                 "compile %.1f ms vs arena load+first-batch %.1f ms, "
                 "code %.1f KiB\n",
                 row->label.c_str(), row->members, row->nodes,
                 row->jit_batch / row->arena_batch, row->arena_batch,
                 row->jit_batch,
                 row->jit_estimate_mask / row->arena_estimate_mask,
                 row->compile_ms, row->arena_load_first_batch_ms,
                 static_cast<double>(row->code_bytes) / 1024.0);
  }
  // Schema v8: the two-tier accuracy series, band-gated like the jit
  // series is parity-gated.
  std::size_t tier_refused = 0;
  std::vector<const AccuracyTierRow*> tier_accepted;
  for (const AccuracyTierRow& row : tier_rows) {
    if (row.band_ok) {
      tier_accepted.push_back(&row);
    } else {
      ++tier_refused;
      std::fprintf(stderr,
                   "[bench_latency] accuracy %s M=%d: fast tier OUTSIDE the "
                   "contract band vs exact — entry refused, not written to "
                   "the summary\n",
                   row.model.c_str(), row.members);
    }
  }
  std::fprintf(out, "  \"accuracy_tier\": {\"refused\": %zu, \"series\": [\n",
               tier_refused);
  for (std::size_t i = 0; i < tier_accepted.size(); ++i) {
    const AccuracyTierRow& row = *tier_accepted[i];
    std::fprintf(out,
                 "    {\"model\": \"%s\", \"members\": %d, "
                 "\"batch_rows\": %zu, \"estimate_score_exact\": %.1f, "
                 "\"estimate_score_fast\": %.1f,\n     "
                 "\"speedup_fast_vs_exact\": %.2f, \"band_ok\": true}%s\n",
                 row.model.c_str(), row.members, row.batch_rows, row.exact,
                 row.fast, row.fast / row.exact,
                 i + 1 < tier_accepted.size() ? "," : "");
    std::fprintf(stderr,
                 "[bench_latency] accuracy %s M=%d (soft-entropy estimate "
                 "mask, %zu rows): exact %.0f -> fast %.0f items/sec "
                 "(%.2fx), within contract band\n",
                 row.model.c_str(), row.members, row.batch_rows, row.exact,
                 row.fast, row.fast / row.exact);
  }
  std::fprintf(out, "  ]},\n");
  std::fprintf(out,
               "  \"bundle_cache_ms\": {\"binary_save\": %.3f, "
               "\"binary_load\": %.3f}\n",
               cache.binary_save_ms, cache.binary_load_ms);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr,
               "[bench_latency] bundle cache load: %.3f ms\n"
               "[bench_latency] summary written to %s\n",
               cache.binary_load_ms, path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_summary_json("BENCH_latency.json");
  return 0;
}
