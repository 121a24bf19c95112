#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "bench_common.h"
#include "core/model_artifact.h"

namespace perfbench {

namespace fs = std::filesystem;
using hmd::api::OutputMask;
using hmd::core::Accuracy;

namespace {

/// Rows of one split of a bundle, cut into aligned blocks of `rows`.
struct Block {
  const double* features;
  bool zero_day;
};

std::vector<Block> blocks_of(const hmd::data::DatasetBundle& data,
                             std::size_t rows) {
  std::vector<Block> blocks;
  for (const bool zero_day : {false, true}) {
    const hmd::Matrix& x = zero_day ? data.unknown.X : data.test.X;
    for (std::size_t r = 0; r + rows <= x.rows(); r += rows) {
      blocks.push_back({x.row_ptr(r), zero_day});
    }
  }
  return blocks;
}

Source& add_source(Workload& w, const std::string& name,
                   const std::string& family, const std::string& path,
                   const hmd::data::DatasetBundle& data) {
  auto source = std::make_unique<Source>();
  source->name = name;
  source->family = family;
  source->path = path;
  source->hmd = std::make_shared<const hmd::core::TrustedHmd>(
      hmd::core::load_model(path, 1));
  source->data = &data;
  w.sources.push_back(std::move(source));
  return *w.sources.back();
}

/// Add shapes for `key` over blocks of its source's data: every block,
/// or `per_split` seeded picks from each split (known and zero-day
/// alike, so the zero-day share of a key's traffic does not depend on the
/// seed). Answers come from `versions` (several when the key is
/// re-published).
void add_shapes(Workload& w, int key, const std::vector<std::size_t>& versions,
                std::size_t rows, OutputMask outputs, Accuracy accuracy,
                std::size_t per_split = 0, std::mt19937_64* rng = nullptr) {
  const Source& first = *w.sources[versions.front()];
  std::vector<Block> blocks = blocks_of(*first.data, rows);
  if (per_split > 0) {
    std::vector<Block> picked;
    for (const bool zero_day : {false, true}) {
      std::vector<Block> split;
      for (const Block& b : blocks) {
        if (b.zero_day == zero_day) split.push_back(b);
      }
      std::shuffle(split.begin(), split.end(), *rng);
      split.resize(std::min(per_split, split.size()));
      picked.insert(picked.end(), split.begin(), split.end());
    }
    blocks = std::move(picked);
  }
  for (const Block& block : blocks) {
    Shape shape;
    shape.key = w.keys[static_cast<std::size_t>(key)];
    shape.key_index = key;
    shape.features = block.features;
    shape.rows = static_cast<std::uint32_t>(rows);
    shape.cols = static_cast<std::uint32_t>(first.hmd->engine().n_features());
    shape.outputs = outputs;
    shape.accuracy = accuracy;
    shape.zero_day = block.zero_day;
    for (const std::size_t v : versions) {
      w.answers.push_back(make_answer(*w.sources[v]->hmd, shape));
      shape.answers.push_back(w.answers.back().get());
    }
    w.shapes.push_back(std::move(shape));
  }
}

int add_key(Workload& w, const std::string& key, std::size_t source) {
  w.keys.push_back(key);
  w.key_source.push_back(source);
  return static_cast<int>(w.keys.size()) - 1;
}

std::vector<std::string> common_server_args(int threads,
                                            const std::string& simd,
                                            int refresh_ms, int residency_mb) {
  return {"--listen=127.0.0.1:0",
          "--threads=" + std::to_string(threads),
          "--jit=auto",
          "--simd=" + simd,
          "--accuracy=exact",
          "--batch-rows=256",
          "--batch-delay-us=200",
          "--refresh-ms=" + std::to_string(refresh_ms),
          "--mmap=on",
          "--filter=on",
          "--residency-mb=" + std::to_string(residency_mb)};
}

/// Shapes of `key_shapes[k]` drawn uniformly within a key, keys drawn by
/// `key_weight`.
std::vector<std::uint32_t> draw_sequence(
    std::mt19937_64& rng, const std::vector<std::vector<std::uint32_t>>& by_key,
    const std::vector<double>& key_weight, std::size_t length) {
  std::discrete_distribution<std::size_t> pick_key(key_weight.begin(),
                                                   key_weight.end());
  std::vector<std::uint32_t> sequence(length);
  for (std::uint32_t& s : sequence) {
    const auto& shapes = by_key[pick_key(rng)];
    s = shapes[std::uniform_int_distribution<std::size_t>(
        0, shapes.size() - 1)(rng)];
  }
  return sequence;
}

std::vector<std::vector<std::uint32_t>> shapes_by_key(const Workload& w,
                                                      std::size_t n_groups) {
  std::vector<std::vector<std::uint32_t>> by_key(n_groups);
  for (std::uint32_t s = 0; s < w.shapes.size(); ++s) {
    const int key = w.shapes[s].key_index;
    by_key[key < 0 ? n_groups - 1 : static_cast<std::size_t>(key)].push_back(s);
  }
  return by_key;
}

void small_open(Workload& w, std::mt19937_64& rng, const std::string& fx,
                const FixtureData& data, int threads, const std::string& simd) {
  // Three hot DVFS keys, 4-row detection requests, exact tier: engine
  // work per row is tiny, so reactor, wire and batcher costs dominate.
  const char* names[] = {"dvfs_rf", "dvfs_lr", "dvfs_svm"};
  const char* families[] = {"rf_stump", "lr", "svm"};
  for (int i = 0; i < 3; ++i) {
    const std::string path = fx + "/" + names[i] + ".hmdf";
    add_source(w, names[i], families[i], path, data.dvfs);
    add_key(w, names[i], static_cast<std::size_t>(i));
    w.server_args.push_back(path);
  }
  for (int k = 0; k < 3; ++k) {
    add_shapes(w, k, {static_cast<std::size_t>(k)}, 4,
               hmd::api::kDetectionOutputs, Accuracy::kExact);
  }
  const auto by_key = shapes_by_key(w, 3);
  w.main.rate = 20000.0;
  w.main.connections = 4;
  w.limit_us = 1000.0;
  w.ladder = {20000, 40000, 60000, 80000, 100000, 120000, 140000, 160000};
  w.sequence = draw_sequence(rng, by_key, {1, 1, 1}, 1u << 20);
  for (const auto& shapes : by_key) w.hot_shapes.push_back(shapes.front());
  w.setup_starts = 30;  // a start costs a few ms here: take more of them
  auto args = common_server_args(threads, simd, 1000, 0);
  args.insert(args.end(), w.server_args.begin(), w.server_args.end());
  w.server_args = args;
}

void deep_bulk(Workload& w, std::mt19937_64& rng, const std::string& fx,
               const FixtureData& data, int threads, const std::string& simd) {
  // A deep HPC forest inside the JIT cap, 64-row full estimates, plus a
  // share of fast-tier linear estimates: engine, JIT, SIMD and worker
  // pool time dominate; the serve layer sees few frames.
  const char* names[] = {"hpc_rf", "hpc_lr", "hpc_svm"};
  const char* families[] = {"rf_deep", "lr", "svm"};
  for (int i = 0; i < 3; ++i) {
    const std::string path = fx + "/" + names[i] + ".hmdf";
    add_source(w, names[i], families[i], path, data.hpc);
    add_key(w, names[i], static_cast<std::size_t>(i));
    w.server_args.push_back(path);
  }
  add_shapes(w, 0, {0}, 64, hmd::api::kEstimateOutputs, Accuracy::kExact);
  add_shapes(w, 1, {1}, 64, hmd::api::kEstimateOutputs, Accuracy::kFast);
  add_shapes(w, 2, {2}, 64, hmd::api::kEstimateOutputs, Accuracy::kFast);
  const auto by_key = shapes_by_key(w, 3);
  w.main.connections = 2;
  w.main.pipeline = 2;
  w.limit_us = 50000.0;
  w.sequence = draw_sequence(rng, by_key, {6, 1, 1}, 1u << 18);
  for (const auto& shapes : by_key) w.hot_shapes.push_back(shapes.front());
  w.setup_starts = 10;
  auto args = common_server_args(threads, simd, 1000, 0);
  args.insert(args.end(), w.server_args.begin(), w.server_args.end());
  w.server_args = args;
}

void fleet_churn(Workload& w, std::mt19937_64& rng, const std::string& fx,
                 const std::string& run_dir, const FixtureData& data,
                 int threads, const std::string& simd) {
  // A synthetic fleet of mixed families under a residency budget smaller
  // than its working set, Zipf key popularity, a share of unknown keys,
  // and hot deep forests re-published between two versions while the
  // refresh timer runs: registry, residency, filter, artifact load and
  // JIT compile dominate.
  const std::string fleet = run_dir + "/fleet";
  const std::size_t mid_a = 0, mid_b = 1;
  add_source(w, "mid_a", "rf_deep", fx + "/mid_a.hmdf", data.hpc);
  add_source(w, "mid_b", "rf_deep", fx + "/mid_b.hmdf", data.hpc);
  add_source(w, "dvfs_rf", "rf_stump", fx + "/dvfs_rf.hmdf", data.dvfs);
  add_source(w, "dvfs_lr", "lr", fx + "/dvfs_lr.hmdf", data.dvfs);
  add_source(w, "dvfs_svm", "svm", fx + "/dvfs_svm.hmdf", data.dvfs);
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(fleet)) {
    if (entry.path().extension() == ".hmdf") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  for (const std::string& stem : stems) {
    const std::size_t source = stem.rfind("mid_a_", 0) == 0     ? mid_a
                               : stem.rfind("dvfs_rf_", 0) == 0 ? 2
                               : stem.rfind("dvfs_lr_", 0) == 0 ? 3
                                                                : 4;
    add_key(w, stem, source);
  }
  if (w.keys.empty()) throw std::runtime_error("empty fleet in " + fleet);

  // Zipf(1.2) popularity by rank. Which family holds each rank follows a
  // fixed interleave (so the traffic's family mix does not depend on the
  // seed); which key of the family holds it is a seeded shuffle.
  std::map<std::size_t, std::vector<std::size_t>> by_family;
  for (std::size_t k = 0; k < w.keys.size(); ++k) {
    by_family[w.key_source[k]].push_back(k);
  }
  for (auto& [family, keys] : by_family) std::shuffle(keys.begin(), keys.end(), rng);
  std::vector<std::size_t> rank;
  std::map<std::size_t, double> credit;
  while (rank.size() < w.keys.size()) {
    // Largest-remainder interleave: each family earns credit in
    // proportion to its size and the richest takes the next rank.
    std::size_t best = SIZE_MAX;
    for (auto& [family, keys] : by_family) {
      credit[family] += static_cast<double>(keys.size());
      if (!keys.empty() && (best == SIZE_MAX || credit[family] > credit[best])) {
        best = family;
      }
    }
    credit[best] -= static_cast<double>(w.keys.size());
    rank.push_back(by_family[best].back());
    by_family[best].pop_back();
  }
  std::vector<double> weight(w.keys.size() + 1);
  for (std::size_t r = 0; r < rank.size(); ++r) {
    weight[rank[r]] = 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
  }
  double registered = 0.0;
  for (std::size_t k = 0; k < w.keys.size(); ++k) registered += weight[k];
  weight.back() = registered * 0.01 / 0.99;  // 1% unknown keys

  // The four most popular deep forests are re-published between versions.
  for (std::size_t r = 0; r < rank.size() && w.publish_paths.size() < 4; ++r) {
    const std::size_t k = rank[r];
    if (w.key_source[k] == mid_a) {
      w.publish_paths.push_back(fleet + "/" + w.keys[k] + ".hmdf");
    }
  }
  w.version_a = fx + "/mid_a.hmdf";
  w.version_b = fx + "/mid_b.hmdf";
  w.publish_ms = 500;

  for (std::size_t k = 0; k < w.keys.size(); ++k) {
    std::vector<std::size_t> versions = {w.key_source[k]};
    const std::string path = fleet + "/" + w.keys[k] + ".hmdf";
    if (std::find(w.publish_paths.begin(), w.publish_paths.end(), path) !=
        w.publish_paths.end()) {
      versions.push_back(mid_b);
    }
    const bool linear = w.key_source[k] == 3 || w.key_source[k] == 4;
    add_shapes(w, static_cast<int>(k), versions, 8,
               hmd::api::kDetectionOutputs, Accuracy::kExact, 8, &rng);
    add_shapes(w, static_cast<int>(k), versions, 8,
               hmd::api::kPredictionOnly | hmd::api::kOutTrusted,
               Accuracy::kExact, 4, &rng);
    if (linear) {
      add_shapes(w, static_cast<int>(k), versions, 8,
                 hmd::api::kDetectionOutputs, Accuracy::kFast, 4, &rng);
    }
  }
  for (int g = 0; g < 16; ++g) {
    Shape ghost;
    ghost.key = "ghost_" + std::to_string(g);
    ghost.features = data.dvfs.test.X.row_ptr(0);
    ghost.rows = 8;
    ghost.cols = static_cast<std::uint32_t>(data.dvfs.test.X.cols());
    ghost.unknown_key = true;
    w.shapes.push_back(std::move(ghost));
  }
  const auto by_key = shapes_by_key(w, w.keys.size() + 1);
  w.sequence = draw_sequence(rng, by_key, weight, 1u << 18);
  for (std::size_t r = 0; r < 8 && r < rank.size(); ++r) {
    w.hot_shapes.push_back(by_key[rank[r]].front());
  }

  // Budget: two thirds of the fleet's resident footprint.
  std::size_t total = 0;
  for (const std::size_t s : w.key_source) {
    total += w.sources[s]->hmd->engine().memory_bytes();
  }
  const int budget_mb = std::max<int>(1, static_cast<int>(total * 2 / 3 >> 20));
  w.residency_budget = static_cast<std::size_t>(budget_mb) << 20;
  w.main.rate = 500.0;
  w.main.connections = 4;
  w.limit_us = 50000.0;
  w.setup_starts = 5;
  w.server_args = common_server_args(threads, simd, 50, budget_mb);
  w.server_args.push_back("--models=" + fleet);
}

}  // namespace

FixtureData load_fixture_data(const std::string& fixtures) {
  hmd::bench::BenchOptions options;
  options.cache_dir = fixtures + "/dataset_cache";
  options.scale = 1.0;
  FixtureData data;
  data.dvfs = hmd::bench::dvfs_bundle(options);
  options.scale = 0.1;
  data.hpc = hmd::bench::hpc_bundle(options);
  return data;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"small_open", "deep_bulk",
                                                 "fleet_churn"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& fixtures, const std::string& run_dir,
                       const FixtureData& data, int server_threads,
                       const std::string& simd) {
  Workload w;
  w.name = name;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  if (name == "small_open") {
    small_open(w, rng, fixtures, data, server_threads, simd);
  } else if (name == "deep_bulk") {
    deep_bulk(w, rng, fixtures, data, server_threads, simd);
  } else if (name == "fleet_churn") {
    fleet_churn(w, rng, fixtures, run_dir, data, server_threads, simd);
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return w;
}

}  // namespace perfbench
