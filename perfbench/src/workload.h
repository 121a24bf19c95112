#pragma once
// The three workloads: which artifacts the server registers, which
// requests the generator sends (drawn from --seed), how it sends them,
// and the latency limit a request must meet to count.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hmd.h"
#include "datasets/dataset_bundle.h"
#include "loadgen.h"

namespace perfbench {

/// A trained artifact the workload serves, loaded in-process as the
/// oracle and for the per-layer timings.
struct Source {
  std::string name;    ///< fixture stem, e.g. "dvfs_rf"
  std::string family;  ///< per-layer label, e.g. "rf_stump"
  std::string path;
  std::shared_ptr<const hmd::core::TrustedHmd> hmd;
  const hmd::data::DatasetBundle* data = nullptr;
};

struct Workload {
  std::string name;
  std::vector<std::unique_ptr<Source>> sources;
  std::vector<std::string> keys;          ///< registered keys
  std::vector<std::size_t> key_source;    ///< key -> sources index
  std::vector<std::string> server_args;   ///< after the binary
  std::vector<Shape> shapes;
  std::vector<std::unique_ptr<Answer>> answers;
  std::vector<std::uint32_t> sequence;    ///< shape per request, from the seed
  std::vector<std::uint32_t> hot_shapes;  ///< one per hot key (set-up probe)
  Phase main;
  double limit_us = 0.0;         ///< a request must be answered within this
  std::vector<double> ladder;    ///< open-loop rates for sustained_rps
  std::size_t residency_budget = 0;  ///< bytes; 0 = unbounded
  /// Hot-swap publisher: artifact files re-published in turn between the
  /// two versions every `publish_ms`.
  std::vector<std::string> publish_paths;
  std::string version_a, version_b;
  int publish_ms = 0;
  int setup_starts = 3;
};

/// Datasets the fixtures were trained on (loaded once per process).
struct FixtureData {
  hmd::data::DatasetBundle dvfs;
  hmd::data::DatasetBundle hpc;
};

FixtureData load_fixture_data(const std::string& fixtures);

/// Build workload `name` for `seed`. `run_dir` holds this run's mutable
/// copy of the fleet (fleet_churn re-publishes artifacts there).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& fixtures, const std::string& run_dir,
                       const FixtureData& data, int server_threads,
                       const std::string& simd);

const std::vector<std::string>& workload_names();

}  // namespace perfbench
