#pragma once
// Shared fixtures: small dataset bundles built once per test binary (the
// simulators are deterministic, so every suite sees identical data), the
// per-test scratch directory every file-writing test uses, the typed
// artifact-rejection probe, the artifact resealer, and a one-call score()
// for assertions.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "api/score.h"
#include "common/checksum.h"
#include "common/error.h"
#include "core/model_artifact.h"
#include "datasets/dvfs_dataset.h"
#include "datasets/hpc_dataset.h"

namespace hmd::test {

/// A fresh, empty directory private to the running test:
/// "<tag>_<Suite>_<Test>_<pid>" under the working directory. The test
/// name keeps tests of one process apart; the pid keeps concurrent
/// processes apart — ctest -j, repeated runs, and a test that runs in
/// two processes at once must never remove_all each other's files.
inline std::filesystem::path unique_temp_dir(const std::string& tag) {
  std::string name = tag;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name.append("_").append(info->test_suite_name());
    name.append("_").append(info->name());
  }
  name.append("_").append(std::to_string(::getpid()));
  const std::filesystem::path dir(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Every ScoreResult column.
inline constexpr api::OutputMask kAllOutputs =
    api::kEstimateOutputs | api::kOutConfidence;

/// Score every row of `x` into a fresh ScoreResult.
inline api::ScoreResult score(
    const core::UntrustedHmd& hmd, const Matrix& x,
    api::OutputMask outputs = kAllOutputs,
    std::optional<core::UncertaintyMode> mode = std::nullopt) {
  api::ScoreResult result;
  hmd.score({.x = &x, .outputs = outputs, .mode = mode}, result);
  return result;
}

/// Every way load_model can materialise artifact bytes.
inline constexpr core::LoadMode kLoadModes[] = {
    core::LoadMode::kAuto, core::LoadMode::kMmap, core::LoadMode::kStream};

/// Load `path` under `mode` and return the LoadError code it was rejected
/// with; fails the test if the load succeeds or throws something untyped.
inline LoadErrorCode rejection_code(
    const std::string& path, core::LoadMode mode = core::LoadMode::kAuto) {
  SCOPED_TRACE("load mode " + std::to_string(static_cast<int>(mode)));
  try {
    core::load_model(path, 1, mode);
  } catch (const LoadError& error) {
    return error.code();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "untyped rejection: " << error.what();
    return LoadErrorCode::kIo;
  }
  ADD_FAILURE() << "corrupt artifact loaded cleanly: " << path;
  return LoadErrorCode::kIo;
}

/// Recompute the `.hmdf` header hash (bytes [88, 96), XXH64 over [0, 88))
/// of the file at `path` in place — after a test edits the section table.
inline void reseal_header(const std::string& path) {
  constexpr std::size_t kHashOffset = 16 + 3 * 24;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  char header[kHashOffset];
  f.read(header, kHashOffset);
  ASSERT_TRUE(f.good()) << path;
  const std::uint64_t hash = io::xxhash64(header, kHashOffset);
  f.seekp(kHashOffset);
  f.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
}

/// Make a deliberately corrupted artifact checksum-valid again, the way a
/// hostile writer could: recompute every section's XXH64 over the byte
/// ranges inspect_model reports, store each in its 24-byte table entry,
/// then reseal the header. load_model then gets past the checksums and
/// has to reject the corruption on structure alone.
inline void reseal(const std::string& path) {
  const core::ArtifactInfo info = core::inspect_model(path);
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const auto& section = info.sections[i];
    const std::uint64_t hash =
        io::xxhash64(bytes.data() + section.offset, section.size);
    std::memcpy(bytes.data() + 16 + 24 * i + 16, &hash, sizeof(hash));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }
  reseal_header(path);
}

/// Scaled-down DVFS bundle (well-separated classes, mostly stump trees).
inline const data::DatasetBundle& small_dvfs() {
  static const data::DatasetBundle bundle = [] {
    data::DvfsDatasetConfig config;
    config.seed = 7;
    config.n_train = 180;
    config.n_test = 60;
    config.n_unknown = 40;
    return data::build_dvfs_dataset(config);
  }();
  return bundle;
}

/// Scaled-down HPC bundle (overlapping classes, deeper trees).
inline const data::DatasetBundle& small_hpc() {
  static const data::DatasetBundle bundle = [] {
    data::HpcDatasetConfig config;
    config.seed = 13;
    config.n_train = 400;
    config.n_test = 120;
    config.n_unknown = 80;
    return data::build_hpc_dataset(config);
  }();
  return bundle;
}

}  // namespace hmd::test
