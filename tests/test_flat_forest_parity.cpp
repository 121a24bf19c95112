// Golden parity suite: the flat struct-of-arrays engine (stump-specialised
// and general trees alike), as score() serves it, must be bit-identical to
// the reference pointer-tree path — vote counts, summed probabilities,
// summed entropies and every uncertainty score — across both dataset
// bundles and ensemble sizes M in {1, 5, 100}.
//
// The JitParity suite extends the contract one layer down: the same
// artifact loaded with the tree-to-native JIT forced on and forced off
// must produce bit-identical ScoreResults for the preset OutputMasks and
// every single-column mask, every uncertainty mode, both bundles, M in {1, 5, 100}, a
// randomised deep-tree artifact, and NaN-bearing inputs (the JIT's
// compare encodings must descend right on NaN exactly like the
// interpreter). On targets without the JIT both loads fall back to the
// interpreted arena and the comparison is trivially green — the suite
// asserts behaviour, not that native code exists.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "api/score.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "core/uncertainty.h"
#include "jit/jit.h"
#include "test_support.h"

namespace {

using namespace hmd;

core::HmdConfig config_for(int members, int threads = 0) {
  core::HmdConfig config;
  config.model = core::ModelKind::kRandomForest;
  config.n_members = members;
  config.n_threads = threads;
  config.seed = 42;
  return config;
}

void expect_parity(const data::DatasetBundle& bundle, int members) {
  SCOPED_TRACE(bundle.name + " M=" + std::to_string(members));
  core::TrustedHmd hmd(config_for(members));
  hmd.fit(bundle.train);

  const core::UncertaintyEstimator reference(
      core::EnsembleView::of(hmd.ensemble()));

  // The served path's sufficient statistics vs the member-by-member
  // reference: bit-identical (kEstimateOutputs demands every field).
  const Matrix& x = bundle.test.X;
  const api::ScoreResult result = test::score(hmd, x, api::kEstimateOutputs);
  ASSERT_EQ(result.stats.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    const core::EnsembleStats ref = reference.reference_stats(x.row(r));
    EXPECT_EQ(result.stats[r].votes1, ref.votes1);
    EXPECT_EQ(result.stats[r].sum_p1, ref.sum_p1);
    EXPECT_EQ(result.stats[r].sum_entropy, ref.sum_entropy);
    EXPECT_EQ(result.votes[r], ref.votes1);
    EXPECT_EQ(result.prediction[r], 2 * ref.votes1 > members ? 1 : 0);
  }

  // Score sweep over every mode, served batch vs reference per-sample.
  for (const auto mode :
       {core::UncertaintyMode::kVoteEntropy, core::UncertaintyMode::kSoftEntropy,
        core::UncertaintyMode::kExpectedEntropy,
        core::UncertaintyMode::kMutualInformation,
        core::UncertaintyMode::kVariationRatio,
        core::UncertaintyMode::kMaxProbability}) {
    const auto flat_scores =
        test::score(hmd, x, api::kOutScore, mode).score;
    const auto ref_scores = reference.scores(x, mode);
    ASSERT_EQ(flat_scores.size(), ref_scores.size());
    for (std::size_t r = 0; r < flat_scores.size(); ++r) {
      EXPECT_EQ(flat_scores[r], ref_scores[r])
          << core::uncertainty_mode_name(mode) << " row " << r;
    }
  }
}

TEST(FlatForestParity, DvfsAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_parity(test::small_dvfs(), members);
  }
}

TEST(FlatForestParity, HpcAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_parity(test::small_hpc(), members);
  }
}

TEST(FlatForestParity, StumpSpecialisationCoversSeparableData) {
  // The DVFS classes are well separated, so most members compile to the
  // specialised stump path — the parity above must therefore have
  // exercised it. Guard against the specialisation silently disappearing.
  core::TrustedHmd hmd(config_for(100));
  hmd.fit(test::small_dvfs().train);
  EXPECT_GT(hmd.flat_forest().n_stumps(), 50u);
  EXPECT_EQ(hmd.flat_forest().n_trees(), 100u);
}

TEST(FlatForestParity, HpcGrowsGeneralTrees) {
  // Overlapping HPC classes must force at least some non-stump members,
  // so the general walk path is exercised by the HPC parity case.
  core::TrustedHmd hmd(config_for(100));
  hmd.fit(test::small_hpc().train);
  EXPECT_LT(hmd.flat_forest().n_stumps(), hmd.flat_forest().n_trees());
}

TEST(FlatForestParity, BatchIsDeterministicAcrossThreadCounts) {
  const auto& bundle = test::small_dvfs();
  core::TrustedHmd serial(config_for(40, 1));
  core::TrustedHmd threaded(config_for(40, 3));
  serial.fit(bundle.train);
  threaded.fit(bundle.train);
  EXPECT_TRUE(api::bit_identical(test::score(serial, bundle.test.X),
                                 test::score(threaded, bundle.test.X)));
}

/// Restores the process-wide JIT policy on scope exit, so a failing test
/// cannot leak a forced policy into later suites.
struct PolicyGuard {
  jit::Policy saved = jit::policy();
  ~PolicyGuard() { jit::set_policy(saved); }
};

core::TrustedHmd load_with_policy(const std::string& path, jit::Policy p) {
  const PolicyGuard guard;
  jit::set_policy(p);
  return core::load_model(path, /*n_threads=*/1);
}

/// The preset OutputMasks plus each column bit on its own (a
/// single-column request drives the narrowest StatsMask through the
/// kernel table).
const std::vector<api::OutputMask>& parity_masks() {
  static const std::vector<api::OutputMask> masks = [] {
    std::vector<api::OutputMask> out = {
        api::kPredictionOnly, api::kPredictionOnly | api::kOutTrusted,
        api::kDetectionOutputs, api::kEstimateOutputs};
    for (std::uint32_t bit = 0; bit < 11; ++bit) out.push_back(1u << bit);
    return out;
  }();
  return masks;
}

/// Round-trip one detector through an artifact, load it twice (JIT forced
/// on / forced off), and demand bit-identical score() columns for every
/// parity mask and every uncertainty mode over `x`.
void expect_jit_parity(const core::TrustedHmd& trained, const Matrix& x,
                       const std::string& tag) {
  const auto dir = test::unique_temp_dir("jit_parity_" + tag);
  const std::string path = (dir / "model.hmdf").string();
  core::save_model(trained, path);

  const core::TrustedHmd jitted = load_with_policy(path, jit::Policy::kOn);
  const core::TrustedHmd arena = load_with_policy(path, jit::Policy::kOff);
  EXPECT_EQ(arena.engine().kernel_backend(), "arena");
  if (jit::available()) {
    // Forced on, every forest compiles, stump-dominated ones included
    // (kAuto compiles none).
    EXPECT_EQ(jitted.engine().kernel_backend(), "jit");
    EXPECT_GT(jitted.flat_forest().jit_code_bytes(), 0u);
  }

  api::ScoreRequest request;
  request.x = &x;
  api::ScoreResult jit_result;
  api::ScoreResult arena_result;
  for (const api::OutputMask mask : parity_masks()) {
    SCOPED_TRACE(tag + " mask=" + std::to_string(mask));
    request.outputs = mask;
    request.mode.reset();
    jitted.score(request, jit_result);
    arena.score(request, arena_result);
    EXPECT_TRUE(api::bit_identical(jit_result, arena_result));
  }
  request.outputs = api::kDetectionOutputs;
  for (const auto mode :
       {core::UncertaintyMode::kVoteEntropy, core::UncertaintyMode::kSoftEntropy,
        core::UncertaintyMode::kExpectedEntropy,
        core::UncertaintyMode::kMutualInformation,
        core::UncertaintyMode::kVariationRatio,
        core::UncertaintyMode::kMaxProbability}) {
    SCOPED_TRACE(tag + " mode=" + core::uncertainty_mode_name(mode));
    request.mode = mode;
    jitted.score(request, jit_result);
    arena.score(request, arena_result);
    EXPECT_TRUE(api::bit_identical(jit_result, arena_result));
  }
  std::filesystem::remove_all(dir);
}

TEST(JitParity, DvfsAllEnsembleSizesAllMasks) {
  const auto& bundle = test::small_dvfs();
  for (const int members : {1, 5, 100}) {
    core::TrustedHmd hmd(config_for(members));
    hmd.fit(bundle.train);
    expect_jit_parity(hmd, bundle.test.X,
                      "dvfs_m" + std::to_string(members));
  }
}

TEST(JitParity, HpcAllEnsembleSizesAllMasks) {
  const auto& bundle = test::small_hpc();
  for (const int members : {1, 5, 100}) {
    core::TrustedHmd hmd(config_for(members));
    hmd.fit(bundle.train);
    expect_jit_parity(hmd, bundle.test.X, "hpc_m" + std::to_string(members));
  }
}

/// Random labels force deep, irregular trees (no stump specialisation).
constexpr std::size_t kRandomCols = 12;

ml::Dataset random_label_train(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> feature(-4.0, 4.0);
  ml::Dataset train;
  const std::size_t n = 240;
  train.X = Matrix(n, kRandomCols);
  train.y.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < kRandomCols; ++c) train.X(r, c) = feature(rng);
    train.y[r] = static_cast<int>(rng() & 1);
  }
  return train;
}

/// `rows` random inputs with a couple of features NaN-poisoned on every
/// third row.
Matrix nan_poisoned_rows(std::mt19937_64& rng, std::size_t rows) {
  std::uniform_real_distribution<double> feature(-4.0, 4.0);
  Matrix x(rows, kRandomCols);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < kRandomCols; ++c) x(r, c) = feature(rng);
    if (r % 3 == 0) {
      x(r, r % kRandomCols) = std::numeric_limits<double>::quiet_NaN();
      x(r, (r + 5) % kRandomCols) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return x;
}

TEST(JitParity, RandomisedDeepTreesWithNaNInputs) {
  // NaN-poisoned inputs pin the compare encodings: cmpsd(LE) and
  // ucomisd/jb must both send NaN right, exactly like the interpreter's
  // !(x <= t).
  std::mt19937_64 rng(20210721);
  core::TrustedHmd hmd(config_for(20));
  hmd.fit(random_label_train(rng));
  EXPECT_LT(hmd.flat_forest().n_stumps(), hmd.flat_forest().n_trees());
  expect_jit_parity(hmd, nan_poisoned_rows(rng, 64), "random_deep_nan");
}

TEST(FlatForestParity, InterleavedWalkEveryRaggedTail) {
  // The arena walks general trees eight rows at a time; a partial group
  // pads its idle lanes and skips their accumulate. Every group shape —
  // a lone row, each tail length, exact and ragged tiles, several tiles
  // split over a pool — must match the member-by-member reference bit
  // for bit, NaN inputs included.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  std::mt19937_64 rng(20210721);
  const ml::Dataset train = random_label_train(rng);
  const Matrix all = nan_poisoned_rows(rng, 513);
  std::vector<std::size_t> counts = {255, 256, 257, 513};
  for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
  for (const int threads : {1, 3}) {
    core::TrustedHmd hmd(config_for(20, threads));
    hmd.fit(train);
    ASSERT_LT(hmd.flat_forest().n_stumps(), hmd.flat_forest().n_trees());
    ASSERT_NE(hmd.engine().kernel_backend(), "jit");
    const core::UncertaintyEstimator reference(
        core::EnsembleView::of(hmd.ensemble()));
    for (const std::size_t n : counts) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " rows=" + std::to_string(n));
      Matrix x(n, kRandomCols);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < kRandomCols; ++c) x(r, c) = all(r, c);
      }
      const api::ScoreResult result =
          test::score(hmd, x, api::kEstimateOutputs);
      ASSERT_EQ(result.stats.size(), n);
      for (std::size_t r = 0; r < n; ++r) {
        const core::EnsembleStats ref = reference.reference_stats(x.row(r));
        ASSERT_EQ(result.stats[r].votes1, ref.votes1) << "row " << r;
        ASSERT_EQ(result.stats[r].sum_p1, ref.sum_p1) << "row " << r;
        ASSERT_EQ(result.stats[r].sum_entropy, ref.sum_entropy) << "row " << r;
      }
    }
  }
}

TEST(FlatForestParity, EveryModelKindReportsAFlatEngineTruthfully) {
  // Every ModelKind compiles to a flat engine: trees to FlatForestEngine,
  // linear ensembles to FlatLinearEngine, and engine() must say which.
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    core::HmdConfig config = config_for(10);
    config.model = kind;
    core::TrustedHmd hmd(config);
    hmd.fit(test::small_dvfs().train);
    EXPECT_EQ(hmd.engine().n_members(), 10u);
    const bool is_tree = kind == core::ModelKind::kRandomForest;
    EXPECT_EQ(hmd.engine().engine_id() == core::EngineId::kFlatForest,
              is_tree);
  }
}

}  // namespace
