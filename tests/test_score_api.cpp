// The unified score() spine (api/score.h): the OutputMask contract (every
// selected column bit-identical to the same column of a full request,
// every unselected column empty, with and without a per-request mode
// override), the minimal engine StatsMask, the steady-state no-allocation
// contract, multi-thread determinism of score()/stats_batch at widths
// 1/2/4, and the parse_model_kind round-trip.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "api/score.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "test_support.h"

namespace hmd {
namespace {

using core::ModelKind;
using core::UncertaintyMode;

const std::vector<ModelKind> kAllKinds = {ModelKind::kRandomForest,
                                          ModelKind::kBaggedLogistic,
                                          ModelKind::kBaggedSvm};

core::HmdConfig small_config(ModelKind kind, int members = 7) {
  core::HmdConfig config;
  config.model = kind;
  config.n_members = members;
  config.n_threads = 1;
  config.seed = 5;
  return config;
}

core::TrustedHmd fitted(const data::DatasetBundle& bundle, ModelKind kind,
                        int members = 7) {
  core::TrustedHmd hmd(small_config(kind, members));
  hmd.fit(bundle.train);
  return hmd;
}

/// The ScoreResult column holding the uncertainty quantity `mode`.
const std::vector<double>& mode_column(const api::ScoreResult& result,
                                       UncertaintyMode mode) {
  switch (mode) {
    case UncertaintyMode::kVoteEntropy: return result.vote_entropy;
    case UncertaintyMode::kSoftEntropy: return result.soft_entropy;
    case UncertaintyMode::kExpectedEntropy: return result.expected_entropy;
    case UncertaintyMode::kMutualInformation:
      return result.mutual_information;
    case UncertaintyMode::kVariationRatio: return result.variation_ratio;
    case UncertaintyMode::kMaxProbability: return result.max_probability;
  }
  throw InvalidArgument("mode_column: bad mode");
}

const std::optional<UncertaintyMode> kNoOverride[] = {std::nullopt};
const std::optional<UncertaintyMode> kEveryMode[] = {
    std::nullopt,
    UncertaintyMode::kVoteEntropy,
    UncertaintyMode::kSoftEntropy,
    UncertaintyMode::kExpectedEntropy,
    UncertaintyMode::kMutualInformation,
    UncertaintyMode::kVariationRatio,
    UncertaintyMode::kMaxProbability};

/// The mask contract, for every bundle and ModelKind: under each mode in
/// `modes` (nullopt = the configured one), every mask in `masks` yields
/// the selected columns of one full request bit-for-bit and leaves every
/// unselected column empty; the full request's score column is the mode's
/// own column and its trust flag is score <= threshold.
template <std::size_t N>
void expect_masks_match_full_request(
    const std::vector<api::OutputMask>& masks,
    const std::optional<UncertaintyMode> (&modes)[N]) {
  for (const auto* bundle : {&test::small_dvfs(), &test::small_hpc()}) {
    for (const ModelKind kind : kAllKinds) {
      const core::TrustedHmd hmd = fitted(*bundle, kind);
      const Matrix& x = bundle->unknown.X;
      for (const auto& mode : modes) {
        SCOPED_TRACE(bundle->name + " " + core::model_kind_name(kind) +
                     " mode=" +
                     (mode ? core::uncertainty_mode_name(*mode) : "config"));
        const api::ScoreResult full =
            test::score(hmd, x, test::kAllOutputs, mode);
        ASSERT_EQ(full.rows, x.rows());
        // The override picks which quantity kOutScore / kOutTrusted carry.
        EXPECT_EQ(full.score,
                  mode_column(full, mode.value_or(hmd.config().mode)));
        for (std::size_t r = 0; r < x.rows(); ++r) {
          EXPECT_EQ(full.trusted[r] != 0,
                    full.score[r] <= hmd.config().entropy_threshold);
        }

        // One reused result across masks, so a stale column would show.
        api::ScoreResult got;
        for (const api::OutputMask mask : masks) {
          SCOPED_TRACE("mask=" + std::to_string(mask));
          hmd.score({.x = &x, .outputs = mask, .mode = mode}, got);
          api::ScoreResult want = full;
          want.shape(mask, full.rows);  // unselected columns emptied
          EXPECT_TRUE(api::bit_identical(got, want));
        }
      }
    }
  }
}

// The detection preset (prediction, confidence, score, trusted) under the
// configured mode.
TEST(ScoreApiTest, DetectionMaskMatchesDetectBatch) {
  expect_masks_match_full_request({api::kDetectionOutputs}, kNoOverride);
}

// The estimate preset (every uncertainty column) under the configured
// mode.
TEST(ScoreApiTest, EstimateMaskMatchesEstimateBatch) {
  expect_masks_match_full_request({api::kEstimateOutputs}, kNoOverride);
}

// A per-request mode override moves score and trust flag, alone and
// inside both presets.
TEST(ScoreApiTest, ModeOverrideMatchesScoresWrapper) {
  expect_masks_match_full_request(
      {api::kOutScore | api::kOutTrusted, api::kDetectionOutputs,
       api::kEstimateOutputs},
      kEveryMode);
}

// Every single-bit mask, with and without every mode override.
TEST(ScoreApiTest, EveryMaskMatchesTheFullRequest) {
  std::vector<api::OutputMask> masks;
  for (std::uint32_t bit = 0; bit < 11; ++bit) masks.push_back(1u << bit);
  expect_masks_match_full_request(masks, kEveryMode);
}

TEST(ScoreApiTest, PredictionOnlyMaskIsExactAndMinimal) {
  for (const ModelKind kind : kAllKinds) {
    const core::TrustedHmd hmd = fitted(test::small_dvfs(), kind);
    const Matrix& x = test::small_dvfs().test.X;
    const api::ScoreResult result = test::score(hmd, x, api::kPredictionOnly);

    EXPECT_EQ(result.prediction, test::score(hmd, x).prediction);
    EXPECT_TRUE(result.confidence.empty());
    EXPECT_TRUE(result.score.empty());
    EXPECT_TRUE(result.trusted.empty());
    // A prediction-only request under the vote-entropy default demands
    // votes alone from the engine...
    for (const auto& stats : result.stats) {
      EXPECT_EQ(stats.sum_p1, 0.0);
      EXPECT_EQ(stats.sum_entropy, 0.0);
    }
  }
}

TEST(ScoreApiTest, StatsMaskLoweringIsMinimal) {
  const auto vote = UncertaintyMode::kVoteEntropy;
  EXPECT_EQ(api::stats_mask_for(api::kPredictionOnly, vote),
            core::kStatsVotes);
  EXPECT_EQ(api::stats_mask_for(api::kOutPrediction | api::kOutTrusted, vote),
            core::kStatsVotes);
  EXPECT_EQ(api::stats_mask_for(api::kDetectionOutputs, vote),
            core::kStatsVotes | core::kStatsPosterior);
  EXPECT_EQ(api::stats_mask_for(api::kEstimateOutputs, vote), core::kStatsAll);
  EXPECT_EQ(api::stats_mask_for(api::kOutScore,
                                UncertaintyMode::kMutualInformation),
            core::kStatsAll);
  EXPECT_EQ(api::stats_mask_for(api::kOutScore,
                                UncertaintyMode::kExpectedEntropy),
            core::kStatsVotes | core::kStatsEntropy);
  EXPECT_EQ(api::stats_mask_for(api::kOutScore,
                                UncertaintyMode::kMaxProbability),
            core::kStatsVotes | core::kStatsPosterior);
}

TEST(ScoreApiTest, SteadyStateReusesBuffers) {
  const core::TrustedHmd hmd =
      fitted(test::small_dvfs(), ModelKind::kBaggedLogistic);
  const Matrix& x = test::small_dvfs().test.X;
  api::ScoreRequest request;
  request.x = &x;
  request.outputs = api::kEstimateOutputs;
  api::ScoreResult result;
  hmd.score(request, result);

  const auto* prediction = result.prediction.data();
  const auto* score = result.score.data();
  const auto* stats = result.stats.data();
  hmd.score(request, result);  // reuse: same buffers, no realloc
  hmd.score(request, result);
  EXPECT_EQ(result.prediction.data(), prediction);
  EXPECT_EQ(result.score.data(), score);
  EXPECT_EQ(result.stats.data(), stats);

  // Shrinking to a masked request keeps capacity and empties the rest.
  request.outputs = api::kPredictionOnly;
  hmd.score(request, result);
  EXPECT_EQ(result.prediction.data(), prediction);
  EXPECT_TRUE(result.score.empty());
}

/// stats_batch / score must be bit-identical for any worker count. Tiles
/// are 256 rows, so the input is stacked past 3 tiles to make widths 2
/// and 4 actually split work. Artifacts pin the trained model so every
/// width serves the exact same engine.
TEST(ScoreApiTest, ScoreIsBitIdenticalAcrossThreadWidths) {
  const std::string dir = test::unique_temp_dir("score_api_tmp").string();

  for (const auto* bundle : {&test::small_dvfs(), &test::small_hpc()}) {
    Matrix stacked;
    while (stacked.rows() < 700) {
      for (std::size_t r = 0; r < bundle->test.X.rows(); ++r) {
        stacked.push_row(bundle->test.X.row(r));
      }
    }
    for (const ModelKind kind :
         {ModelKind::kRandomForest, ModelKind::kBaggedLogistic}) {
      const std::string path =
          dir + "/" + core::model_kind_name(kind) + "_" + bundle->name +
          ".hmdf";
      {
        const core::TrustedHmd trainer = fitted(*bundle, kind, 9);
        core::save_model(trainer, path);
      }
      const core::TrustedHmd reference = core::load_model(path, 1);
      const api::ScoreResult want = test::score(reference, stacked);
      for (const int n_threads : {1, 2, 4}) {
        const core::TrustedHmd hmd = core::load_model(path, n_threads);
        EXPECT_TRUE(api::bit_identical(test::score(hmd, stacked), want));

        const api::ScoreResult masked =
            test::score(hmd, stacked, api::kPredictionOnly | api::kOutScore);
        EXPECT_EQ(masked.prediction, want.prediction);
        EXPECT_EQ(masked.score, want.score);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ScoreApiTest, ParseModelKindRoundTripsEveryKind) {
  for (const ModelKind kind : kAllKinds) {
    const auto parsed = core::parse_model_kind(core::model_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(core::parse_model_kind("rf"), ModelKind::kRandomForest);
  EXPECT_EQ(core::parse_model_kind("lr"), ModelKind::kBaggedLogistic);
  EXPECT_EQ(core::parse_model_kind("svm"), ModelKind::kBaggedSvm);
  EXPECT_EQ(core::parse_model_kind("Svm"), ModelKind::kBaggedSvm);
  EXPECT_FALSE(core::parse_model_kind("forest").has_value());
  EXPECT_FALSE(core::parse_model_kind("").has_value());
}

TEST(ScoreApiTest, NullInputThrows) {
  const core::TrustedHmd hmd =
      fitted(test::small_dvfs(), ModelKind::kRandomForest);
  api::ScoreRequest request;  // request.x left null
  api::ScoreResult result;
  EXPECT_THROW(hmd.score(request, result), InvalidArgument);
}

}  // namespace
}  // namespace hmd
