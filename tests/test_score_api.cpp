// The unified score() spine (api/score.h): wrapper parity (the legacy
// detect/estimate/scores surface must be bit-identical through the new
// path), OutputMask semantics (selected columns exact, unselected columns
// empty, minimal engine StatsMask), per-request mode override, the
// steady-state no-allocation contract, multi-thread determinism of
// score()/stats_batch at widths 1/2/4, and the parse_model_kind
// round-trip.

#include <gtest/gtest.h>

#include <filesystem>
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

TEST(ScoreApiTest, DetectionMaskMatchesDetectBatch) {
  for (const auto* bundle : {&test::small_dvfs(), &test::small_hpc()}) {
    for (const ModelKind kind : kAllKinds) {
      const core::TrustedHmd hmd = fitted(*bundle, kind);
      const Matrix& x = bundle->test.X;
      const auto detections = hmd.detect_batch(x);

      api::ScoreRequest request;
      request.x = &x;
      request.outputs = api::kDetectionOutputs;
      api::ScoreResult result;
      hmd.score(request, result);

      ASSERT_EQ(result.rows, x.rows());
      for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(result.prediction[r], detections[r].prediction);
        EXPECT_EQ(result.confidence[r], detections[r].confidence);
        EXPECT_EQ(result.score[r], detections[r].score);
        EXPECT_EQ(result.trusted[r] != 0, detections[r].trusted);
      }
      // Unselected columns are empty, not stale.
      EXPECT_TRUE(result.votes.empty());
      EXPECT_TRUE(result.soft_entropy.empty());
      EXPECT_TRUE(result.mutual_information.empty());
    }
  }
}

TEST(ScoreApiTest, EstimateMaskMatchesEstimateBatch) {
  for (const auto* bundle : {&test::small_dvfs(), &test::small_hpc()}) {
    for (const ModelKind kind : kAllKinds) {
      const core::TrustedHmd hmd = fitted(*bundle, kind);
      const Matrix& x = bundle->unknown.X;
      const auto estimates = hmd.estimate_batch(x);

      api::ScoreRequest request;
      request.x = &x;
      request.outputs = api::kEstimateOutputs;
      api::ScoreResult result;
      hmd.score(request, result);

      ASSERT_EQ(result.rows, x.rows());
      for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_EQ(result.prediction[r], estimates[r].prediction);
        EXPECT_EQ(result.votes[r], estimates[r].votes_malware);
        EXPECT_EQ(result.vote_entropy[r], estimates[r].vote_entropy);
        EXPECT_EQ(result.soft_entropy[r], estimates[r].soft_entropy);
        EXPECT_EQ(result.expected_entropy[r], estimates[r].expected_entropy);
        EXPECT_EQ(result.mutual_information[r],
                  estimates[r].mutual_information);
        EXPECT_EQ(result.variation_ratio[r], estimates[r].variation_ratio);
        EXPECT_EQ(result.max_probability[r], estimates[r].max_probability);
        EXPECT_EQ(result.score[r], estimates[r].score);
        EXPECT_EQ(result.trusted[r] != 0, estimates[r].trusted);
      }
    }
  }
}

TEST(ScoreApiTest, PredictionOnlyMaskIsExactAndMinimal) {
  for (const ModelKind kind : kAllKinds) {
    const core::TrustedHmd hmd = fitted(test::small_dvfs(), kind);
    const Matrix& x = test::small_dvfs().test.X;
    const auto detections = hmd.detect_batch(x);

    api::ScoreRequest request;
    request.x = &x;
    request.outputs = api::kPredictionOnly;
    api::ScoreResult result;
    hmd.score(request, result);

    ASSERT_EQ(result.prediction.size(), x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      EXPECT_EQ(result.prediction[r], detections[r].prediction);
    }
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

TEST(ScoreApiTest, ModeOverrideMatchesScoresWrapper) {
  const core::TrustedHmd hmd =
      fitted(test::small_hpc(), ModelKind::kRandomForest);
  const Matrix& x = test::small_hpc().unknown.X;
  for (const auto mode :
       {UncertaintyMode::kVoteEntropy, UncertaintyMode::kSoftEntropy,
        UncertaintyMode::kExpectedEntropy, UncertaintyMode::kMutualInformation,
        UncertaintyMode::kVariationRatio, UncertaintyMode::kMaxProbability}) {
    const auto want = hmd.scores(x, mode);

    api::ScoreRequest request;
    request.x = &x;
    request.outputs = api::kOutScore | api::kOutTrusted;
    request.mode = mode;
    api::ScoreResult result;
    hmd.score(request, result);

    ASSERT_EQ(result.score.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(result.score[r], want[r]);
      EXPECT_EQ(result.trusted[r] != 0,
                want[r] <= hmd.config().entropy_threshold);
    }
  }
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
      const auto want = reference.estimate_batch(stacked);
      for (const int n_threads : {1, 2, 4}) {
        const core::TrustedHmd hmd = core::load_model(path, n_threads);
        const auto got = hmd.estimate_batch(stacked);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].prediction, want[r].prediction);
          EXPECT_EQ(got[r].votes_malware, want[r].votes_malware);
          EXPECT_EQ(got[r].vote_entropy, want[r].vote_entropy);
          EXPECT_EQ(got[r].soft_entropy, want[r].soft_entropy);
          EXPECT_EQ(got[r].mutual_information, want[r].mutual_information);
          EXPECT_EQ(got[r].score, want[r].score);
        }

        api::ScoreRequest request;
        request.x = &stacked;
        request.outputs = api::kPredictionOnly | api::kOutScore;
        api::ScoreResult result;
        hmd.score(request, result);
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(result.prediction[r], want[r].prediction);
          EXPECT_EQ(result.score[r], want[r].score);
        }
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
