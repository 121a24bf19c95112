// Golden parity suite for the flat linear engine: bagged LR and SVM
// detectors compiled into the M×d weight-matrix engine must be
// bit-identical to the reference member path (standardise, then query
// members one by one, then accumulate in member order) as score() serves
// them, across both dataset bundles and ensemble sizes M in {1, 5, 100}.
// This is the contract that lets linear models serve through the flat
// engine with no per-member fallback.

#include <gtest/gtest.h>

#include "core/flat_linear.h"
#include "core/hmd.h"
#include "core/uncertainty.h"
#include "test_support.h"

namespace {

using namespace hmd;

core::HmdConfig config_for(core::ModelKind kind, int members) {
  core::HmdConfig config;
  config.model = kind;
  config.n_members = members;
  config.n_threads = 0;
  config.seed = 42;
  return config;
}

void expect_linear_parity(const data::DatasetBundle& bundle,
                          core::ModelKind kind, int members) {
  SCOPED_TRACE(bundle.name + " " + core::model_kind_name(kind) +
               " M=" + std::to_string(members));
  core::TrustedHmd hmd(config_for(kind, members));
  hmd.fit(bundle.train);
  ASSERT_EQ(hmd.engine().engine_id(), core::EngineId::kFlatLinear);

  // The reference member path queries members with *standardised* rows;
  // the engine takes raw rows and standardises internally.
  const core::UncertaintyEstimator reference(
      core::EnsembleView::of(hmd.ensemble()));
  const Matrix& x = bundle.test.X;
  const Matrix scaled = hmd.input_scaler().transform(x);

  // The served path's sufficient statistics vs the member-by-member
  // reference: bit-identical (kEstimateOutputs demands every field).
  const api::ScoreResult result = test::score(hmd, x, api::kEstimateOutputs);
  ASSERT_EQ(result.stats.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    const core::EnsembleStats ref = reference.reference_stats(scaled.row(r));
    EXPECT_EQ(result.stats[r].votes1, ref.votes1);
    EXPECT_EQ(result.stats[r].sum_p1, ref.sum_p1);
    EXPECT_EQ(result.stats[r].sum_entropy, ref.sum_entropy);
    EXPECT_EQ(result.votes[r], ref.votes1);
    EXPECT_EQ(result.prediction[r], 2 * ref.votes1 > members ? 1 : 0);
  }

  // Score sweep over every mode (entropy-needing and not), served batch
  // vs reference per-sample.
  for (const auto mode :
       {core::UncertaintyMode::kVoteEntropy,
        core::UncertaintyMode::kSoftEntropy,
        core::UncertaintyMode::kExpectedEntropy,
        core::UncertaintyMode::kMutualInformation,
        core::UncertaintyMode::kVariationRatio,
        core::UncertaintyMode::kMaxProbability}) {
    const auto flat_scores =
        test::score(hmd, x, api::kOutScore, mode).score;
    const auto ref_scores = reference.scores(scaled, mode);
    ASSERT_EQ(flat_scores.size(), ref_scores.size());
    for (std::size_t r = 0; r < flat_scores.size(); ++r) {
      EXPECT_EQ(flat_scores[r], ref_scores[r])
          << core::uncertainty_mode_name(mode) << " row " << r;
    }
  }
}

TEST(FlatLinearParity, LogisticDvfsAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_linear_parity(test::small_dvfs(),
                         core::ModelKind::kBaggedLogistic, members);
  }
}

TEST(FlatLinearParity, LogisticHpcAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_linear_parity(test::small_hpc(),
                         core::ModelKind::kBaggedLogistic, members);
  }
}

TEST(FlatLinearParity, SvmDvfsAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_linear_parity(test::small_dvfs(), core::ModelKind::kBaggedSvm,
                         members);
  }
}

TEST(FlatLinearParity, SvmHpcAllEnsembleSizes) {
  for (const int members : {1, 5, 100}) {
    expect_linear_parity(test::small_hpc(), core::ModelKind::kBaggedSvm,
                         members);
  }
}

TEST(FlatLinearParity, BatchIsDeterministicAcrossThreadCounts) {
  const auto& bundle = test::small_dvfs();
  core::HmdConfig serial_config =
      config_for(core::ModelKind::kBaggedLogistic, 40);
  serial_config.n_threads = 1;
  core::HmdConfig threaded_config = serial_config;
  threaded_config.n_threads = 3;
  core::TrustedHmd one(serial_config);
  core::TrustedHmd three(threaded_config);
  one.fit(bundle.train);
  three.fit(bundle.train);
  EXPECT_TRUE(api::bit_identical(test::score(one, bundle.test.X),
                                 test::score(three, bundle.test.X)));
}

TEST(FlatLinearParity, SvmMembersCarryPlattCoefficients) {
  // The engine must reproduce Platt scaling, not raw margins: a detector
  // whose members all have non-trivial Platt slopes must still match the
  // reference (covered above); here we sanity-check the engine reports
  // the SVM link and the exported coefficients exist.
  core::TrustedHmd hmd(config_for(core::ModelKind::kBaggedSvm, 5));
  hmd.fit(test::small_dvfs().train);
  const auto& engine =
      dynamic_cast<const core::FlatLinearEngine&>(hmd.engine());
  EXPECT_EQ(engine.member_kind(), core::FlatLinearEngine::MemberKind::kSvm);
  EXPECT_EQ(engine.n_features(), test::small_dvfs().train.X.cols());
  EXPECT_EQ(engine.name(), "flat_linear_svm");
}

}  // namespace
