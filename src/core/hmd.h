#pragma once
// The hardware malware detectors of the paper.
//
//   UntrustedHmd — the conventional detector: an ensemble used as a plain
//                  classifier emitting a label and a point-estimate
//                  confidence (no uncertainty awareness).
//   TrustedHmd   — the same ensemble plus the online uncertainty
//                  estimator: its score() columns carry the full family
//                  of ensemble scores and flag whether each prediction is
//                  trustworthy under the configured threshold.
//
// Inference spine: after fit(), the trained ensemble is compiled into a
// pluggable InferenceEngine (core/inference_engine.h) — tree ensembles
// into the flat struct-of-arrays FlatForestEngine, bagged LR / SVM into
// the FlatLinearEngine weight-matrix engine. score(ScoreRequest,
// ScoreResult) (api/score.h) is the one way to get outputs: the request's
// OutputMask selects which columns are computed (the presets
// api::kDetectionOutputs / kEstimateOutputs / kPredictionOnly name the
// common shapes), the result's buffers are caller-owned and reusable, and
// the mask is lowered to an engine-level StatsMask so unrequested
// per-member work is never done. Batches are parallelised by a reusable
// thread pool sized by HmdConfig::n_threads. The reference ml::Bagging
// ensemble is kept after fit() only for the parity suites.
//
// Train-once / serve-many: save_model()/load_model()
// (core/model_artifact.h) persist config + scaler + engine as a `.hmdf`
// artifact; a detector loaded from one is *serving-only* — it carries an
// engine but no ml::Bagging and cannot be re-fit, yet scores
// bit-identically to the trained detector.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/score.h"
#include "core/flat_forest.h"
#include "core/inference_engine.h"
#include "core/thread_pool.h"
#include "core/uncertainty.h"
#include "ml/bagging.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/linear.h"
#include "ml/preprocessing.h"

namespace hmd::core {

enum class ModelKind {
  kRandomForest,    ///< bagged CART trees with per-split feature sampling
  kBaggedLogistic,  ///< bagged logistic regression
  kBaggedSvm,       ///< bagged linear SVM with Platt-scaled confidences
};

/// Short display name: "RF", "LR", "SVM".
std::string model_kind_name(ModelKind kind);

/// Parse a model-kind spelling — the CLI's "rf" / "lr" / "svm" or the
/// display name, case-insensitively — into a ModelKind. Returns nullopt
/// for anything else. Round-trips model_kind_name for every kind.
std::optional<ModelKind> parse_model_kind(const std::string& name);

struct HmdConfig {
  ModelKind model = ModelKind::kRandomForest;
  int n_members = 100;
  /// Worker threads for fit and batched inference; <= 0 = all cores.
  int n_threads = 0;
  /// Reject predictions whose uncertainty score exceeds this.
  double entropy_threshold = 0.40;
  UncertaintyMode mode = UncertaintyMode::kVoteEntropy;
  std::uint64_t seed = 0;
  /// Leaf-size floor of the member trees (>1 keeps empirical leaf
  /// distributions, required by the soft decomposition).
  int tree_min_samples_leaf = 1;
  int tree_max_depth = 0;  ///< 0 = unlimited
};

class UntrustedHmd {
 public:
  explicit UntrustedHmd(HmdConfig config);

  /// Serving-only construction: adopt a pre-compiled engine (typically
  /// from a `.hmdf` artifact) with no training ensemble behind it.
  /// `converged_fraction` is the value recorded at training time.
  UntrustedHmd(HmdConfig config, std::unique_ptr<InferenceEngine> engine,
               ml::StandardScaler scaler, double converged_fraction);

  virtual ~UntrustedHmd() = default;
  UntrustedHmd(UntrustedHmd&&) = default;
  UntrustedHmd& operator=(UntrustedHmd&&) = default;

  /// Train the ensemble and compile the inference engine. Not available
  /// on serving-only detectors.
  void fit(const ml::Dataset& train);

  /// The unified batched entry point: fill the result columns selected by
  /// request.outputs for every row of *request.x, computing only what the
  /// mask demands (see the OutputMask contract in api/score.h). Reusing
  /// one ScoreResult across calls makes the steady state allocation-free.
  void score(const api::ScoreRequest& request, api::ScoreResult& result) const;

  /// True when every member's training converged.
  bool converged() const;
  double converged_fraction() const;

  const HmdConfig& config() const { return config_; }
  /// The trained reference ensemble (parity tests compare against it).
  /// Throws on serving-only detectors — they have none by design.
  const ml::Bagging& ensemble() const;
  /// Does this detector carry a reference training ensemble? (false for
  /// detectors reconstructed from a model artifact).
  bool has_ensemble() const { return ensemble_ != nullptr; }
  /// The compiled engine; throws on an unfitted detector.
  const InferenceEngine& engine() const;
  /// The compiled engine as a FlatForestEngine (tree models only; the
  /// parity suite inspects arena geometry through this).
  const FlatForestEngine& flat_forest() const;
  /// Standardisation owned by the detector (fitted for linear models).
  const ml::StandardScaler& input_scaler() const { return scaler_; }

 private:
  bool fitted() const { return ensemble_ != nullptr && ensemble_->fitted(); }
  ml::ClassifierFactory member_factory() const;
  std::unique_ptr<InferenceEngine> compile_engine() const;

  HmdConfig config_;
  std::unique_ptr<ml::Bagging> ensemble_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<InferenceEngine> engine_;
  VoteEntropyTable vote_lut_;
  ml::StandardScaler scaler_;
  /// Training-time convergence, carried by serving-only detectors.
  double serving_converged_fraction_ = 1.0;
};

class TrustedHmd : public UntrustedHmd {
 public:
  explicit TrustedHmd(HmdConfig config) : UntrustedHmd(std::move(config)) {}

  /// Serving-only construction (see UntrustedHmd).
  TrustedHmd(HmdConfig config, std::unique_ptr<InferenceEngine> engine,
             ml::StandardScaler scaler, double converged_fraction)
      : UntrustedHmd(std::move(config), std::move(engine), std::move(scaler),
                     converged_fraction) {}
};

}  // namespace hmd::core
