#include "core/hmd.h"

#include <algorithm>
#include <cctype>

#include "common/error.h"
#include "core/flat_linear.h"
#include "simd/vmath.h"

namespace hmd::core {

std::string model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kRandomForest: return "RF";
    case ModelKind::kBaggedLogistic: return "LR";
    case ModelKind::kBaggedSvm: return "SVM";
  }
  throw InvalidArgument("model_kind_name: bad kind");
}

std::optional<ModelKind> parse_model_kind(const std::string& name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char ch) {
    return static_cast<char>(
        std::tolower(static_cast<unsigned char>(ch)));
  });
  if (lower == "rf") return ModelKind::kRandomForest;
  if (lower == "lr") return ModelKind::kBaggedLogistic;
  if (lower == "svm") return ModelKind::kBaggedSvm;
  return std::nullopt;
}

namespace {

void validate_config(const HmdConfig& config) {
  HMD_REQUIRE(config.n_members >= 1, "HmdConfig: n_members must be >= 1");
  HMD_REQUIRE(config.entropy_threshold >= 0.0,
              "HmdConfig: entropy_threshold must be >= 0");
}

/// A pool only pays for itself with real workers; at an effective width
/// of one every batch runs inline on the caller.
std::unique_ptr<ThreadPool> make_pool(int n_threads) {
  if (ThreadPool::effective_threads(n_threads) == 1) return nullptr;
  return std::make_unique<ThreadPool>(n_threads);
}

// The prediction / confidence derivations, shared by the score() column
// fills that need them.

inline int predict_from(const EnsembleStats& stats, int m) {
  return 2 * stats.votes1 > m ? 1 : 0;
}

inline double confidence_from(const EnsembleStats& stats, int prediction,
                              int m) {
  const double p1 = stats.sum_p1 / static_cast<double>(m);
  return prediction == 1 ? p1 : 1.0 - p1;
}

/// Fast-tier batched fill of the binary_entropy(sum_p1 / m) family:
/// writes p̄ into `out` row by row (the same division the exact path
/// performs), then one vectorised entropy pass in place. Soft entropy is
/// the result verbatim; mutual information subtracts sum_entropy / m
/// afterwards. ≤2 ULP of the exact column per the simd/vmath.h contract.
inline void fill_pbar_entropy(const std::vector<EnsembleStats>& stats,
                              std::size_t n, int m,
                              const simd::VmathKernels& vm, double* out) {
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = stats[r].sum_p1 / static_cast<double>(m);
  }
  vm.binary_entropy_array(out, out, n);
}

}  // namespace

UntrustedHmd::UntrustedHmd(HmdConfig config) : config_(std::move(config)) {
  validate_config(config_);
}

UntrustedHmd::UntrustedHmd(HmdConfig config,
                           std::unique_ptr<InferenceEngine> engine,
                           ml::StandardScaler scaler,
                           double converged_fraction)
    : config_(std::move(config)),
      pool_(make_pool(config_.n_threads)),
      engine_(std::move(engine)),
      vote_lut_(config_.n_members),
      scaler_(std::move(scaler)),
      serving_converged_fraction_(converged_fraction) {
  validate_config(config_);
  HMD_REQUIRE(engine_ != nullptr, "UntrustedHmd: serving engine is null");
  HMD_REQUIRE(engine_->n_members() ==
                  static_cast<std::size_t>(config_.n_members),
              "UntrustedHmd: engine/config member count mismatch");
}

ml::ClassifierFactory UntrustedHmd::member_factory() const {
  switch (config_.model) {
    case ModelKind::kRandomForest: {
      ml::DecisionTreeParams tree;
      tree.max_features = 0;  // sqrt per-split subsampling
      tree.min_samples_leaf = std::max(1, config_.tree_min_samples_leaf);
      tree.max_depth = config_.tree_max_depth;
      return [tree]() -> std::unique_ptr<ml::Classifier> {
        return std::make_unique<ml::DecisionTree>(tree);
      };
    }
    case ModelKind::kBaggedLogistic:
      return []() -> std::unique_ptr<ml::Classifier> {
        return std::make_unique<ml::LogisticRegression>();
      };
    case ModelKind::kBaggedSvm:
      return []() -> std::unique_ptr<ml::Classifier> {
        return std::make_unique<ml::LinearSvm>();
      };
  }
  throw InvalidArgument("UntrustedHmd: bad model kind");
}

std::unique_ptr<InferenceEngine> UntrustedHmd::compile_engine() const {
  switch (config_.model) {
    case ModelKind::kRandomForest:
      return FlatForestEngine::compile(*ensemble_);
    case ModelKind::kBaggedLogistic:
    case ModelKind::kBaggedSvm:
      return FlatLinearEngine::compile(*ensemble_, scaler_);
  }
  return nullptr;
}

void UntrustedHmd::fit(const ml::Dataset& train) {
  HMD_REQUIRE(train.size() > 1, "UntrustedHmd::fit: need >= 2 samples");
  HMD_REQUIRE(engine_ == nullptr || ensemble_ != nullptr,
              "UntrustedHmd::fit: serving-only detector cannot be re-fit");
  pool_ = make_pool(config_.n_threads);

  // Linear members need standardised inputs; trees see raw features so
  // the flat engine can traverse dataset rows in place. (The compiled
  // linear engine owns a copy of these moments and standardises
  // internally — every engine consumes raw rows.)
  const Matrix* fit_x = &train.X;
  Matrix scaled;
  if (config_.model != ModelKind::kRandomForest) {
    scaled = scaler_.fit_transform(train.X);
    fit_x = &scaled;
  }

  ml::BaggingParams params;
  params.n_members = config_.n_members;
  params.seed = config_.seed;
  params.n_threads = config_.n_threads;
  ensemble_ = std::make_unique<ml::Bagging>(member_factory(), params);
  // pool_ is null at an effective width of one; Bagging's own fallback
  // pool is then also workerless, so members fit inline on the caller.
  ensemble_->fit(*fit_x, train.y, pool_.get());

  engine_ = compile_engine();
  vote_lut_ = VoteEntropyTable(config_.n_members);
}

const ml::Bagging& UntrustedHmd::ensemble() const {
  HMD_REQUIRE(fitted(), "UntrustedHmd: no reference ensemble "
                        "(serving-only or unfitted detector)");
  return *ensemble_;
}

const InferenceEngine& UntrustedHmd::engine() const {
  HMD_REQUIRE(engine_ != nullptr, "UntrustedHmd: no compiled engine");
  return *engine_;
}

const FlatForestEngine& UntrustedHmd::flat_forest() const {
  const auto* forest = dynamic_cast<const FlatForestEngine*>(&engine());
  HMD_REQUIRE(forest != nullptr,
              "UntrustedHmd: engine is not a FlatForestEngine");
  return *forest;
}

bool UntrustedHmd::converged() const {
  return converged_fraction() >= 0.999;
}

double UntrustedHmd::converged_fraction() const {
  HMD_REQUIRE(engine_ != nullptr, "UntrustedHmd: not fitted");
  if (!fitted()) return serving_converged_fraction_;
  return ensemble_->converged_fraction();
}

void UntrustedHmd::score(const api::ScoreRequest& request,
                         api::ScoreResult& result) const {
  HMD_REQUIRE(request.x != nullptr,
              "UntrustedHmd::score: request has no input matrix");
  const Matrix& x = *request.x;
  const UncertaintyMode mode = request.mode.value_or(config_.mode);
  const api::OutputMask outputs = request.outputs;
  const bool fast = request.accuracy == Accuracy::kFast;
  // Resolved once per call: the dispatch table for the active ISA (only
  // consulted on the fast tier — the exact path never touches it).
  const simd::VmathKernels* vm = fast ? &simd::kernels() : nullptr;

  StatsMask stats_mask = api::stats_mask_for(outputs, mode);
  if (fast) stats_mask |= kStatsFastMath;
  engine().stats_batch(x, pool_.get(), result.stats, stats_mask);
  result.shape(outputs, x.rows());

  // Column fills, one tight loop per selected output. Each column has one
  // derivation (predict_from / confidence_from / uncertainty_score) that
  // reads only its own stats fields, so any mask subset is bit-identical
  // to the same columns of a full request.
  const std::vector<EnsembleStats>& stats = result.stats;
  const std::size_t n = x.rows();
  const int m = config_.n_members;

  if (outputs & api::kOutPrediction) {
    for (std::size_t r = 0; r < n; ++r) {
      result.prediction[r] = predict_from(stats[r], m);
    }
  }
  if (outputs & api::kOutConfidence) {
    for (std::size_t r = 0; r < n; ++r) {
      result.confidence[r] =
          confidence_from(stats[r], predict_from(stats[r], m), m);
    }
  }
  if (outputs & api::kOutVotes) {
    for (std::size_t r = 0; r < n; ++r) result.votes[r] = stats[r].votes1;
  }
  if (outputs & api::kOutVoteEntropy) {
    for (std::size_t r = 0; r < n; ++r) {
      result.vote_entropy[r] = uncertainty_score(
          UncertaintyMode::kVoteEntropy, stats[r], m, &vote_lut_);
    }
  }
  if (outputs & api::kOutSoftEntropy) {
    if (fast) {
      fill_pbar_entropy(stats, n, m, *vm, result.soft_entropy.data());
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        result.soft_entropy[r] = uncertainty_score(
            UncertaintyMode::kSoftEntropy, stats[r], m, nullptr);
      }
    }
  }
  if (outputs & api::kOutExpectedEntropy) {
    for (std::size_t r = 0; r < n; ++r) {
      result.expected_entropy[r] = uncertainty_score(
          UncertaintyMode::kExpectedEntropy, stats[r], m, nullptr);
    }
  }
  if (outputs & api::kOutMutualInformation) {
    if (fast) {
      double* out = result.mutual_information.data();
      fill_pbar_entropy(stats, n, m, *vm, out);
      for (std::size_t r = 0; r < n; ++r) {
        out[r] -= stats[r].sum_entropy / static_cast<double>(m);
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        result.mutual_information[r] = uncertainty_score(
            UncertaintyMode::kMutualInformation, stats[r], m, nullptr);
      }
    }
  }
  if (outputs & api::kOutVariationRatio) {
    for (std::size_t r = 0; r < n; ++r) {
      result.variation_ratio[r] = uncertainty_score(
          UncertaintyMode::kVariationRatio, stats[r], m, nullptr);
    }
  }
  if (outputs & api::kOutMaxProbability) {
    for (std::size_t r = 0; r < n; ++r) {
      result.max_probability[r] = uncertainty_score(
          UncertaintyMode::kMaxProbability, stats[r], m, nullptr);
    }
  }
  if (outputs & (api::kOutScore | api::kOutTrusted)) {
    const bool want_score = (outputs & api::kOutScore) != 0;
    const bool want_trusted = (outputs & api::kOutTrusted) != 0;
    // Only the soft-entropy family pays a transcendental at fill time
    // (vote entropy is a LUT read; expected entropy, variation ratio and
    // max probability are arithmetic on the sums), so only it has a
    // batched fast path.
    const bool fast_fill =
        fast && (mode == UncertaintyMode::kSoftEntropy ||
                 mode == UncertaintyMode::kMutualInformation);
    if (fast_fill) {
      if (!want_score) result.fast_scratch.resize(n);
      double* s = want_score ? result.score.data()
                             : result.fast_scratch.data();
      fill_pbar_entropy(stats, n, m, *vm, s);
      if (mode == UncertaintyMode::kMutualInformation) {
        for (std::size_t r = 0; r < n; ++r) {
          s[r] -= stats[r].sum_entropy / static_cast<double>(m);
        }
      }
      if (want_trusted) {
        for (std::size_t r = 0; r < n; ++r) {
          result.trusted[r] = s[r] <= config_.entropy_threshold ? 1 : 0;
        }
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        const double s = uncertainty_score(mode, stats[r], m, &vote_lut_);
        if (want_score) result.score[r] = s;
        if (want_trusted) {
          result.trusted[r] = s <= config_.entropy_threshold ? 1 : 0;
        }
      }
    }
  }
}

}  // namespace hmd::core
