#pragma once
// Ensemble uncertainty scores (Section IV of the paper, plus the soft
// decomposition of the A3 ablation) and the reference estimator used for
// parity-checking the flat engine.

#include <cmath>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "ml/bagging.h"

namespace hmd::core {

struct EnsembleStats;

enum class UncertaintyMode {
  kVoteEntropy,        ///< H of the hard-vote fraction (the paper's score)
  kSoftEntropy,        ///< H of the mean member posterior
  kExpectedEntropy,    ///< mean member entropy (aleatoric)
  kMutualInformation,  ///< soft - expected (epistemic)
  kVariationRatio,     ///< 1 - modal vote fraction
  kMaxProbability,     ///< 1 - max mean-posterior probability
};

std::string uncertainty_mode_name(UncertaintyMode mode);

/// Does scoring under `mode` read EnsembleStats::sum_entropy? Callers that
/// only need votes / posterior sums pass this to the engine batch path so
/// it can skip per-member entropy work (a log() pair per member for
/// engines without precomputed leaf entropies).
inline bool uncertainty_mode_needs_entropy(UncertaintyMode mode) {
  return mode == UncertaintyMode::kExpectedEntropy ||
         mode == UncertaintyMode::kMutualInformation;
}

/// Does scoring under `mode` read EnsembleStats::sum_p1? Vote-based modes
/// never do, so a masked request under them lets the engine drop the
/// posterior accumulate as well.
inline bool uncertainty_mode_needs_posterior(UncertaintyMode mode) {
  return mode == UncertaintyMode::kSoftEntropy ||
         mode == UncertaintyMode::kMutualInformation ||
         mode == UncertaintyMode::kMaxProbability;
}

/// Binary entropy H(p) in nats; H(0) = H(1) = 0.
inline double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
}

/// O(1) vote entropy: h[k] = H(k / M) precomputed for k = 0..M. Entries
/// equal binary_entropy(k / M) exactly, so the table is a pure lookup
/// replacement for the log evaluation on the hot path.
class VoteEntropyTable {
 public:
  VoteEntropyTable() = default;
  explicit VoteEntropyTable(int n_members);

  double operator[](std::int32_t votes) const {
    return table_[static_cast<std::size_t>(votes)];
  }
  int n_members() const { return static_cast<int>(table_.size()) - 1; }

 private:
  std::vector<double> table_;
};

/// One uncertainty score from ensemble statistics. `lut`, when given, must
/// be sized for n_members and is used for the vote-entropy mode.
double uncertainty_score(UncertaintyMode mode, const EnsembleStats& stats,
                         int n_members, const VoteEntropyTable* lut);

/// Non-owning view of a trained ensemble, decoupling the estimator from
/// how the ensemble is hosted.
class EnsembleView {
 public:
  static EnsembleView of(const ml::Bagging& ensemble) {
    return EnsembleView(&ensemble);
  }
  const ml::Bagging& ensemble() const { return *ensemble_; }

 private:
  explicit EnsembleView(const ml::Bagging* ensemble) : ensemble_(ensemble) {}
  const ml::Bagging* ensemble_;
};

/// Reference (pointer-path) uncertainty scorer: queries members one sample
/// at a time. The flat engine must reproduce these values bit-for-bit.
class UncertaintyEstimator {
 public:
  explicit UncertaintyEstimator(EnsembleView view);

  /// Ensemble statistics for one sample via member-by-member queries.
  EnsembleStats reference_stats(RowView x) const;

  /// Scores for every row of x under the given mode.
  std::vector<double> scores(const Matrix& x, UncertaintyMode mode) const;

 private:
  EnsembleView view_;
};

}  // namespace hmd::core
