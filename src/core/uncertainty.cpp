#include "core/uncertainty.h"

#include <algorithm>

#include "common/error.h"
#include "core/inference_engine.h"

namespace hmd::core {

std::string uncertainty_mode_name(UncertaintyMode mode) {
  switch (mode) {
    case UncertaintyMode::kVoteEntropy: return "vote_entropy";
    case UncertaintyMode::kSoftEntropy: return "soft_entropy";
    case UncertaintyMode::kExpectedEntropy: return "expected_entropy";
    case UncertaintyMode::kMutualInformation: return "mutual_information";
    case UncertaintyMode::kVariationRatio: return "variation_ratio";
    case UncertaintyMode::kMaxProbability: return "max_probability";
  }
  throw InvalidArgument("uncertainty_mode_name: bad mode");
}

VoteEntropyTable::VoteEntropyTable(int n_members) {
  HMD_REQUIRE(n_members >= 1, "VoteEntropyTable: n_members must be >= 1");
  table_.resize(static_cast<std::size_t>(n_members) + 1);
  for (int k = 0; k <= n_members; ++k) {
    table_[static_cast<std::size_t>(k)] = binary_entropy(
        static_cast<double>(k) / static_cast<double>(n_members));
  }
}

double uncertainty_score(UncertaintyMode mode, const EnsembleStats& stats,
                         int n_members, const VoteEntropyTable* lut) {
  const double m = static_cast<double>(n_members);
  switch (mode) {
    case UncertaintyMode::kVoteEntropy:
      return lut != nullptr
                 ? (*lut)[stats.votes1]
                 : binary_entropy(static_cast<double>(stats.votes1) / m);
    case UncertaintyMode::kSoftEntropy:
      return binary_entropy(stats.sum_p1 / m);
    case UncertaintyMode::kExpectedEntropy:
      return stats.sum_entropy / m;
    case UncertaintyMode::kMutualInformation:
      return binary_entropy(stats.sum_p1 / m) - stats.sum_entropy / m;
    case UncertaintyMode::kVariationRatio: {
      const auto votes = static_cast<double>(stats.votes1);
      return 1.0 - std::max(votes, m - votes) / m;
    }
    case UncertaintyMode::kMaxProbability: {
      const double p1 = stats.sum_p1 / m;
      return 1.0 - std::max(p1, 1.0 - p1);
    }
  }
  throw InvalidArgument("uncertainty_score: bad mode");
}

namespace {

/// Accumulate per-member P(class 1) values (in member order) into ensemble
/// statistics: the reference vote / posterior / entropy accumulation that
/// every engine's stats_batch must reproduce bit-for-bit.
EnsembleStats accumulate_stats(const std::vector<double>& probabilities) {
  EnsembleStats stats;
  for (const double p1 : probabilities) {
    stats.votes1 += p1 > 0.5;
    stats.sum_p1 += p1;
    stats.sum_entropy += binary_entropy(p1);
  }
  return stats;
}

}  // namespace

UncertaintyEstimator::UncertaintyEstimator(EnsembleView view)
    : view_(view) {
  HMD_REQUIRE(view_.ensemble().fitted(),
              "UncertaintyEstimator: ensemble not fitted");
}

EnsembleStats UncertaintyEstimator::reference_stats(RowView x) const {
  std::vector<double> probabilities;
  view_.ensemble().member_probabilities(x, probabilities);
  return accumulate_stats(probabilities);
}

std::vector<double> UncertaintyEstimator::scores(
    const Matrix& x, UncertaintyMode mode) const {
  const auto n_members =
      static_cast<int>(view_.ensemble().n_members());
  std::vector<double> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out.push_back(uncertainty_score(mode, reference_stats(x.row(r)),
                                    n_members, nullptr));
  }
  return out;
}

}  // namespace hmd::core
