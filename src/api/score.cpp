#include "api/score.h"

#include <cstring>

namespace hmd::api {

core::StatsMask stats_mask_for(OutputMask outputs,
                               core::UncertaintyMode score_mode) {
  core::StatsMask mask = core::kStatsVotes;
  constexpr OutputMask kPosteriorOutputs =
      kOutConfidence | kOutSoftEntropy | kOutMutualInformation |
      kOutMaxProbability;
  constexpr OutputMask kEntropyOutputs =
      kOutExpectedEntropy | kOutMutualInformation;
  if (outputs & kPosteriorOutputs) mask |= core::kStatsPosterior;
  if (outputs & kEntropyOutputs) mask |= core::kStatsEntropy;
  if (outputs & (kOutScore | kOutTrusted)) {
    if (core::uncertainty_mode_needs_posterior(score_mode))
      mask |= core::kStatsPosterior;
    if (core::uncertainty_mode_needs_entropy(score_mode))
      mask |= core::kStatsEntropy;
  }
  return mask;
}

namespace {

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
void shape_column(std::vector<T>& column, bool selected, std::size_t n) {
  // resize() within capacity never reallocates; clear() keeps capacity.
  if (selected) {
    column.resize(n);
  } else {
    column.clear();
  }
}

}  // namespace

void ScoreResult::shape(OutputMask outputs, std::size_t n) {
  rows = n;
  shape_column(prediction, outputs & kOutPrediction, n);
  shape_column(confidence, outputs & kOutConfidence, n);
  shape_column(votes, outputs & kOutVotes, n);
  shape_column(vote_entropy, outputs & kOutVoteEntropy, n);
  shape_column(soft_entropy, outputs & kOutSoftEntropy, n);
  shape_column(expected_entropy, outputs & kOutExpectedEntropy, n);
  shape_column(mutual_information, outputs & kOutMutualInformation, n);
  shape_column(variation_ratio, outputs & kOutVariationRatio, n);
  shape_column(max_probability, outputs & kOutMaxProbability, n);
  shape_column(score, outputs & kOutScore, n);
  shape_column(trusted, outputs & kOutTrusted, n);
}

bool bit_identical(const ScoreResult& a, const ScoreResult& b) {
  return a.rows == b.rows && same_bytes(a.prediction, b.prediction) &&
         same_bytes(a.confidence, b.confidence) &&
         same_bytes(a.votes, b.votes) &&
         same_bytes(a.vote_entropy, b.vote_entropy) &&
         same_bytes(a.soft_entropy, b.soft_entropy) &&
         same_bytes(a.expected_entropy, b.expected_entropy) &&
         same_bytes(a.mutual_information, b.mutual_information) &&
         same_bytes(a.variation_ratio, b.variation_ratio) &&
         same_bytes(a.max_probability, b.max_probability) &&
         same_bytes(a.score, b.score) && same_bytes(a.trusted, b.trusted);
}

}  // namespace hmd::api
