#include "core/evaluation.h"

#include <algorithm>

#include "common/error.h"
#include "ml/metrics.h"

namespace hmd::core {

EntropyDistributions entropy_distributions(
    const TrustedHmd& hmd, const data::DatasetBundle& bundle,
    std::optional<UncertaintyMode> mode) {
  EntropyDistributions distributions;
  api::ScoreResult result;
  hmd.score({.x = &bundle.test.X, .outputs = api::kOutScore, .mode = mode},
            result);
  distributions.known = std::move(result.score);
  hmd.score({.x = &bundle.unknown.X, .outputs = api::kOutScore, .mode = mode},
            result);
  distributions.unknown = std::move(result.score);
  distributions.known_stats = boxplot_stats(distributions.known);
  distributions.unknown_stats = boxplot_stats(distributions.unknown);
  return distributions;
}

std::vector<double> threshold_grid(double lo, double hi, std::size_t n) {
  HMD_REQUIRE(n >= 2 && hi > lo, "threshold_grid: bad range");
  std::vector<double> grid(n);
  for (std::size_t i = 0; i < n; ++i) {
    grid[i] = lo + (hi - lo) * static_cast<double>(i) /
                       static_cast<double>(n - 1);
  }
  return grid;
}

namespace {

double percent_above(const std::vector<double>& scores, double threshold) {
  if (scores.empty()) return 0.0;
  std::size_t rejected = 0;
  for (const double s : scores) rejected += s > threshold;
  return 100.0 * static_cast<double>(rejected) /
         static_cast<double>(scores.size());
}

}  // namespace

std::vector<RejectionPoint> rejection_curve(
    const std::vector<double>& known, const std::vector<double>& unknown,
    const std::vector<double>& thresholds) {
  std::vector<RejectionPoint> curve;
  curve.reserve(thresholds.size());
  for (const double threshold : thresholds) {
    RejectionPoint point;
    point.threshold = threshold;
    point.rejected_known = percent_above(known, threshold);
    point.rejected_unknown = percent_above(unknown, threshold);
    curve.push_back(point);
  }
  return curve;
}

RejectionPoint best_operating_point(const std::vector<double>& known,
                                    const std::vector<double>& unknown,
                                    const std::vector<double>& thresholds,
                                    double max_known_pct) {
  HMD_REQUIRE(!thresholds.empty(), "best_operating_point: empty grid");
  const auto curve = rejection_curve(known, unknown, thresholds);
  const RejectionPoint* best = nullptr;
  for (const auto& point : curve) {
    if (point.rejected_known > max_known_pct) continue;
    if (best == nullptr || point.rejected_unknown >= best->rejected_unknown) {
      best = &point;
    }
  }
  return best != nullptr ? *best : curve.back();
}

std::vector<F1CurvePoint> f1_vs_threshold(
    const TrustedHmd& hmd, const ml::Dataset& split,
    const std::vector<double>& thresholds) {
  HMD_REQUIRE(split.size() > 0 && split.y.size() == split.size(),
              "f1_vs_threshold: bad split");
  api::ScoreResult scored;
  hmd.score({.x = &split.X, .outputs = api::kOutPrediction | api::kOutScore},
            scored);
  std::vector<F1CurvePoint> curve;
  curve.reserve(thresholds.size());
  for (const double threshold : thresholds) {
    F1CurvePoint point;
    point.threshold = threshold;
    std::vector<int> y_true, y_pred;
    for (std::size_t i = 0; i < scored.rows; ++i) {
      if (scored.score[i] > threshold) continue;
      y_true.push_back(split.y[i]);
      y_pred.push_back(scored.prediction[i]);
    }
    point.fraction_rejected =
        1.0 - static_cast<double>(y_true.size()) /
                  static_cast<double>(scored.rows);
    if (!y_true.empty()) {
      const auto metrics = ml::binary_metrics(y_true, y_pred);
      point.f1 = metrics.f1;
      point.precision = metrics.precision;
      point.recall = metrics.recall;
    }
    curve.push_back(point);
  }
  return curve;
}

std::vector<EnsembleSizePoint> ensemble_size_sweep(
    const HmdConfig& base_config, const data::DatasetBundle& bundle,
    const std::vector<int>& sizes) {
  std::vector<EnsembleSizePoint> sweep;
  sweep.reserve(sizes.size());
  for (const int size : sizes) {
    HmdConfig config = base_config;
    config.n_members = size;
    TrustedHmd hmd(config);
    hmd.fit(bundle.train);
    const EntropyDistributions distributions =
        entropy_distributions(hmd, bundle);
    EnsembleSizePoint point;
    point.n_members = size;
    point.mean_entropy_known = mean(distributions.known);
    point.mean_entropy_unknown = mean(distributions.unknown);
    sweep.push_back(point);
  }
  return sweep;
}

double ood_auroc(const EntropyDistributions& distributions) {
  const auto& known = distributions.known;
  const auto& unknown = distributions.unknown;
  HMD_REQUIRE(!known.empty() && !unknown.empty(), "ood_auroc: empty split");
  // Rank-sum formulation over the pooled scores; ties get half credit.
  std::vector<double> sorted_known = known;
  std::sort(sorted_known.begin(), sorted_known.end());
  double rank_credit = 0.0;
  for (const double u : unknown) {
    const auto lower = std::lower_bound(sorted_known.begin(),
                                        sorted_known.end(), u);
    const auto upper =
        std::upper_bound(lower, sorted_known.end(), u);
    rank_credit += static_cast<double>(lower - sorted_known.begin()) +
                   0.5 * static_cast<double>(upper - lower);
  }
  return rank_credit / (static_cast<double>(known.size()) *
                        static_cast<double>(unknown.size()));
}

DetectorSummary evaluate_detector(ModelKind kind,
                                  const data::DatasetBundle& bundle,
                                  HmdConfig config) {
  config.model = kind;
  TrustedHmd hmd(config);
  hmd.fit(bundle.train);

  DetectorSummary summary;
  api::ScoreResult predicted;
  hmd.score({.x = &bundle.test.X, .outputs = api::kPredictionOnly}, predicted);
  const auto metrics = ml::binary_metrics(bundle.test.y, predicted.prediction);
  summary.accuracy = metrics.accuracy;
  summary.f1 = metrics.f1;

  const auto distributions = entropy_distributions(hmd, bundle);
  summary.auroc = ood_auroc(distributions);
  summary.operating_point = best_operating_point(
      distributions.known, distributions.unknown,
      threshold_grid(0.0, 0.75, 151), 5.0);
  summary.median_entropy_known = distributions.known_stats.median;
  summary.median_entropy_unknown = distributions.unknown_stats.median;
  return summary;
}

}  // namespace hmd::core
