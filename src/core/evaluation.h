#pragma once
// Evaluation of trusted detectors: entropy distributions, rejection
// curves, accept-set F1, ensemble-size sweeps and the OOD AUROC — the
// quantities behind Figs. 4-9 of the paper.

#include <optional>
#include <vector>

#include "common/stats.h"
#include "core/hmd.h"
#include "datasets/dataset_bundle.h"

namespace hmd::core {

/// Uncertainty scores of the known (test) and unknown splits.
struct EntropyDistributions {
  std::vector<double> known;
  std::vector<double> unknown;
  BoxplotStats known_stats;
  BoxplotStats unknown_stats;
};

/// Score both splits of the bundle under `mode` (default: the detector's
/// configured mode) and summarise them.
EntropyDistributions entropy_distributions(
    const TrustedHmd& hmd, const data::DatasetBundle& bundle,
    std::optional<UncertaintyMode> mode = std::nullopt);

/// n evenly-spaced thresholds over [lo, hi], endpoints included.
std::vector<double> threshold_grid(double lo, double hi, std::size_t n);

/// Percentages rejected (score > threshold) at one threshold.
struct RejectionPoint {
  double threshold = 0.0;
  double rejected_known = 0.0;    ///< percent of known inputs rejected
  double rejected_unknown = 0.0;  ///< percent of unknown inputs rejected
};

std::vector<RejectionPoint> rejection_curve(
    const std::vector<double>& known, const std::vector<double>& unknown,
    const std::vector<double>& thresholds);

/// The threshold maximising unknown rejection subject to rejecting at
/// most `max_known_pct` percent of known inputs (ties -> larger
/// threshold). Falls back to the largest threshold if none qualifies.
RejectionPoint best_operating_point(const std::vector<double>& known,
                                    const std::vector<double>& unknown,
                                    const std::vector<double>& thresholds,
                                    double max_known_pct);

/// F1 over the accepted subset of a labelled split, per threshold.
struct F1CurvePoint {
  double threshold = 0.0;
  double f1 = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double fraction_rejected = 0.0;
};

std::vector<F1CurvePoint> f1_vs_threshold(
    const TrustedHmd& hmd, const ml::Dataset& split,
    const std::vector<double>& thresholds);

/// Mean split entropies as the ensemble grows (Fig. 9a).
struct EnsembleSizePoint {
  int n_members = 0;
  double mean_entropy_known = 0.0;
  double mean_entropy_unknown = 0.0;
};

std::vector<EnsembleSizePoint> ensemble_size_sweep(
    const HmdConfig& base_config, const data::DatasetBundle& bundle,
    const std::vector<int>& sizes);

/// AUROC of separating unknown from known inputs by score (rank-based,
/// ties share credit).
double ood_auroc(const EntropyDistributions& distributions);

/// One-stop summary used by the governor ablation.
struct DetectorSummary {
  double accuracy = 0.0;
  double f1 = 0.0;
  double auroc = 0.0;
  RejectionPoint operating_point;
  double median_entropy_known = 0.0;
  double median_entropy_unknown = 0.0;
};

DetectorSummary evaluate_detector(ModelKind kind,
                                  const data::DatasetBundle& bundle,
                                  HmdConfig config);

}  // namespace hmd::core
