// Ablation A3: separating the sources of uncertainty — the paper's stated
// future work (Section VI).
//
// The paper's hard-vote entropy cannot distinguish data (aleatoric) from
// model (epistemic) uncertainty, which is why the HPC dataset confounds it.
// The soft-posterior decomposition H(E[p]) = E[H(p)] + MI can: this bench
// sweeps (a) class overlap with in-distribution test data — aleatoric
// should rise — and (b) a traversal of the empty corridor between two
// disjoint classes — MI peaks in the sparsely-trained gap. Finally it
// applies the
// decomposition to the two paper datasets: DVFS unknowns are dominated by
// MI (epistemic), HPC known-test uncertainty by expected entropy
// (aleatoric), which is exactly the diagnosis the paper reaches manually
// via t-SNE.

#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "ml/preprocessing.h"

namespace {

using namespace hmd;

/// Mean decomposition components over a matrix of samples.
struct MeanDecomposition {
  double total = 0.0;
  double aleatoric = 0.0;
  double epistemic = 0.0;
};

MeanDecomposition mean_decomposition(const core::TrustedHmd& hmd,
                                     const Matrix& x) {
  api::ScoreResult est;
  hmd.score({.x = &x,
             .outputs = api::kOutSoftEntropy | api::kOutExpectedEntropy |
                        api::kOutMutualInformation},
            est);
  MeanDecomposition out;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out.total += est.soft_entropy[r];
    out.aleatoric += est.expected_entropy[r];
    out.epistemic += est.mutual_information[r];
  }
  const auto n = static_cast<double>(x.rows());
  out.total /= n;
  out.aleatoric /= n;
  out.epistemic /= n;
  return out;
}

ml::Dataset two_blobs(double separation, double sigma, std::size_t per_class,
                      std::uint64_t seed, double shift = 0.0) {
  ml::Dataset d;
  Rng rng(seed);
  for (int cls = 0; cls < 2; ++cls) {
    for (std::size_t i = 0; i < per_class; ++i) {
      const double cx = cls * separation + shift;
      const double cy = cls * separation + shift;
      const std::vector<double> row{rng.normal(cx, sigma),
                                    rng.normal(cy, sigma)};
      d.X.push_row(row);
      d.y.push_back(cls);
    }
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = hmd::bench::parse_bench_args(argc, argv);

  hmd::bench::print_header(
      "Ablation A3 — aleatoric/epistemic decomposition (paper future work)",
      "soft posterior: total = H(mean p); aleatoric = mean H(p_m); "
      "epistemic = MI");

  core::HmdConfig config =
      hmd::bench::paper_config(options, core::ModelKind::kRandomForest);
  config.mode = core::UncertaintyMode::kSoftEntropy;
  // Fully-grown trees have one-hot leaves, which silently zeroes the
  // aleatoric component; a leaf-size floor keeps empirical distributions.
  config.tree_min_samples_leaf = 8;

  // --- (a) class-overlap sweep: in-distribution test data. ---
  {
    ConsoleTable table({"separation/sigma", "total", "aleatoric",
                        "epistemic", "aleatoric share"});
    for (double separation : {4.0, 2.0, 1.0, 0.5, 0.0}) {
      const auto train = two_blobs(separation, 1.0, 400, 3);
      const auto test = two_blobs(separation, 1.0, 200, 4);
      core::TrustedHmd hmd(config);
      hmd.fit(train);
      const auto d = mean_decomposition(hmd, test.X);
      table.add_row({ConsoleTable::fmt(separation, 1),
                     ConsoleTable::fmt(d.total, 3),
                     ConsoleTable::fmt(d.aleatoric, 3),
                     ConsoleTable::fmt(d.epistemic, 3),
                     ConsoleTable::fmt(
                         d.total > 0 ? d.aleatoric / d.total : 0.0, 2)});
    }
    std::cout << "\n(a) class-overlap sweep (in-distribution test)\n"
              << table;
    std::cout << "expected: total rises as classes merge, and it is almost "
                 "entirely aleatoric\n";
  }

  // --- (b) inter-class traversal: probe the sparsely-trained gap. ---
  {
    ConsoleTable table({"gap position t", "total", "aleatoric", "epistemic",
                        "epistemic share"});
    const auto train = two_blobs(8.0, 1.0, 400, 5);
    core::TrustedHmd hmd(config);
    hmd.fit(train);
    for (double t : {0.0, 0.125, 0.25, 0.375, 0.5}) {
      // Probe points on the segment between the two cluster centres,
      // t = 0 on a training cluster, t = 0.5 mid-gap (zero-day territory).
      Rng rng(7);
      Matrix probes;
      for (int i = 0; i < 200; ++i) {
        const std::vector<double> row{8.0 * t + rng.normal(0.0, 0.3),
                                      8.0 * t + rng.normal(0.0, 0.3)};
        probes.push_row(row);
      }
      const auto d = mean_decomposition(hmd, probes);
      table.add_row({ConsoleTable::fmt(t, 3), ConsoleTable::fmt(d.total, 3),
                     ConsoleTable::fmt(d.aleatoric, 3),
                     ConsoleTable::fmt(d.epistemic, 3),
                     ConsoleTable::fmt(
                         d.total > 0 ? d.epistemic / d.total : 0.0, 2)});
    }
    std::cout << "\n(b) inter-class traversal (disjoint classes)\n"
              << table;
    std::cout << "expected: uncertainty appears only toward the gap centre "
                 "and is mostly epistemic (MI)\n";
  }

  // --- (c) the two paper datasets. ---
  {
    ConsoleTable table({"Dataset", "Split", "total", "aleatoric",
                        "epistemic", "dominant source"});
    for (const auto& bundle : {hmd::bench::dvfs_bundle(options),
                               hmd::bench::hpc_bundle(options)}) {
      core::HmdConfig dataset_config = config;
      // Deep datasets need a proportionally larger leaf floor, otherwise
      // bootstrap jitter of tiny leaves masquerades as model uncertainty.
      dataset_config.tree_min_samples_leaf = static_cast<int>(
          std::clamp<std::size_t>(bundle.train.size() / 200, 8, 256));
      core::TrustedHmd hmd(dataset_config);
      hmd.fit(bundle.train);
      for (const auto& [name, x] :
           {std::pair<std::string, const Matrix*>{"known", &bundle.test.X},
            std::pair<std::string, const Matrix*>{"unknown",
                                                  &bundle.unknown.X}}) {
        const auto d = mean_decomposition(hmd, *x);
        table.add_row({bundle.name, name, ConsoleTable::fmt(d.total, 3),
                       ConsoleTable::fmt(d.aleatoric, 3),
                       ConsoleTable::fmt(d.epistemic, 3),
                       d.aleatoric > d.epistemic ? "aleatoric (data)"
                                                 : "epistemic (model)"});
      }
    }
    std::cout << "\n(c) decomposition on the paper's datasets\n" << table;
    std::cout << "expected: DVFS-unknown dominated by epistemic (zero-day); "
                 "HPC by aleatoric (overlap)\n";
    hmd::write_text_file("bench_results/ablation_decomposition.csv",
                         table.to_csv());
  }
  return 0;
}
