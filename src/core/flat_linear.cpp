#include "core/flat_linear.h"

#include <cmath>

#include "common/binary_io.h"
#include "common/error.h"
#include "core/thread_pool.h"
#include "core/uncertainty.h"
#include "ml/linear.h"

namespace hmd::core {

namespace {

// Exactness thresholds for the sigmoid shortcuts (see link_probability).
//
//   t >= 40: exp(-t) <= exp(-40) ≈ 4.25e-18, far below 2^-53 ≈ 1.11e-16
//   even for a libm off by many ulps, so fl(1 + exp(-t)) == 1.0 under
//   round-to-nearest (increments <= half an ulp of 1.0 vanish, ties go to
//   even) and p = 1/1 == 1.0 exactly — the value the full evaluation
//   would produce.
//
//   t <= -745: -t >= 745 > 709.79, past the IEEE-754 double overflow
//   bound of exp, so exp(-t) == +inf and p = 1/(1 + inf) == 0.0 exactly.
constexpr double kSigmoidOneAt = 40.0;
constexpr double kSigmoidZeroAt = -745.0;

/// The reference member probability, expression for expression:
/// sigmoid(t) = 1 / (1 + exp(-t)) with the exact shortcuts above.
inline double link_probability(double t) {
  if (t >= kSigmoidOneAt) return 1.0;
  if (t <= kSigmoidZeroAt) return 0.0;
  return 1.0 / (1.0 + std::exp(-t));
}

}  // namespace

std::unique_ptr<FlatLinearEngine> FlatLinearEngine::compile(
    const ml::Bagging& ensemble, const ml::StandardScaler& scaler) {
  HMD_REQUIRE(ensemble.fitted(),
              "FlatLinearEngine::compile: ensemble not fitted");
  HMD_REQUIRE(scaler.fitted(),
              "FlatLinearEngine::compile: scaler not fitted");

  const std::size_t n_members = ensemble.n_members();
  const std::size_t d = ensemble.n_features();
  HMD_REQUIRE(scaler.means().size() == d,
              "FlatLinearEngine::compile: scaler/ensemble width mismatch");

  auto engine = std::make_unique<FlatLinearEngine>();
  engine->n_members_ = n_members;
  engine->n_features_ = d;
  engine->weights_storage_.reserve(n_members * d);
  engine->bias_storage_.reserve(n_members);
  engine->platt_a_storage_.assign(n_members, 0.0);
  engine->platt_b_storage_.assign(n_members, 0.0);

  bool kind_known = false;
  for (std::size_t m = 0; m < n_members; ++m) {
    // Subspace members would need a dense re-expansion whose interleaved
    // zero terms change nothing numerically for finite features but are
    // not worth the parity argument — such ensembles keep the reference
    // path. (The detectors never configure feature_fraction < 1.)
    if (!ensemble.feature_map(m).empty()) return nullptr;

    const ml::Classifier& member = ensemble.member(m);
    MemberKind kind;
    const std::vector<double>* weights = nullptr;
    if (const auto* lr =
            dynamic_cast<const ml::LogisticRegression*>(&member)) {
      kind = MemberKind::kLogistic;
      weights = &lr->weights();
      engine->bias_storage_.push_back(lr->bias());
    } else if (const auto* svm = dynamic_cast<const ml::LinearSvm*>(&member)) {
      kind = MemberKind::kSvm;
      weights = &svm->weights();
      engine->bias_storage_.push_back(svm->bias());
      engine->platt_a_storage_[m] = svm->platt_a();
      engine->platt_b_storage_[m] = svm->platt_b();
    } else {
      return nullptr;
    }
    if (weights->size() != d) return nullptr;
    if (!kind_known) {
      engine->kind_ = kind;
      kind_known = true;
    } else if (engine->kind_ != kind) {
      return nullptr;  // mixed link functions: stay on the reference path
    }
    engine->weights_storage_.insert(engine->weights_storage_.end(),
                                    weights->begin(), weights->end());
  }

  engine->means_storage_ = scaler.means();
  engine->scales_storage_ = scaler.scales();
  engine->adopt_storage();
  engine->rebuild_transpose();
  return engine;
}

void FlatLinearEngine::adopt_storage() {
  weights_ = weights_storage_;
  weights_t_ = weights_t_storage_;
  bias_ = bias_storage_;
  platt_a_ = platt_a_storage_;
  platt_b_ = platt_b_storage_;
  means_ = means_storage_;
  scales_ = scales_storage_;
  buffer_ = nullptr;
}

void FlatLinearEngine::rebuild_transpose() {
  weights_t_storage_.assign(n_members_ * n_features_, 0.0);
  for (std::size_t m = 0; m < n_members_; ++m) {
    for (std::size_t c = 0; c < n_features_; ++c) {
      weights_t_storage_[c * n_members_ + m] =
          weights_[m * n_features_ + c];
    }
  }
  weights_t_ = weights_t_storage_;
}

void FlatLinearEngine::save_blob(io::AlignedWriter& out) const {
  // Counts first, then every array on a 64-byte file offset. The
  // feature-major transpose is serialised too — it is derived data (like
  // the forest's leaf entropies), but carrying it on disk lets the batch
  // kernel's exact layout map in place, so a load does no O(M·d)
  // rebuild at all.
  out.write_pod(static_cast<std::uint8_t>(kind_));
  out.write_pod(static_cast<std::uint64_t>(n_members_));
  out.write_pod(static_cast<std::uint64_t>(n_features_));
  for (const std::span<const double> array :
       {weights_, weights_t_, bias_, platt_a_, platt_b_, means_, scales_}) {
    out.pad_to(64);
    out.write_span(array.data(), array.size());
  }
}

std::unique_ptr<FlatLinearEngine> FlatLinearEngine::from_buffer(
    io::ByteReader& in, std::shared_ptr<const io::ArtifactBuffer> keepalive) {
  auto engine = std::make_unique<FlatLinearEngine>();
  const auto kind = in.read_pod<std::uint8_t>();
  const auto n_members = in.read_pod<std::uint64_t>();
  const auto d = in.read_pod<std::uint64_t>();
  if (kind > static_cast<std::uint8_t>(MemberKind::kSvm))
    throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                    "unknown linear member kind");
  if (n_members == 0 || d == 0 || n_members > (1u << 24) || d > (1u << 24))
    throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                    "implausible linear-engine geometry");
  engine->kind_ = static_cast<MemberKind>(kind);
  engine->n_members_ = static_cast<std::size_t>(n_members);
  engine->n_features_ = static_cast<std::size_t>(d);
  const std::size_t m_by_d = engine->n_members_ * engine->n_features_;
  const auto view = [&](std::span<const double>& dst, std::size_t n) {
    in.align_to(64);
    dst = {in.view_span<double>(n), n};
  };
  view(engine->weights_, m_by_d);
  view(engine->weights_t_, m_by_d);
  view(engine->bias_, engine->n_members_);
  view(engine->platt_a_, engine->n_members_);
  view(engine->platt_b_, engine->n_members_);
  view(engine->means_, engine->n_features_);
  view(engine->scales_, engine->n_features_);
  engine->buffer_ = std::move(keepalive);
  return engine;
}

template <bool kNeedPosterior, bool kNeedEntropy>
void FlatLinearEngine::tile_kernel(const Matrix& x, std::size_t row_begin,
                                   std::size_t row_end, EnsembleStats* out,
                                   bool fast) const {
  const std::size_t m_count = n_members_;
  const std::size_t d = n_features_;
  const bool svm = kind_ == MemberKind::kSvm;
  const double* wt = weights_t_.data();

  // Per-thread scratch, kept across calls: the scaled row, the
  // pre-activations, the link arguments, and the fast tier's member
  // probabilities and entropies, batched so the vectorised kernels get
  // contiguous arrays.
  double* xs = thread_scratch(d + 4 * m_count);
  double* z = xs + d;
  double* t = z + m_count;
  double* p = t + m_count;
  double* h = p + m_count;

  const auto scale_row = [&](std::size_t row, double* dst) {
    const double* src = x.row_ptr(row);
    for (std::size_t c = 0; c < d; ++c) {
      dst[c] = (src[c] - means_[c]) / scales_[c];
    }
  };

  // Blocked product over the feature-major weights: 16 members' chains
  // are held in a register block the compiler packs into SIMD lanes, so
  // the feature sweep never round-trips partial sums through memory. Each
  // chain is still one accumulator adding w[m][c]·xs[c] in ascending
  // feature order, so every pre-activation is bit-identical to the
  // reference dot_row.
  const auto gemv = [&](const double* x0) {
    constexpr std::size_t kMemberBlock = 16;
    std::size_t m = 0;
    for (; m + kMemberBlock <= m_count; m += kMemberBlock) {
      double a[kMemberBlock] = {};
      for (std::size_t c = 0; c < d; ++c) {
        const double xc = x0[c];
        const double* w = wt + c * m_count + m;
        for (std::size_t k = 0; k < kMemberBlock; ++k) a[k] += w[k] * xc;
      }
      for (std::size_t k = 0; k < kMemberBlock; ++k) z[m + k] = a[k];
    }
    for (; m < m_count; ++m) {
      double a = 0.0;
      for (std::size_t c = 0; c < d; ++c) a += wt[c * m_count + m] * x0[c];
      z[m] = a;
    }
  };

  // Per-row epilogue in three phases so everything around the exp() calls
  // vectorises: (1) the affine link argument t[m] — elementwise, same
  // expressions as the reference, per-member order untouched; (2) the
  // sigmoid — the scalar libm loop on the exact tier (exp is the only
  // part the compiler cannot vectorise without changing results), one
  // sigmoid_array / binary_entropy_array pass on the fast tier; (3)
  // in-member-order accumulation, identical for both tiers.
  const auto finish_row = [&](const double* zj) {
    if (svm) {
      for (std::size_t m = 0; m < m_count; ++m) {
        t[m] = -(platt_a_[m] * (zj[m] + bias_[m]) + platt_b_[m]);
      }
    } else {
      for (std::size_t m = 0; m < m_count; ++m) t[m] = zj[m] + bias_[m];
    }
    EnsembleStats stats;
    if (fast) {
      vmath_->sigmoid_array(t, p, m_count);
      if constexpr (kNeedEntropy) {
        vmath_->binary_entropy_array(p, h, m_count);
      }
      for (std::size_t m = 0; m < m_count; ++m) {
        stats.votes1 += p[m] > 0.5;
        if constexpr (kNeedPosterior) stats.sum_p1 += p[m];
        if constexpr (kNeedEntropy) stats.sum_entropy += h[m];
      }
    } else {
      for (std::size_t m = 0; m < m_count; ++m) {
        const double pm = link_probability(t[m]);
        stats.votes1 += pm > 0.5;
        if constexpr (kNeedPosterior) stats.sum_p1 += pm;
        if constexpr (kNeedEntropy) stats.sum_entropy += binary_entropy(pm);
      }
    }
    return stats;
  };

  for (std::size_t r = row_begin; r < row_end; ++r) {
    scale_row(r, xs);
    gemv(xs);
    out[r - row_begin] = finish_row(z);
  }
}

void FlatLinearEngine::stats_batch(const Matrix& x, ThreadPool* pool,
                                   std::vector<EnsembleStats>& out,
                                   StatsMask mask) const {
  HMD_REQUIRE(x.cols() == n_features_ || x.rows() == 0,
              "FlatLinearEngine::stats_batch: feature width mismatch");
  out.assign(x.rows(), EnsembleStats{});
  const bool posterior = (mask & kStatsPosterior) != 0;
  const bool entropy = (mask & kStatsEntropy) != 0;
  const bool fast = (mask & kStatsFastMath) != 0;
  const std::size_t n_tiles = (x.rows() + kTileRows - 1) / kTileRows;
  auto run_tiles = [&](std::size_t tile_begin, std::size_t tile_end) {
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
      const std::size_t tile_row_begin = t * kTileRows;
      const std::size_t tile_row_end =
          std::min(x.rows(), tile_row_begin + kTileRows);
      EnsembleStats* dst = out.data() + tile_row_begin;
      if (posterior && entropy) {
        tile_kernel<true, true>(x, tile_row_begin, tile_row_end, dst, fast);
      } else if (posterior) {
        tile_kernel<true, false>(x, tile_row_begin, tile_row_end, dst, fast);
      } else if (entropy) {
        tile_kernel<false, true>(x, tile_row_begin, tile_row_end, dst, fast);
      } else {
        tile_kernel<false, false>(x, tile_row_begin, tile_row_end, dst,
                                  fast);
      }
    }
  };
  if (pool != nullptr && n_tiles > 1) {
    pool->parallel_for(n_tiles, run_tiles);
  } else {
    run_tiles(0, n_tiles);
  }
}

}  // namespace hmd::core
