#pragma once
// The pluggable inference spine. After training, an ensemble is compiled
// into an InferenceEngine — a self-contained, trainer-free representation
// that produces the per-sample EnsembleStats every score() column is
// derived from. Engines consume *raw* feature rows (an engine that
// needs standardised inputs owns its scaler) so callers never have to know
// which preprocessing a model family requires.
//
// Implementations:
//   FlatForestEngine  (core/flat_forest.h) — tree ensembles re-packed into
//                     a struct-of-arrays node arena.
//   FlatLinearEngine  (core/flat_linear.h) — bagged LR / SVM members
//                     compiled into one contiguous M×d weight matrix.
//
// Every engine serialises itself into the `.hmdf` model artifact
// (core/model_artifact.h): `engine_id()` tags the blob on disk and
// `save_blob()` writes it; the artifact loader dispatches on the tag to
// the matching engine's from_buffer(), reconstructing a serving-only
// detector with no ml::Bagging (and no training code) on the path.

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace hmd::io {
class AlignedWriter;
}  // namespace hmd::io

namespace hmd::core {

class ThreadPool;

/// Per-sample ensemble sufficient statistics. sum_p1 and sum_entropy are
/// accumulated in member order (member 0 first), matching the reference
/// implementation exactly.
struct EnsembleStats {
  std::int32_t votes1 = 0;     ///< members voting class 1
  double sum_p1 = 0.0;         ///< sum of member P(class 1)
  double sum_entropy = 0.0;    ///< sum of member entropies H(p_m)
};

/// On-disk engine tags (u32 in the `.hmdf` blob header). Never reuse a
/// retired value.
enum class EngineId : std::uint32_t {
  kFlatForest = 1,
  kFlatLinear = 2,
};

/// The two-tier accuracy contract, carried per request through the
/// score() spine (api/score.h) down into the engine kernels:
///
///  - kExact (the default): today's guarantee, unchanged — every output
///    is bit-identical to the reference member-by-member path, libm
///    transcendentals included. Old wire-protocol clients and any
///    request that does not say otherwise get this tier.
///  - kFast: transcendentals (the linear engines' sigmoid, every binary
///    entropy) are evaluated by the vectorised kernels in simd/vmath.h
///    under their documented ≤2-ULP bound. Saturated sigmoid values and
///    all special cases stay exact; which rows share a batch still
///    cannot change a row's result (per-row determinism holds per
///    tier). Engines without hot-path transcendentals (the flat forest:
///    precomputed leaf entropies, vote LUT) serve kFast bit-identical
///    to kExact.
enum class Accuracy : std::uint8_t {
  kExact = 0,
  kFast = 1,
};

/// Which EnsembleStats fields the caller will actually read, plus how.
/// Engines may leave an unselected field zero and skip the work that
/// feeds it — the per-member entropy log() pair, or the posterior
/// accumulate of a prediction-only request. votes1 is always exact:
/// every selected field is bit-identical to a full computation, an
/// unselected field is unspecified (zero in practice).
enum StatsField : std::uint32_t {
  kStatsVotes = 1u << 0,      ///< votes1 (always computed; one compare)
  kStatsPosterior = 1u << 1,  ///< sum_p1
  kStatsEntropy = 1u << 2,    ///< sum_entropy
  /// Modifier, not a field: the request is Accuracy::kFast, so the
  /// engine may fill the selected fields with the vectorised bounded-ULP
  /// kernels (simd/vmath.h) instead of libm. Without it the bit-parity
  /// contract above is unchanged.
  kStatsFastMath = 1u << 3,
};
using StatsMask = std::uint32_t;

/// Every *field* bit (kStatsFastMath is a modifier, never implied).
inline constexpr StatsMask kStatsAll =
    kStatsVotes | kStatsPosterior | kStatsEntropy;

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  /// Short display name, e.g. "flat_forest".
  virtual std::string name() const = 0;
  virtual EngineId engine_id() const = 0;
  virtual std::size_t n_members() const = 0;

  /// Expected input width. Rows narrower than this would read features
  /// out of bounds, so serving layers validate request shapes against it
  /// before ever building a Matrix from untrusted bytes.
  virtual std::size_t n_features() const = 0;

  /// Ensemble statistics for every raw-feature row of `x`, accumulated in
  /// member order — bit-identical to the reference member-by-member path
  /// (UncertaintyEstimator::reference_stats). Parallelised over `pool`
  /// when given; `out` is resized to x.rows(). Throws InvalidArgument
  /// when x.cols() != n_features(). `mask` names the EnsembleStats
  /// fields the caller will read (see StatsField): a vote-entropy
  /// detection never reads sum_entropy, a prediction-only score()
  /// request reads nothing but votes1, and the engine may skip the
  /// per-member work feeding an unselected field entirely. Selected
  /// fields are bit-identical to a kStatsAll computation.
  virtual void stats_batch(const Matrix& x, ThreadPool* pool,
                           std::vector<EnsembleStats>& out,
                           StatsMask mask) const = 0;

  /// Serialise the engine payload (everything after the artifact's
  /// engine-id tag): counts first, then every large array padded to a
  /// 64-byte file offset so a mapped artifact serves it in place (see
  /// core/model_artifact.h for the on-disk contract).
  virtual void save_blob(io::AlignedWriter& out) const = 0;

  /// True when the hot-path arrays are non-owning views into a *mapped*
  /// artifact (residency = pages actually touched). Engines viewing a
  /// heap-read ArtifactBuffer report false — the bytes were fully
  /// copied from disk, exactly the cost this flag distinguishes.
  virtual bool zero_copy() const { return false; }

  /// Which batch-kernel implementation this engine dispatches to: "jit"
  /// when a backend compiled the model to native code at load (see
  /// FlatForestEngine's kernel dispatch table), "arena" for the
  /// interpreted default over a zero-copy mapping, "stream-fallback" for
  /// the interpreted default over fully-copied bytes (the mmap-failed /
  /// --mmap=off load path). Observability only — outputs are
  /// bit-identical across all three, and serving layers log it per model.
  virtual std::string kernel_backend() const {
    return zero_copy() ? "arena" : "stream-fallback";
  }

  /// Bytes of model state touched on the hot path (arena, weight matrix).
  virtual std::size_t memory_bytes() const = 0;
};

}  // namespace hmd::core
