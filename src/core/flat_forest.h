#pragma once
// Flattened struct-of-arrays inference engine for tree ensembles.
//
// After fit(), every member tree of the bagging ensemble is re-packed into
// one contiguous arena of 16-byte node records (threshold double + packed
// feature / left-child indices), trees concatenated back to back. The
// traversal-hot fields of a node span a single 16-byte load, and children
// are allocated adjacently, so a traversal step is branch-free:
//
//   next = node.left + !(x[node.feature] <= node.threshold)
//
// (negated <=, so NaN descends right exactly like the reference tree).
//
// Leaves store the member's P(class 1) in the threshold slot and its
// precomputed binary entropy in a cold side array (touched once per walk),
// which makes the batched estimate path a pure accumulate — no log() on
// the hot path.
//
// stats_batch traverses *tree-major over sample tiles*: for each tile of
// rows, every tree is walked for all rows in the tile before moving to the
// next tree, so a tree's nodes stay cache-resident while they are reused.
// The tile is transposed to column-major scratch first, which turns the
// per-tree row loop into unit-stride loads. Trees of depth <= 1 (common on
// well-separated data, where most members are decision stumps) are
// compiled into a dedicated stump table evaluated as a branchless select —
// one compare + two blends per row that the compiler vectorises across
// rows. Deeper trees are walked eight rows at a time in lockstep (the
// interleaved walk): each step moves every lane one level with the
// branch-free step above, a lane already at its leaf keeps its index by
// a select, and one "any lane still internal?" test runs every two
// steps. Eight independent load chains overlap in flight, where a per-row
// walk waits out each dependent arena load in turn, and no data-dependent
// branch is left for the predictor to miss. A partial group (any row
// count not a multiple of eight) pads its idle lanes with its last live
// row and skips their accumulate, so every tile takes this one path.
// Lanes are rows, trees still run in ascending member order, so
// per-sample accumulation order is untouched and results stay bit-
// identical to the reference path.
// Tiles are distributed over a thread pool; each tile writes a disjoint
// output range, so results are deterministic for any worker count.
//
// The engine is an exact re-encoding of the pointer trees: predictions,
// vote counts and accumulated probabilities are bit-identical to the
// reference ml::Bagging path (asserted by the parity test suite).
//
// Serialisation: the arena, leaf entropies and roots are the whole model —
// save_blob() writes them and from_buffer() rebuilds the engine (the stump
// table is re-derived from the arena), so a serving process reconstructs
// inference without any training objects.
//
// Storage is view-based: the hot-path arrays (node arena, leaf entropies,
// roots) are std::spans. A training-built engine points them at its own
// vectors; an engine built from a `.hmdf` ArtifactBuffer (from_buffer)
// points them straight into the mapped file
// — zero copies, residency paid in page faults actually touched — and
// holds a shared_ptr keepalive so the mapping outlives the engine. The
// stump table is always re-derived at load; it is never serialised.
//
// Kernel dispatch: stats_batch lowers its StatsMask to one of four tile
// kernels through a per-engine dispatch table selected once at load time
// (select_kernels). The table rows share one uniform signature — a tile
// transposed at the fixed kTileRows stride, the live row count, and
// dense vote/posterior/entropy accumulators — so a backend is just a set
// of four rows. The interpreted arena rows always exist, one per shape,
// since a prediction-only request saves real work in their vectorised
// stump loop; they serve every forest under the default policy. When the
// tree JIT is available and forced on (src/jit/jit.h, Policy::kOn) all
// four rows instead point at the forest's one native kernel, the
// full-estimate shape, which is bit-identical to the interpreter
// (asserted by the JitParity suite). stats_batch always hands a kernel
// all three accumulators and copies out only the fields the mask asked
// for. kernel_backend() reports which rows are installed; everything
// above stats_batch (score() lowering, the StatsMask contract) is
// backend-blind.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mapped_file.h"
#include "common/matrix.h"
#include "core/inference_engine.h"
#include "ml/bagging.h"

namespace hmd::io {
class ByteReader;
}  // namespace hmd::io

namespace hmd::jit {
class ForestProgram;
}  // namespace hmd::jit

namespace hmd::core {

class FlatForestEngine final : public InferenceEngine {
 public:
  /// Re-pack a trained tree ensemble. Returns nullptr when any member is
  /// not a DecisionTree (the caller should try another engine).
  static std::unique_ptr<FlatForestEngine> compile(
      const ml::Bagging& ensemble);

  /// Reconstruct an engine from a `.hmdf` save_blob() payload, viewing
  /// the arena / entropies / roots *in place* inside `keepalive`'s buffer
  /// (no copies; the engine pins the buffer). Throws LoadError on
  /// truncation, implausible geometry, or an arena that fails
  /// validate_geometry's walk — run on every load, after the artifact's
  /// checksums verified (model_artifact.h's verify-then-walk contract).
  static std::unique_ptr<FlatForestEngine> from_buffer(
      io::ByteReader& in,
      std::shared_ptr<const io::ArtifactBuffer> keepalive);

  ~FlatForestEngine() override;

  std::string name() const override { return "flat_forest"; }
  EngineId engine_id() const override { return EngineId::kFlatForest; }
  std::size_t n_members() const override { return roots_.size(); }
  void stats_batch(const Matrix& x, ThreadPool* pool,
                   std::vector<EnsembleStats>& out,
                   StatsMask mask) const override;
  void save_blob(io::AlignedWriter& out) const override;
  bool zero_copy() const override {
    return buffer_ != nullptr && buffer_->mapped();
  }
  std::size_t memory_bytes() const override {
    return nodes_.size() * (sizeof(Node) + sizeof(double)) +
           stumps_.size() * sizeof(Stump);
  }

  /// Which batch-kernel rows the dispatch table holds: "jit" when the
  /// tree JIT compiled this forest, else "arena" (the interpreter).
  std::string kernel_backend() const override;

  std::size_t n_trees() const { return roots_.size(); }
  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_stumps() const { return n_stumps_; }
  std::size_t n_features() const override { return n_features_; }

  /// Sealed native code size (0 when interpreted). Not part of
  /// memory_bytes(), which stays the arena; the registry's residency
  /// ledger charges both.
  std::size_t jit_code_bytes() const;

  static constexpr std::size_t kTileRows = 256;

  /// One arena slot. feature < 0 marks a leaf; for leaves, threshold holds
  /// P(class 1). For internal nodes, left is the arena index of the left
  /// child and the right child sits at left + 1. Public so the tree JIT
  /// (src/jit) can walk the arena it compiles.
  struct alignas(16) Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t left = -1;
  };
  static_assert(sizeof(Node) == 16, "arena nodes are streamed raw");

  /// Read-only arena views for the JIT compiler (and the parity suite).
  std::span<const Node> nodes_view() const { return nodes_; }
  std::span<const double> leaf_entropy_view() const { return leaf_entropy_; }
  std::span<const std::int32_t> roots_view() const { return roots_; }

 private:
  /// Specialised encoding of a depth <= 1 tree: evaluated branchlessly as
  ///   hi = !(x[feature] <= threshold);  p1 = hi ? p_hi : p_lo
  /// A pure-leaf tree uses threshold = +inf so the select always takes the
  /// lo branch. Payloads are the exact leaf doubles from the arena, so the
  /// stump path is bit-identical to walking the same tree. The leaf's vote
  /// (p1 > 0.5) is precomputed as 0.0/1.0 so the whole evaluation — select,
  /// vote, and the three accumulates — stays in the FP domain and
  /// vectorises as one compare plus three blends and adds per row.
  struct Stump {
    std::int32_t feature = 0;
    double threshold = 0.0;
    double p_lo = 0.0, p_hi = 0.0;
    double e_lo = 0.0, e_hi = 0.0;
    double v_lo = 0.0, v_hi = 0.0;
  };

  /// Populate the stump table from the arena (used after compile and
  /// after load, so the specialisation never needs serialising).
  void derive_stumps();

  /// Point the hot-path spans at the engine-owned storage vectors (the
  /// training ownership mode).
  void adopt_storage();

  /// Structural validation of a loaded arena, one O(n_nodes) walk plus
  /// the O(n_trees) root checks: feature indices stay inside the input
  /// row and child links point strictly forward, so a corrupt or hostile
  /// arena can never be *traversed* wrong (and every walk terminates) —
  /// which is also what makes derive_stumps' child reads in-bounds.
  /// Throws LoadError{kBadStructure} naming `context`.
  void validate_geometry(const std::string& context) const;

  /// The uniform batch-kernel row signature. `xt` is the tile transposed
  /// at the fixed kTileRows stride (feature c's column starts at
  /// xt + c * kTileRows); `tile` is the live row count (<= kTileRows);
  /// the accumulators are zeroed by the caller and every pointer is
  /// valid; a row may fill fields its StatsMask shape does not need. Rows
  /// are plain functions so the table is data, not virtual dispatch.
  using BatchKernelFn = void (*)(const FlatForestEngine& self,
                                 const double* xt, std::size_t tile,
                                 double* votes, double* sum_p1,
                                 double* sum_entropy);

  /// Interpreted rows: the arena/stump walk, templated on shape.
  template <bool kNeedPosterior, bool kNeedEntropy>
  static void arena_kernel(const FlatForestEngine& self, const double* xt,
                           std::size_t tile, double* votes, double* sum_p1,
                           double* sum_entropy);

  /// The JIT row, installed for every shape: a trampoline into the
  /// ForestProgram's native full-estimate kernel.
  static void jit_kernel(const FlatForestEngine& self, const double* xt,
                         std::size_t tile, double* votes, double* sum_p1,
                         double* sum_entropy);

  /// Fill the dispatch table — interpreted rows, then, when the JIT is
  /// enabled and compilation succeeds, the native rows. Called once by
  /// every construction path (compile / from_buffer), which
  /// on the registry path runs under the per-entry load mutex: at most
  /// one compile per load, off the registry-wide lock.
  void select_kernels();

  // Hot-path views. Either into the storage vectors below (training) or
  // straight into buffer_'s mapped bytes (artifact load).
  std::span<const Node> nodes_;
  /// Per-slot binary entropy of the leaf P(class 1); meaningful (and read)
  /// only at leaves, kept out of the Node record to halve traversal reads.
  std::span<const double> leaf_entropy_;
  std::span<const std::int32_t> roots_;

  // Owned backing (empty for zero-copy engines).
  std::vector<Node> nodes_storage_;
  std::vector<double> leaf_entropy_storage_;
  std::vector<std::int32_t> roots_storage_;
  /// Pins the mapped/read artifact bytes the spans view (null when the
  /// storage vectors back them).
  std::shared_ptr<const io::ArtifactBuffer> buffer_;

  /// stumps_[m] is valid iff is_stump_[m]; general trees walk the arena.
  /// Always owned — the specialisation is re-derived at every load.
  std::vector<Stump> stumps_;
  std::vector<std::uint8_t> is_stump_;
  std::size_t n_stumps_ = 0;

  /// The per-engine kernel dispatch table, indexed by StatsMask shape
  /// (posterior ? 1 : 0) | (entropy ? 2 : 0). Filled by select_kernels().
  BatchKernelFn kernels_[4] = {nullptr, nullptr, nullptr, nullptr};
  /// Owns the native code when the JIT rows are installed; null keeps
  /// the interpreted rows (and is the automatic fallback everywhere the
  /// JIT is unavailable, disabled, or declined the forest).
  std::unique_ptr<jit::ForestProgram> jit_;
  /// Expected input width; every node's feature index is < this (checked
  /// at load, so a corrupt artifact can never drive out-of-bounds reads).
  std::size_t n_features_ = 0;
};

}  // namespace hmd::core
