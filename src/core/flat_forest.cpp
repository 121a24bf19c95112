#include "core/flat_forest.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/binary_io.h"
#include "common/error.h"
#include "core/thread_pool.h"
#include "core/uncertainty.h"
#include "jit/jit.h"
#include "ml/decision_tree.h"

namespace hmd::core {

FlatForestEngine::~FlatForestEngine() = default;

std::unique_ptr<FlatForestEngine> FlatForestEngine::compile(
    const ml::Bagging& ensemble) {
  HMD_REQUIRE(ensemble.fitted(),
              "FlatForestEngine::compile: ensemble not fitted");
  // Every member must be a decision tree; otherwise signal "not
  // compilable" and let the caller pick another engine.
  std::vector<const ml::DecisionTree*> trees;
  trees.reserve(ensemble.n_members());
  for (std::size_t m = 0; m < ensemble.n_members(); ++m) {
    const auto* tree =
        dynamic_cast<const ml::DecisionTree*>(&ensemble.member(m));
    if (tree == nullptr) return nullptr;
    trees.push_back(tree);
  }

  auto flat = std::make_unique<FlatForestEngine>();
  flat->n_features_ = ensemble.n_features();
  std::size_t total_nodes = 0;
  for (const auto* tree : trees) total_nodes += tree->nodes().size();
  flat->nodes_storage_.reserve(total_nodes);
  flat->leaf_entropy_storage_.reserve(total_nodes);
  flat->roots_storage_.reserve(trees.size());

  auto append_slot = [&flat]() {
    flat->nodes_storage_.emplace_back();
    flat->leaf_entropy_storage_.push_back(0.0);
    return static_cast<std::int32_t>(flat->nodes_storage_.size() - 1);
  };

  for (std::size_t m = 0; m < trees.size(); ++m) {
    const auto& nodes = trees[m]->nodes();
    const auto& feature_map = ensemble.feature_map(m);
    flat->roots_storage_.push_back(append_slot());

    // Breadth-first re-layout; both children of a node are allocated
    // together so right == left + 1 everywhere.
    std::deque<std::pair<std::int32_t, std::int32_t>> frontier;
    frontier.emplace_back(0, flat->roots_storage_.back());
    while (!frontier.empty()) {
      const auto [src, dst] = frontier.front();
      frontier.pop_front();
      const auto& node = nodes[static_cast<std::size_t>(src)];
      if (node.feature < 0) {
        flat->nodes_storage_[dst].feature = -1;
        flat->nodes_storage_[dst].threshold = node.p1;
        flat->leaf_entropy_storage_[dst] = binary_entropy(node.p1);
        continue;
      }
      const std::int32_t global_feature =
          feature_map.empty()
              ? node.feature
              : feature_map[static_cast<std::size_t>(node.feature)];
      flat->nodes_storage_[dst].feature = global_feature;
      flat->nodes_storage_[dst].threshold = node.threshold;
      const std::int32_t left = append_slot();
      append_slot();  // right child at left + 1
      flat->nodes_storage_[dst].left = left;
      frontier.emplace_back(node.left, left);
      frontier.emplace_back(node.right, left + 1);
    }
  }

  flat->adopt_storage();
  flat->derive_stumps();
  flat->select_kernels();
  return flat;
}

void FlatForestEngine::adopt_storage() {
  nodes_ = nodes_storage_;
  leaf_entropy_ = leaf_entropy_storage_;
  roots_ = roots_storage_;
  buffer_ = nullptr;
}

void FlatForestEngine::derive_stumps() {
  stumps_.assign(roots_.size(), Stump{});
  is_stump_.assign(roots_.size(), 0);
  n_stumps_ = 0;
  for (std::size_t m = 0; m < roots_.size(); ++m) {
    const std::int32_t root = roots_[m];
    const Node& node = nodes_[static_cast<std::size_t>(root)];
    Stump& stump = stumps_[m];
    if (node.feature < 0) {  // single-leaf tree: select is constant
      stump.feature = 0;
      stump.threshold = std::numeric_limits<double>::infinity();
      stump.p_lo = stump.p_hi = node.threshold;
      stump.e_lo = stump.e_hi = leaf_entropy_[static_cast<std::size_t>(root)];
      stump.v_lo = stump.v_hi = node.threshold > 0.5 ? 1.0 : 0.0;
      is_stump_[m] = 1;
      ++n_stumps_;
      continue;
    }
    const Node& lo = nodes_[static_cast<std::size_t>(node.left)];
    const Node& hi = nodes_[static_cast<std::size_t>(node.left) + 1];
    if (lo.feature < 0 && hi.feature < 0) {
      stump.feature = node.feature;
      stump.threshold = node.threshold;
      stump.p_lo = lo.threshold;
      stump.p_hi = hi.threshold;
      stump.e_lo = leaf_entropy_[static_cast<std::size_t>(node.left)];
      stump.e_hi = leaf_entropy_[static_cast<std::size_t>(node.left) + 1];
      stump.v_lo = lo.threshold > 0.5 ? 1.0 : 0.0;
      stump.v_hi = hi.threshold > 0.5 ? 1.0 : 0.0;
      is_stump_[m] = 1;
      ++n_stumps_;
    }
  }
}

void FlatForestEngine::save_blob(io::AlignedWriter& out) const {
  // Counts first, then each array on a 64-byte file offset — the arena
  // and its side tables are served straight out of the mapping.
  out.write_pod(static_cast<std::uint64_t>(n_features_));
  out.write_pod(static_cast<std::uint64_t>(nodes_.size()));
  out.write_pod(static_cast<std::uint64_t>(roots_.size()));
  out.pad_to(64);
  out.write_span(nodes_.data(), nodes_.size());
  out.pad_to(64);
  out.write_span(leaf_entropy_.data(), leaf_entropy_.size());
  out.pad_to(64);
  out.write_span(roots_.data(), roots_.size());
}

namespace {

/// Geometry caps at load. 2^26 16-byte nodes is a 1 GiB model, far above
/// any real ensemble — a corrupt length field must throw, not produce an
/// absurd view (ByteReader's bounds check would also catch it).
constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 26;
constexpr std::uint64_t kMaxFeatures = std::uint64_t{1} << 24;

/// Rows a general-tree walk moves through the arena together.
constexpr std::size_t kWalkLanes = 8;

/// One lockstep step of the general-tree walk: every lane at an internal
/// node descends (`left + !(x <= t)`, so NaN goes right), every lane at a
/// leaf stays put. Returns whether any lane was at an internal node, so
/// a false return means every lane sat at its leaf before the step.
inline bool step_lanes(const FlatForestEngine::Node* nodes, const double* xt,
                       const std::size_t (&row)[kWalkLanes],
                       std::int32_t (&idx)[kWalkLanes]) {
  bool any = false;
  for (std::size_t l = 0; l < kWalkLanes; ++l) {
    const FlatForestEngine::Node node = nodes[idx[l]];
    const bool internal = node.feature >= 0;
    const auto feature =
        static_cast<std::size_t>(internal ? node.feature : 0);
    const std::int32_t next =
        node.left +
        !(xt[feature * FlatForestEngine::kTileRows + row[l]] <=
          node.threshold);
    idx[l] = internal ? next : idx[l];
    any |= internal;
  }
  return any;
}

}  // namespace

void FlatForestEngine::validate_geometry(const std::string& context) const {
  if (roots_.empty() || leaf_entropy_.size() != nodes_.size())
    throw LoadError(LoadErrorCode::kBadStructure, context,
                    "inconsistent flat-forest geometry");
  const auto n_nodes = static_cast<std::int32_t>(nodes_.size());
  // Structural validation so a corrupt arena can never be *traversed*
  // wrong: feature indices stay inside the input row, and child links
  // point strictly forward (the BFS re-layout guarantees this), which
  // also guarantees every walk terminates. It runs on every load: a valid
  // checksum proves the bytes intact, not that their writer was sane.
  for (std::int32_t i = 0; i < n_nodes; ++i) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    if (node.feature < 0) continue;
    if (static_cast<std::uint64_t>(node.feature) >= n_features_)
      throw LoadError(LoadErrorCode::kBadStructure, context,
                      "out-of-range feature index");
    // `left >= n_nodes - 1` (not `left + 1 >= n_nodes`): a crafted arena
    // with left == INT32_MAX must be rejected, not signed-overflow UB.
    if (node.left <= i || node.left >= n_nodes - 1)
      throw LoadError(LoadErrorCode::kBadStructure, context,
                      "out-of-arena child index");
  }
  for (const std::int32_t root : roots_) {
    if (root < 0 || root >= n_nodes)
      throw LoadError(LoadErrorCode::kBadStructure, context,
                      "out-of-arena root index");
  }
}

std::unique_ptr<FlatForestEngine> FlatForestEngine::from_buffer(
    io::ByteReader& in, std::shared_ptr<const io::ArtifactBuffer> keepalive) {
  auto flat = std::make_unique<FlatForestEngine>();
  const auto n_features = in.read_pod<std::uint64_t>();
  const auto n_nodes = in.read_pod<std::uint64_t>();
  const auto n_roots = in.read_pod<std::uint64_t>();
  if (n_features == 0 || n_features > kMaxFeatures)
    throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                    "implausible flat-forest feature width " +
                        std::to_string(n_features));
  if (n_nodes == 0 || n_nodes > kMaxNodes || n_roots > n_nodes)
    throw LoadError(LoadErrorCode::kBadStructure, in.context(),
                    "implausible flat-forest geometry");
  flat->n_features_ = static_cast<std::size_t>(n_features);
  // Views straight into the artifact bytes — the zero-copy path. The
  // buffer keepalive pins the mapping for the engine's lifetime.
  in.align_to(64);
  flat->nodes_ = {in.view_span<Node>(n_nodes),
                  static_cast<std::size_t>(n_nodes)};
  in.align_to(64);
  flat->leaf_entropy_ = {in.view_span<double>(n_nodes),
                         static_cast<std::size_t>(n_nodes)};
  in.align_to(64);
  flat->roots_ = {in.view_span<std::int32_t>(n_roots),
                  static_cast<std::size_t>(n_roots)};
  flat->buffer_ = std::move(keepalive);
  flat->validate_geometry(in.context());
  flat->derive_stumps();
  flat->select_kernels();
  return flat;
}

template <bool kNeedPosterior, bool kNeedEntropy>
void FlatForestEngine::arena_kernel(const FlatForestEngine& self,
                                    const double* xt, std::size_t tile,
                                    double* votes, double* sum_p1,
                                    double* sum_entropy) {
  const Node* nodes = self.nodes_.data();
  const double* entropy = self.leaf_entropy_.data();

  // Tree-major: each tree's nodes stay hot while the whole tile reuses
  // them. Trees run in ascending member order and lanes are rows, so
  // per-sample accumulation order matches the reference path exactly.
  // Masked-out fields get no accumulate: a prediction-only request runs
  // the stump loop as one compare plus a single blend and add per row.
  for (std::size_t m = 0; m < self.roots_.size(); ++m) {
    if (self.is_stump_[m]) {
      const Stump stump = self.stumps_[m];
      const double* column =
          xt + static_cast<std::size_t>(stump.feature) * kTileRows;
      for (std::size_t r = 0; r < tile; ++r) {
        const bool hi = !(column[r] <= stump.threshold);  // NaN goes hi
        votes[r] += hi ? stump.v_hi : stump.v_lo;
        if constexpr (kNeedPosterior) sum_p1[r] += hi ? stump.p_hi : stump.p_lo;
        if constexpr (kNeedEntropy) sum_entropy[r] += hi ? stump.e_hi : stump.e_lo;
      }
      continue;
    }
    // General trees: kWalkLanes rows descend in lockstep, so their
    // dependent arena loads overlap instead of queueing behind one row's
    // chain. A step is branch-free for every lane; a lane already at a
    // leaf keeps its index by a select and reads column 0 (the leaf's
    // feature is -1). A partial group pads its idle lanes with its last
    // live row and never accumulates them.
    const std::int32_t root = self.roots_[m];
    for (std::size_t r0 = 0; r0 < tile; r0 += kWalkLanes) {
      const std::size_t live = std::min(kWalkLanes, tile - r0);
      std::size_t row[kWalkLanes];
      std::int32_t idx[kWalkLanes];
      for (std::size_t l = 0; l < kWalkLanes; ++l) {
        row[l] = r0 + std::min(l, live - 1);
        idx[l] = root;
      }
      bool internal = true;
      while (internal) {
        step_lanes(nodes, xt, row, idx);
        internal = step_lanes(nodes, xt, row, idx);
      }
      for (std::size_t l = 0; l < live; ++l) {
        const std::size_t r = r0 + l;
        const double p1 = nodes[idx[l]].threshold;
        votes[r] += p1 > 0.5 ? 1.0 : 0.0;
        if constexpr (kNeedPosterior) sum_p1[r] += p1;
        if constexpr (kNeedEntropy) sum_entropy[r] += entropy[idx[l]];
      }
    }
  }
}

void FlatForestEngine::jit_kernel(const FlatForestEngine& self,
                                  const double* xt, std::size_t tile,
                                  double* votes, double* sum_p1,
                                  double* sum_entropy) {
  self.jit_->kernel()(xt, tile, votes, sum_p1, sum_entropy);
}

void FlatForestEngine::select_kernels() {
  kernels_[0] = &arena_kernel<false, false>;
  kernels_[1] = &arena_kernel<true, false>;
  kernels_[2] = &arena_kernel<false, true>;
  kernels_[3] = &arena_kernel<true, true>;
  jit_.reset();
  if (!jit::should_compile(*this)) return;
  jit_ = jit::compile_forest(*this);
  if (jit_ == nullptr) return;  // fallback: interpreted rows stay
  for (BatchKernelFn& row : kernels_) row = &jit_kernel;
}

std::string FlatForestEngine::kernel_backend() const {
  if (jit_ != nullptr) return "jit";
  return zero_copy() ? "arena" : "stream-fallback";
}

std::size_t FlatForestEngine::jit_code_bytes() const {
  return jit_ != nullptr ? jit_->code_bytes() : 0;
}

void FlatForestEngine::stats_batch(const Matrix& x, ThreadPool* pool,
                                   std::vector<EnsembleStats>& out,
                                   StatsMask mask) const {
  HMD_REQUIRE(x.cols() == n_features_ || x.rows() == 0,
              "FlatForestEngine::stats_batch: feature width mismatch");
  out.assign(x.rows(), EnsembleStats{});
  const std::size_t n_tiles = (x.rows() + kTileRows - 1) / kTileRows;
  // Leaf posteriors/entropies are precomputed, so a masked-out field saves
  // only its blend + add — but on stump-heavy ensembles those are the bulk
  // of the per-row work, so the prediction-only specialisation is real.
  const bool posterior = (mask & kStatsPosterior) != 0;
  const bool entropy = (mask & kStatsEntropy) != 0;
  const BatchKernelFn kernel =
      kernels_[(posterior ? 1 : 0) | (entropy ? 2 : 0)];
  const std::size_t cols = x.cols();
  auto run_tiles = [&](std::size_t tile_begin, std::size_t tile_end) {
    // Per-thread scratch, kept across calls: the transposed tile at the
    // fixed kTileRows stride (feature c's column at xt + c * kTileRows — a
    // compile-time displacement for the JIT rows), then the three
    // struct-of-arrays accumulators. Only the live `tile` rows of each
    // are written and read. Votes accumulate as 0.0/1.0 doubles (exact
    // for any ensemble size) so every kernel stays in the FP domain end
    // to end.
    double* xt = thread_scratch((cols + 3) * kTileRows);
    double* votes = xt + cols * kTileRows;
    double* sum_p1 = votes + kTileRows;
    double* sum_entropy = sum_p1 + kTileRows;
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
      const std::size_t row_begin = t * kTileRows;
      const std::size_t row_end = std::min(x.rows(), row_begin + kTileRows);
      const std::size_t tile = row_end - row_begin;
      for (std::size_t r = 0; r < tile; ++r) {
        const double* row = x.row_ptr(row_begin + r);
        for (std::size_t c = 0; c < cols; ++c) xt[c * kTileRows + r] = row[c];
      }
      std::fill_n(votes, tile, 0.0);
      std::fill_n(sum_p1, tile, 0.0);
      std::fill_n(sum_entropy, tile, 0.0);
      kernel(*this, xt, tile, votes, sum_p1, sum_entropy);
      EnsembleStats* dst = out.data() + row_begin;
      for (std::size_t r = 0; r < tile; ++r) {
        dst[r].votes1 = static_cast<std::int32_t>(votes[r]);
        if (posterior) dst[r].sum_p1 = sum_p1[r];
        if (entropy) dst[r].sum_entropy = sum_entropy[r];
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
