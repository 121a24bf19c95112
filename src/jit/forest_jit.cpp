#include "jit/jit.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/flat_forest.h"
#include "jit/x64_emitter.h"

namespace hmd::jit {

namespace {

Policy env_default_policy() {
  const char* env = std::getenv("HMD_JIT");
  if (env == nullptr) return Policy::kAuto;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "off" || v == "0" || v == "false" || v == "no") return Policy::kOff;
  if (v == "on" || v == "1" || v == "true" || v == "yes") return Policy::kOn;
  return Policy::kAuto;
}

std::atomic<Policy>& policy_flag() {
  static std::atomic<Policy> flag{env_default_policy()};
  return flag;
}

}  // namespace

bool available() { return HMD_JIT_SUPPORTED != 0; }

Policy policy() { return policy_flag().load(std::memory_order_relaxed); }

void set_policy(Policy p) {
  policy_flag().store(p, std::memory_order_relaxed);
}

bool should_compile(const core::FlatForestEngine& forest) {
  if (!available()) return false;
  switch (policy()) {
    case Policy::kOff:
      return false;
    case Policy::kOn:
      return true;
    case Policy::kAuto:
      break;
  }
  // Profitability: per row, a stump costs the interpreter ~1 vectorised
  // compare+blend step, while a deep tree costs one dependent arena load
  // per level — the case native compare/branch chains win (measured
  // 1.4-1.7x). Compile only when deep-tree node work dwarfs the stump
  // count; a stump-table forest stays on the interpreter's SIMD loop.
  const std::size_t stump_trees = forest.n_stumps();
  const std::size_t stump_nodes = stump_trees * 3;  // upper bound
  const std::size_t deep_nodes =
      forest.n_nodes() > stump_nodes ? forest.n_nodes() - stump_nodes : 0;
  return deep_nodes >= 64 * stump_trees;
}

#if HMD_JIT_SUPPORTED

namespace {

using core::FlatForestEngine;
using Node = FlatForestEngine::Node;

/// Generator limits. Arenas past the size cap would emit tens of MB of
/// code — interpret those instead. The displacement cap keeps
/// feature-column offsets inside a disp32.
constexpr std::size_t kMaxJitNodes = std::size_t{1} << 18;
constexpr std::int64_t kMaxDisp = 0x7FFFFFFF;

/// Worst-case emitted bytes per arena node, from the X64Emitter
/// encodings. A leaf in a branch chain is three constant accumulates
/// (movsd const 8 + movsd load 9 + addsd 4 + movsd store 9 = 30 bytes
/// each) and its 5-byte jmp; an internal node is movsd const 8 +
/// ucomisd 9 + jb 6. A stump's 18-byte mask and three 54-byte blends fit
/// inside its three nodes' bounds. Each tree adds its row loop (xor 3,
/// cmp 3, jae 6, inc 3, jmp 5), and the pool 8 bytes per slot plus its
/// alignment pad.
constexpr std::size_t kMaxLeafBytes = 3 * 30 + 5;
constexpr std::size_t kMaxBranchBytes = 8 + 9 + 6;
constexpr std::size_t kMaxTreeLoopBytes = 3 + 3 + 6 + 3 + 5;
constexpr std::size_t kPoolSlotBytes = 8;

struct TreeCompiler {
  X64Emitter& e;
  std::span<const Node> nodes;
  std::span<const double> leaf_entropy;
  /// Pool slots interned once up front: node_slot[i] is
  /// nodes[i].threshold — the split threshold for internal nodes, the
  /// leaf posterior for leaves; ent_slot[i] is leaf_entropy[i]; one_slot
  /// is the 1.0 malware-vote increment.
  std::span<const std::size_t> node_slot;
  std::span<const std::size_t> ent_slot;
  std::size_t one_slot;
  std::size_t zero_slot;
  /// Nodes emitted so far across the whole kernel — a defensive bound so
  /// a pathological arena fails compilation instead of blowing up. The
  /// load-time walk proves every link forward and in-arena, not that no
  /// two parents share a child, and a shared-subtree DAG expands
  /// exponentially when emitted as a tree.
  std::size_t budget;
  bool ok = true;

  /// acc[r9] += constant. Operand order matches the interpreter's
  /// `acc += c` (acc + c). A zero constant is skipped entirely: every
  /// accumulator is a sum of non-negative terms starting from +0.0, so
  /// adding +/-0.0 never changes its bit pattern — the skip is
  /// bit-identical to the interpreter's unconditional add, and on
  /// mostly-pure-leaf forests it shrinks the emitted code substantially.
  void emit_accumulate_const(Gpr acc_base, double c, std::size_t slot) {
    if (c == 0.0) return;
    e.movsd_load_const(0, slot);
    e.movsd_load_indexed(1, acc_base, 0);
    e.addsd(1, 0);
    e.movsd_store_indexed(1, acc_base, 0);
  }

  /// The three leaf accumulates, in the interpreter's order: vote,
  /// posterior, entropy.
  void emit_leaf_payloads(std::size_t i) {
    const double p1 = nodes[i].threshold;
    emit_accumulate_const(kRdx, p1 > 0.5 ? 1.0 : 0.0, one_slot);
    emit_accumulate_const(kRcx, p1, node_slot[i]);
    emit_accumulate_const(kR8, leaf_entropy[i], ent_slot[i]);
  }

  /// acc[r9] += mask ? lo : hi, where xmm0 holds the (x <= t) mask
  /// (all-ones selects lo — NaN compares false and takes hi, matching
  /// the interpreter's !(x <= t) hi select). Bit-exact blend via
  /// andpd/andnpd/orpd; xmm0 is preserved for the next payload. Equal
  /// payloads need no blend at all — the select is a constant either
  /// way — and collapse to the (zero-skipping) constant accumulate.
  void emit_blend_accumulate(Gpr acc_base, double lo, double hi,
                             std::size_t lo_slot, std::size_t hi_slot) {
    std::uint64_t lo_bits = 0, hi_bits = 0;
    std::memcpy(&lo_bits, &lo, 8);
    std::memcpy(&hi_bits, &hi, 8);
    if (lo_bits == hi_bits) {
      emit_accumulate_const(acc_base, lo, lo_slot);
      return;
    }
    e.movapd(1, 0);
    e.movsd_load_const(2, lo_slot);
    e.movsd_load_const(3, hi_slot);
    e.andpd(2, 1);
    e.andnpd(1, 3);
    e.orpd(2, 1);
    e.movsd_load_indexed(4, acc_base, 0);
    e.addsd(4, 2);
    e.movsd_store_indexed(4, acc_base, 0);
  }

  std::int32_t feature_disp(std::int32_t feature) {
    const std::int64_t disp = std::int64_t{feature} *
                              static_cast<std::int64_t>(
                                  FlatForestEngine::kTileRows * sizeof(double));
    if (disp < 0 || disp > kMaxDisp) {
      ok = false;
      return 0;
    }
    return static_cast<std::int32_t>(disp);
  }

  /// Branch-free depth<=1 body: one compare-to-mask, then a blend per
  /// payload. Falls through (no row-epilogue jump needed). The mask is
  /// only computed when at least one payload actually differs between
  /// the leaves; degenerate stumps reduce to constant adds.
  void emit_stump(std::size_t root_index) {
    const Node& root = nodes[root_index];
    const auto li = static_cast<std::size_t>(root.left);
    const Node& lo = nodes[li];
    const Node& hi = nodes[li + 1];
    struct Payload {
      Gpr base;
      double lo, hi;
      std::size_t lo_slot, hi_slot;
    };
    const Payload payloads[3] = {
        {kRdx, lo.threshold > 0.5 ? 1.0 : 0.0, hi.threshold > 0.5 ? 1.0 : 0.0,
         lo.threshold > 0.5 ? one_slot : zero_slot,
         hi.threshold > 0.5 ? one_slot : zero_slot},
        {kRcx, lo.threshold, hi.threshold, node_slot[li], node_slot[li + 1]},
        {kR8, leaf_entropy[li], leaf_entropy[li + 1], ent_slot[li],
         ent_slot[li + 1]},
    };
    bool needs_mask = false;
    for (const Payload& payload : payloads) {
      std::uint64_t a = 0, b = 0;
      std::memcpy(&a, &payload.lo, 8);
      std::memcpy(&b, &payload.hi, 8);
      needs_mask = needs_mask || a != b;
    }
    if (needs_mask) {
      e.movsd_load_indexed(0, kRdi, feature_disp(root.feature));
      e.cmpsd_const(0, node_slot[root_index], /*imm=LE*/ 2);
    }
    for (const Payload& payload : payloads) {
      emit_blend_accumulate(payload.base, payload.lo, payload.hi,
                            payload.lo_slot, payload.hi_slot);
    }
  }

  /// Is `left` a valid two-child slot (left and left+1 in the arena)?
  bool children_in_bounds(std::int32_t left) const {
    return left > 0 &&
           left < static_cast<std::int32_t>(nodes.size()) - 1;
  }

  /// Compare/branch chain for a general subtree. Every leaf jumps to the
  /// row epilogue.
  void emit_subtree(std::int32_t i, X64Emitter::Label row_next) {
    if (!ok || budget == 0) {
      ok = false;
      return;
    }
    --budget;
    const Node& node = nodes[static_cast<std::size_t>(i)];
    if (node.feature >= 0 && !children_in_bounds(node.left)) {
      ok = false;
      return;
    }
    if (node.feature < 0) {
      emit_leaf_payloads(static_cast<std::size_t>(i));
      e.jmp(row_next);
      return;
    }
    // ucomisd t, x sets CF iff t < x or unordered — exactly the
    // interpreter's "descend right" predicate !(x <= t), NaN included.
    e.movsd_load_const(0, node_slot[static_cast<std::size_t>(i)]);
    e.ucomisd_indexed(0, kRdi, feature_disp(node.feature));
    const X64Emitter::Label right = e.make_label();
    e.jb(right);
    emit_subtree(node.left, row_next);
    e.bind(right);
    emit_subtree(node.left + 1, row_next);
  }

  /// One tree: a row loop over the live tile, body chosen by tree depth.
  void emit_tree(std::int32_t root_index) {
    const Node& root = nodes[static_cast<std::size_t>(root_index)];
    if (root.feature < 0 && root.threshold == 0.0 &&
        leaf_entropy[static_cast<std::size_t>(root_index)] == 0.0) {
      // A single benign pure leaf contributes +0.0 to every accumulator
      // — nothing to emit (see emit_accumulate_const's zero-skip).
      return;
    }
    e.zero_r9();
    const X64Emitter::Label loop = e.make_label();
    const X64Emitter::Label done = e.make_label();
    const X64Emitter::Label row_next = e.make_label();
    e.bind(loop);
    e.cmp_r9_rsi();
    e.jae(done);
    if (root.feature >= 0 && !children_in_bounds(root.left)) {
      ok = false;
      return;
    }
    if (root.feature < 0) {
      // Single-leaf tree: unconditional constant accumulates.
      emit_leaf_payloads(static_cast<std::size_t>(root_index));
    } else if (nodes[static_cast<std::size_t>(root.left)].feature < 0 &&
               nodes[static_cast<std::size_t>(root.left) + 1].feature < 0) {
      emit_stump(static_cast<std::size_t>(root_index));
    } else {
      emit_subtree(root_index, row_next);
    }
    e.bind(row_next);
    e.inc_r9();
    e.jmp(loop);
    e.bind(done);
  }
};

}  // namespace

std::unique_ptr<ForestProgram> compile_forest(const FlatForestEngine& forest) {
  const auto nodes = forest.nodes_view();
  const auto roots = forest.roots_view();
  if (nodes.empty() || roots.empty() || nodes.size() > kMaxJitNodes)
    return nullptr;

  auto program = std::unique_ptr<ForestProgram>(new ForestProgram());
  // Map the code once at its upper bound so emission never remaps and
  // copies (see kMaxLeafBytes). An arena whose trees share nodes can
  // exceed the bound; the buffer then grows as usual.
  std::size_t code_bound = roots.size() * kMaxTreeLoopBytes + 1 +
                           kPoolSlotBytes * (nodes.size() * 2 + 3);
  for (const Node& node : nodes) {
    code_bound += node.feature < 0 ? kMaxLeafBytes : kMaxBranchBytes;
  }
  if (!program->code_.reserve(code_bound)) return nullptr;
  X64Emitter emitter(program->code_);
  // Fixup bounds: one jump per node (leaf jmp or branch jb) plus two per
  // row loop; <= 3 const references per node (a leaf's three payloads,
  // a stump's threshold and three blended pairs over its three nodes);
  // pool <= one distinct slot per node value and entropy plus 0/1.
  emitter.reserve(/*jumps=*/nodes.size() + 2 * roots.size(),
                  /*consts=*/nodes.size() * 3,
                  /*pool=*/nodes.size() * 2 + 2);
  // Intern every constant once up front, so emission reuses the slot ids
  // without touching the dedup hash again.
  const auto leaf_entropy = forest.leaf_entropy_view();
  const std::size_t one_slot = emitter.pool_const(1.0);
  const std::size_t zero_slot = emitter.pool_const(0.0);
  std::vector<std::size_t> node_slot(nodes.size());
  std::vector<std::size_t> ent_slot(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    node_slot[i] = emitter.pool_const(nodes[i].threshold);
    ent_slot[i] = emitter.pool_const(leaf_entropy[i]);
  }
  const std::size_t entry = emitter.offset();
  TreeCompiler compiler{emitter,   nodes,     leaf_entropy, node_slot,
                        ent_slot,  one_slot,  zero_slot,
                        /*budget=*/nodes.size() + 1};
  for (const std::int32_t root : roots) {
    compiler.emit_tree(root);
    if (!compiler.ok) return nullptr;
  }
  emitter.ret();
  if (!emitter.finish()) return nullptr;
  if (!program->code_.protect()) return nullptr;
  program->kernel_ = reinterpret_cast<ForestProgram::KernelFn>(
      const_cast<void*>(program->code_.entry(entry)));
  return program;
}

#else  // !HMD_JIT_SUPPORTED

std::unique_ptr<ForestProgram> compile_forest(const core::FlatForestEngine&) {
  return nullptr;
}

#endif

}  // namespace hmd::jit
