#pragma once
// Tree-to-native JIT: compile a loaded FlatForestEngine's arena into a
// straight-line x86-64 batch kernel with thresholds, leaf posteriors,
// entropies and votes baked in as constants.
//
// A compiled ForestProgram holds one entry point in a sealed CodeBuffer:
// the full-estimate kernel, which accumulates votes, leaf posteriors and
// leaf entropies — every field the online uncertainty estimate reads.
// Every StatsMask shape runs through it; the engine copies out only the
// fields a request asked for. The kernel has the engine's uniform
// batch-kernel signature: a column-major tile transposed at the fixed
// FlatForestEngine::kTileRows stride (so every feature column lives at a
// compile-time displacement), the live row count, and the three
// accumulator arrays, all of which it writes.
//
// Codegen strategy (mirrors the interpreter so results stay
// bit-identical — asserted by the JitParity test suite):
//   depth<=1 trees  fused compare+blend straight-line sequence: one
//                   cmpsd(LE) mask + andpd/andnpd/orpd select per
//                   payload, all scalar-double and branch-free. NaN
//                   compares false and therefore selects the hi leaf,
//                   exactly like the interpreter's !(x <= t).
//   deeper trees    compare/branch chains: ucomisd threshold-vs-sample
//                   with jb taken iff t < x or unordered (NaN descends
//                   right), leaves accumulate their constants and jump
//                   to the row epilogue.
// Trees are emitted in ascending member order with a per-tree row loop,
// so per-sample accumulation order matches the interpreter exactly and
// IEEE addition makes every partial sum bit-identical.
//
// Availability and gating:
//   compile-time  x86-64 + POSIX mmap only; -DHMD_NO_JIT compiles the
//                 backend out entirely (available() is then false and
//                 compile_forest() returns nullptr).
//   run-time      a three-state Policy (HMD_JIT env var / the serving
//                 tools' --jit flag / set_policy()): kOn compiles every
//                 eligible forest; kOff and the default kAuto compile
//                 none. The interpreter walks deep trees eight rows at a
//                 time (core/flat_forest.h), overlapping their dependent
//                 arena loads, and on distinct rows that matches the
//                 native compare/branch chains, whose every split is a
//                 data-dependent branch the predictor cannot learn. Its
//                 stump loop vectorises across rows, which scalar
//                 straight-line code cannot outrun either. So under kAuto
//                 a compile would only add its cost to every cold load,
//                 reload and re-publish; kOn keeps the backend for
//                 forcing and for the JitParity suite.
//                 compile_forest() also declines absurd inputs (feature
//                 displacement overflow, oversized arenas) so callers
//                 fall back to the interpreted arena with zero behavior
//                 change.
//
// Thread-safety: the enable flag is atomic; ForestProgram is immutable
// after compile_forest() returns, so concurrent kernel calls need no
// synchronisation. Compilation itself runs wherever the engine is
// constructed — on the registry path that is inside the per-entry load
// mutex, off the registry-wide lock, so a slow compile of one key never
// blocks another key's get().

#include <cstddef>
#include <memory>

#include "jit/code_buffer.h"

#if defined(__x86_64__) && !defined(HMD_NO_JIT) && \
    (defined(__unix__) || defined(__APPLE__))
#define HMD_JIT_SUPPORTED 1
#else
#define HMD_JIT_SUPPORTED 0
#endif

namespace hmd::core {
class FlatForestEngine;
}  // namespace hmd::core

namespace hmd::jit {

/// Compiled into the build and running on a JIT-capable target?
bool available();

/// When to compile a loaded forest to native code.
enum class Policy {
  kAuto,  ///< interpret every forest — default
  kOn,    ///< compile every eligible forest (forcing, parity checks)
  kOff,   ///< never compile; interpreted arena everywhere
};

/// The process-wide policy. Defaults from the HMD_JIT environment
/// variable (on / off / auto; unset = auto) and is overridden by the
/// serving tools' --jit flag via set_policy(). Affects engines loaded
/// after the call, never ones already constructed. Atomic — safe to
/// read from concurrent loads.
Policy policy();
void set_policy(Policy p);

/// Should this forest be compiled under the current policy? True only
/// under kOn on a target where available(); kAuto and kOff interpret.
bool should_compile(const core::FlatForestEngine& forest);

/// The native batch kernel for one forest.
class ForestProgram {
 public:
  /// xt is the tile transposed at the fixed kTileRows stride; votes /
  /// sum_p1 / sum_entropy are dense accumulators of `tile` doubles, all
  /// valid and all accumulated into.
  using KernelFn = void (*)(const double* xt, std::size_t tile,
                            double* votes, double* sum_p1,
                            double* sum_entropy);

  KernelFn kernel() const { return kernel_; }
  std::size_t code_bytes() const { return code_.size(); }

 private:
  friend std::unique_ptr<ForestProgram> compile_forest(
      const core::FlatForestEngine& forest);

  CodeBuffer code_;
  KernelFn kernel_ = nullptr;
};

/// Compile `forest`'s arena into its native kernel. Returns nullptr when
/// the JIT is unavailable, the forest exceeds the generator's limits, or
/// emission fails for any reason — the caller keeps the interpreted
/// kernels. Does NOT consult should_compile(): policy belongs to the
/// caller.
std::unique_ptr<ForestProgram> compile_forest(
    const core::FlatForestEngine& forest);

}  // namespace hmd::jit
