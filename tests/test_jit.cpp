// Unit and integration tests for the tree-to-native JIT backend
// (src/jit/): the executable CodeBuffer's W^X life cycle, the x86-64
// emitter's label/constant-pool fixups (asserted by executing a
// hand-emitted kernel), the three-state compile policy and its
// profitability heuristic, fallback-to-arena behaviour, the native code
// size against the arena, and — for the TSan job — concurrent first-get()
// compiles through the registry.
//
// Everything here is a no-op-but-green on targets where the JIT is
// compiled out (-DHMD_NO_JIT / non-x86-64): the availability-dependent
// assertions are gated on jit::available(), and the behavioural ones
// (fallback, policy bookkeeping, concurrency) hold either way.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "jit/code_buffer.h"
#include "jit/jit.h"
#include "jit/x64_emitter.h"
#include "test_support.h"

namespace {

using namespace hmd;

struct PolicyGuard {
  jit::Policy saved = jit::policy();
  ~PolicyGuard() { jit::set_policy(saved); }
};

/// "m<k>" built without operator+(const char*, string&&) — GCC 12's
/// -Wrestrict false-positives on that overload when it inlines into the
/// thread lambdas below, and CI compiles with -Werror.
std::string model_key(int k) {
  std::string key = "m";
  key += std::to_string(k);
  return key;
}

core::HmdConfig rf_config(int members) {
  core::HmdConfig config;
  config.model = core::ModelKind::kRandomForest;
  config.n_members = members;
  config.seed = 42;
  return config;
}

#if HMD_JIT_SUPPORTED

TEST(JitCodeBuffer, EmitProtectExecute) {
  jit::CodeBuffer code;
  code.put8(0xC3);  // ret
  ASSERT_TRUE(code.ok());
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<void (*)()>(
      const_cast<void*>(code.entry(0)));
  fn();  // returning at all is the assertion
}

TEST(JitCodeBuffer, GrowsPastInitialMappingAndStaysExecutable) {
  // Force several remap-and-copy growths (initial capacity is 64 KiB),
  // then prove the surviving bytes still execute end to end.
  jit::CodeBuffer code;
  constexpr std::size_t kNops = 300 * 1000;
  for (std::size_t i = 0; i < kNops; ++i) code.put8(0x90);  // nop sled
  code.put8(0xC3);                                          // ret
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.size(), kNops + 1);
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<void (*)()>(
      const_cast<void*>(code.entry(0)));
  fn();
}

TEST(JitCodeBuffer, AlignAndPatch) {
  jit::CodeBuffer code;
  code.put8(0x01);
  code.align_to(8);
  EXPECT_EQ(code.size() % 8, 0u);
  const std::size_t at = code.size();
  code.put32(0);
  code.patch32(at, 0xDEADBEEF);
  EXPECT_TRUE(code.ok());
}

TEST(JitCodeBuffer, MoveTransfersOwnership) {
  jit::CodeBuffer a;
  a.put8(0xC3);
  jit::CodeBuffer b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  ASSERT_TRUE(b.protect());
  reinterpret_cast<void (*)()>(const_cast<void*>(b.entry(0)))();
}

TEST(JitEmitter, PoolInternsByBitPattern) {
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  const std::size_t a = emitter.pool_const(1.5);
  const std::size_t b = emitter.pool_const(1.5);
  const std::size_t c = emitter.pool_const(2.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // +0.0 and -0.0 are different bit patterns and must not collapse (a
  // blended leaf payload of -0.0 vs +0.0 would select the wrong bits).
  EXPECT_NE(emitter.pool_const(0.0), emitter.pool_const(-0.0));
}

TEST(JitEmitter, HandEmittedRowLoopExecutes) {
  // The forest kernels' scaffolding in miniature: a row loop over r9
  // accumulating a pooled constant into votes[r9]. Executing it proves
  // label binding, rel32 patching, RIP-relative pool fixups, and the
  // SIB-indexed load/store encodings in one go.
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  const std::size_t entry_offset = emitter.offset();
  const std::size_t slot = emitter.pool_const(2.5);
  emitter.zero_r9();
  const jit::X64Emitter::Label loop = emitter.make_label();
  const jit::X64Emitter::Label done = emitter.make_label();
  emitter.bind(loop);
  emitter.cmp_r9_rsi();
  emitter.jae(done);
  emitter.movsd_load_const(0, slot);
  emitter.movsd_load_indexed(1, jit::kRdx, 0);
  emitter.addsd(1, 0);
  emitter.movsd_store_indexed(1, jit::kRdx, 0);
  emitter.inc_r9();
  emitter.jmp(loop);
  emitter.bind(done);
  emitter.ret();
  ASSERT_TRUE(emitter.finish());
  ASSERT_TRUE(code.protect());

  using KernelFn = void (*)(const double*, std::size_t, double*, double*,
                            double*);
  const auto fn = reinterpret_cast<KernelFn>(
      const_cast<void*>(code.entry(entry_offset)));
  std::vector<double> votes = {1.0, 0.0, -2.5, 10.0};
  fn(nullptr, votes.size(), votes.data(), nullptr, nullptr);
  EXPECT_EQ(votes, (std::vector<double>{3.5, 2.5, 0.0, 12.5}));
}

#endif  // HMD_JIT_SUPPORTED

TEST(JitPolicy, AvailableMatchesBuild) {
  EXPECT_EQ(jit::available(), HMD_JIT_SUPPORTED != 0);
}

TEST(JitPolicy, SetAndQueryRoundTrips) {
  const PolicyGuard guard;
  for (const auto p :
       {jit::Policy::kOn, jit::Policy::kOff, jit::Policy::kAuto}) {
    jit::set_policy(p);
    EXPECT_EQ(jit::policy(), p);
  }
}

TEST(JitPolicy, AutoDeclinesStumpForestsAndTakesDeepOnes) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kAuto);
  core::TrustedHmd stumpy(rf_config(100));
  stumpy.fit(test::small_dvfs().train);  // well-separated: mostly stumps
  core::TrustedHmd deep(rf_config(100));
  deep.fit(test::small_hpc().train);  // overlapping classes: deep trees
  EXPECT_FALSE(jit::should_compile(stumpy.flat_forest()));
  if (jit::available()) {
    EXPECT_TRUE(jit::should_compile(deep.flat_forest()));
    EXPECT_EQ(deep.engine().kernel_backend(), "jit");
  }
  // Off/on override the heuristic in both directions (on only where the
  // backend exists at all).
  jit::set_policy(jit::Policy::kOff);
  EXPECT_FALSE(jit::should_compile(deep.flat_forest()));
  jit::set_policy(jit::Policy::kOn);
  EXPECT_EQ(jit::should_compile(stumpy.flat_forest()), jit::available());
}

TEST(JitPolicy, OffPinsTheInterpretedArena) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  core::TrustedHmd hmd(rf_config(20));
  hmd.fit(test::small_hpc().train);
  // A freshly-trained engine owns its arrays on the heap, so the
  // interpreted backend reports as the copied-bytes flavour — the point
  // here is only that kOff never produces native code.
  EXPECT_EQ(hmd.engine().kernel_backend(), "stream-fallback");
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), 0u);
}

TEST(JitFallback, CompileForestHonoursAvailability) {
  core::TrustedHmd hmd(rf_config(10));
  hmd.fit(test::small_dvfs().train);
  const auto program = jit::compile_forest(hmd.flat_forest());
  if (jit::available()) {
    ASSERT_NE(program, nullptr);
    EXPECT_GT(program->code_bytes(), 0u);
    EXPECT_NE(program->kernel(), nullptr);
  } else {
    EXPECT_EQ(program, nullptr);
  }
}

TEST(JitCodeSize, NativeCodeStaysNearTheArena) {
  // One full-estimate kernel serves every StatsMask shape, so a deep
  // forest's native code stays within a small multiple of its resident
  // arena. A kernel per shape (four copies of the forest) measured about
  // 4.5x here.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOn);
  core::TrustedHmd hmd(rf_config(100));
  hmd.fit(test::small_hpc().train);
  const core::FlatForestEngine& forest = hmd.flat_forest();
  if (jit::available()) {
    EXPECT_GT(forest.jit_code_bytes(), 0u);
  }
  EXPECT_LE(forest.jit_code_bytes(), 2 * forest.memory_bytes());
}

TEST(JitConcurrency, ConcurrentFirstGetCompilesRaceClean) {
  // Several threads hit first-get() on several keys at once with the JIT
  // forced on: compiles run inside each entry's load mutex, off the
  // registry-wide lock. Every snapshot must score bit-identically to an
  // arena-loaded reference — and TSan must stay silent (this suite is in
  // the TSan CI filter).
  const PolicyGuard guard;
  const auto& bundle = test::small_hpc();
  const auto dir = test::unique_temp_dir("jit_concurrency");
  core::TrustedHmd trained(rf_config(20));
  trained.fit(bundle.train);
  constexpr int kKeys = 3;
  for (int k = 0; k < kKeys; ++k) {
    core::save_model(trained, (dir / (model_key(k) + ".hmdf")).string());
  }

  jit::set_policy(jit::Policy::kOff);
  const core::TrustedHmd reference =
      core::load_model((dir / "m0.hmdf").string(), /*n_threads=*/1);
  const api::ScoreResult expected = test::score(reference, bundle.test.X);

  jit::set_policy(jit::Policy::kOn);
  api::DetectorRegistry registry(/*n_threads=*/1);
  for (int k = 0; k < kKeys; ++k) {
    registry.add(model_key(k), (dir / (model_key(k) + ".hmdf")).string());
  }
  constexpr int kThreads = 6;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kKeys; ++k) {
          const auto hmd = registry.get(model_key(k % kKeys));
          if (!api::bit_identical(test::score(*hmd, bundle.test.X),
                                  expected)) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  for (int k = 0; k < kKeys; ++k) {
    const auto health = registry.health(model_key(k));
    EXPECT_EQ(health.kernel_backend,
              jit::available() ? "jit" : "arena");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
