// Fault injection: the artifact checksum defence, the registry's
// retry / backoff / quarantine state machine, and the failpoint seam
// itself. The structural theme: any single flipped bit in an artifact is
// rejected with LoadError{kChecksum} before any payload parsing, a
// hostile artifact with recomputed checksums is rejected with
// LoadError{kBadStructure} before it can be served, transient failures
// are retried and healed, persistent ones fail fast, and a registry
// under sustained failure degrades to its last good snapshot instead of
// crashing or serving wrong bytes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "datasets/io.h"
#include "jit/jit.h"
#include "test_support.h"

namespace hmd {
namespace {

using core::ModelKind;
using test::rejection_code;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("fault_tmp");
    path_ = (dir_ / "detector.hmdf").string();
  }
  void TearDown() override {
    fail::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  core::TrustedHmd train(ModelKind kind, int members = 10) {
    core::HmdConfig config;
    config.model = kind;
    config.n_members = members;
    config.n_threads = 1;
    config.seed = 9;
    core::TrustedHmd hmd(config);
    hmd.fit(test::small_dvfs().train);
    return hmd;
  }

  void flip_bit(const std::string& path, std::uint64_t byte, int bit) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(byte));
    char value = 0;
    f.read(&value, 1);
    f.seekp(static_cast<std::streamoff>(byte));
    value = static_cast<char>(value ^ (1 << bit));
    f.write(&value, 1);
  }

  template <typename T>
  T read_pod(std::uint64_t byte) {
    std::ifstream f(path_, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(byte));
    T value{};
    f.read(reinterpret_cast<char*>(&value), sizeof(value));
    EXPECT_TRUE(f.good()) << "read past end at byte " << byte;
    return value;
  }

  template <typename T>
  void write_pod(std::uint64_t byte, T value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(byte));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  /// A fast policy for tests: millisecond backoffs, no jitter variance
  /// worth waiting on.
  static api::RetryPolicy fast_policy(int max_attempts = 3,
                                      int quarantine_after = 3,
                                      int quarantine_ms = 100) {
    api::RetryPolicy policy;
    policy.max_attempts = max_attempts;
    policy.initial_backoff_ms = 1;
    policy.backoff_multiplier = 1;
    policy.max_backoff_ms = 1;
    policy.jitter = 0.0;
    policy.quarantine_after = quarantine_after;
    policy.quarantine_ms = quarantine_ms;
    return policy;
  }

  std::filesystem::path dir_;
  std::string path_;
};

// ---------------------------------------------------------------------------
// XXH64 reference vectors: the checksum the format stakes integrity on
// must match the published algorithm, not merely be self-consistent.

TEST(Xxhash64Test, MatchesPublishedVectors) {
  EXPECT_EQ(io::xxhash64(nullptr, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(io::xxhash64("abc", 3), 0x44BC2CF5AD770999ull);
  // > 32 bytes exercises the four-lane stripe loop.
  const std::string long_input =
      "xxHash is an extremely fast non-cryptographic hash algorithm";
  EXPECT_NE(io::xxhash64(long_input.data(), long_input.size()),
            io::xxhash64(long_input.data(), long_input.size() - 1));
  // Seed participates.
  EXPECT_NE(io::xxhash64("abc", 3, 1), io::xxhash64("abc", 3, 0));
}

// The streaming variant is what AlignedWriter hashes sections with as it
// writes (the in-stream checksum path); its digest must be bit-identical
// to the one-shot hash for any chunking of the same bytes, or saved
// checksums would not match what the load-time verifier computes.
TEST(Xxhash64StreamTest, AnyChunkingMatchesOneShot) {
  std::vector<unsigned char> bytes(4096 + 31);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;  // cheap deterministic fill
  for (auto& b : bytes) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(state >> 56);
  }
  for (const std::size_t total : {0ul, 1ul, 31ul, 32ul, 33ul, 63ul, 64ul,
                                  100ul, 1000ul, bytes.size()}) {
    const std::uint64_t expected = io::xxhash64(bytes.data(), total);
    for (const std::size_t chunk : {1ul, 3ul, 7ul, 32ul, 33ul, 64ul, 997ul}) {
      io::Xxhash64Stream stream;
      for (std::size_t at = 0; at < total; at += chunk) {
        stream.update(bytes.data() + at, std::min(chunk, total - at));
      }
      EXPECT_EQ(stream.digest(), expected)
          << "total=" << total << " chunk=" << chunk;
    }
  }
}

TEST(Xxhash64StreamTest, SeedAndResetBehaveLikeOneShot) {
  const char* text = "stream me";
  io::Xxhash64Stream seeded(42);
  seeded.update(text, 9);
  EXPECT_EQ(seeded.digest(), io::xxhash64(text, 9, 42));
  // digest() is non-destructive: more updates keep accumulating.
  seeded.update(text, 9);
  io::Xxhash64Stream twice(42);
  twice.update(text, 9);
  twice.update(text, 9);
  EXPECT_EQ(seeded.digest(), twice.digest());
  seeded.reset(42);
  EXPECT_EQ(seeded.digest(), io::xxhash64(nullptr, 0, 42));
}

// ---------------------------------------------------------------------------
// inspect_model: the section table the fuzz sweep (and hmd_faultgen)
// steers by.

TEST_F(FaultInjectionTest, InspectReportsVerifiableSectionTable) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  const core::ArtifactInfo info = core::inspect_model(path_);
  EXPECT_EQ(info.version, core::kModelFormatVersion);
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path_));
  ASSERT_EQ(info.sections.size(), 3u);
  EXPECT_EQ(info.sections[0].name, "config");
  EXPECT_EQ(info.sections[1].name, "scaler");
  EXPECT_EQ(info.sections[2].name, "engine");

  // Every advertised checksum matches a fresh hash of the bytes it spans.
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes(info.file_bytes);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  for (const auto& section : info.sections) {
    SCOPED_TRACE(section.name);
    EXPECT_GT(section.size, 0u);
    EXPECT_LE(section.offset + section.size, info.file_bytes);
    EXPECT_EQ(io::xxhash64(bytes.data() + section.offset, section.size),
              section.checksum);
  }
}

TEST_F(FaultInjectionTest, InspectHandlesV1AndChecksumlessFiles) {
  // inspect_model rejects a retired header exactly as load_model does —
  // one header parser serves both — so neither a v1 version word nor a
  // pre-checksum flags word (bit 0 clear) is ever described or loaded.
  const auto expect_bad_version = [&](const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(rejection_code(path_), LoadErrorCode::kBadVersion);
    try {
      core::inspect_model(path_);
      ADD_FAILURE() << "header inspected cleanly";
    } catch (const LoadError& error) {
      EXPECT_EQ(error.code(), LoadErrorCode::kBadVersion);
    }
  };
  core::save_model(train(ModelKind::kBaggedLogistic), path_);
  // Rewrite the version to 1 (2 ^ 0b11).
  flip_bit(path_, 4, 0);
  flip_bit(path_, 4, 1);
  expect_bad_version("v1 header");

  core::save_model(train(ModelKind::kBaggedLogistic), path_);
  flip_bit(path_, 12, 0);  // flags bit 0: the section-checksum flag
  expect_bad_version("checksum-less flags");
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: a single bit flip anywhere in any section of
// any model kind's artifact is rejected as a checksum mismatch — never
// parsed, never misread, never served.

TEST_F(FaultInjectionTest, AnySingleBitFlipInAnySectionIsRejected) {
  for (const auto kind : {ModelKind::kRandomForest, ModelKind::kBaggedLogistic,
                          ModelKind::kBaggedSvm}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    core::save_model(train(kind), path_);
    const core::ArtifactInfo info = core::inspect_model(path_);
    for (const auto& section : info.sections) {
      // First, middle, and last byte of the section; a different bit
      // index per probe so both low and high bits are covered.
      const std::uint64_t probes[3] = {0, section.size / 2, section.size - 1};
      const int bits[3] = {0, 3, 7};
      for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE(section.name + " byte " + std::to_string(probes[i]) +
                     " bit " + std::to_string(bits[i]));
        flip_bit(path_, section.offset + probes[i], bits[i]);
        EXPECT_EQ(rejection_code(path_), LoadErrorCode::kChecksum);
        flip_bit(path_, section.offset + probes[i], bits[i]);  // restore
      }
    }
    // Restored bit-exact: the artifact loads again.
    EXPECT_NO_THROW(core::load_model(path_));
  }
}

TEST_F(FaultInjectionTest, HeaderAndTableBitFlipsAreRejectedTyped) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  // Bytes 8..96 cover section_count, flags, the table, and the header
  // hash itself. A flip anywhere in there must surface as *some* typed
  // LoadError (usually kChecksum via the header hash; kBadStructure /
  // kBadVersion for count/flags, which are checked first) — never a
  // clean load, never an untyped crash. Magic/version flips (bytes 0..8)
  // are already pinned by ModelArtifactTest.
  for (std::uint64_t byte = 8; byte < 96; byte += 7) {
    SCOPED_TRACE("byte " + std::to_string(byte));
    flip_bit(path_, byte, 2);
    try {
      core::load_model(path_);
      ADD_FAILURE() << "header flip at byte " << byte << " loaded cleanly";
    } catch (const LoadError&) {
      // typed — good
    }
    flip_bit(path_, byte, 2);  // restore
  }
  EXPECT_NO_THROW(core::load_model(path_));
}

// The unresealed counterparts of ModelArtifactTest's structural
// rejections: the same corruptions that the structural checks reject as
// kBadStructure once resealed are caught earlier — and cheaper — as
// kChecksum when the checksums are left stale.

TEST_F(FaultInjectionTest, ChecksummedArtifactCatchesStructuralCorruption) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  const core::ArtifactInfo info = core::inspect_model(path_);

  // Unknown engine tag (the u32 opening the engine section).
  flip_bit(path_, info.sections[2].offset, 6);
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kChecksum);
  flip_bit(path_, info.sections[2].offset, 6);

  // Corrupt forest feature width.
  flip_bit(path_, info.sections[2].offset + 4, 0);
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kChecksum);
  flip_bit(path_, info.sections[2].offset + 4, 0);

  // A doctored section table entry trips the header hash.
  flip_bit(path_, 16 + 2, 0);  // config offset, low bytes
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kChecksum);
}

// A writer who controls the file can recompute every checksum (the
// threat model in core/model_artifact.h). Each hostile arena or config
// below is corrupted and then resealed, so only the structural checks
// stand between it and the traversal: every one must be rejected as
// kBadStructure under every LoadMode, JIT on and off — never loaded,
// never walked out of bounds or forever.
TEST_F(FaultInjectionTest, ResealedCorruptArtifactIsRejected) {
  using Node = core::FlatForestEngine::Node;
  core::save_model(train(ModelKind::kRandomForest), path_);
  const std::string pristine = (dir_ / "pristine.hmdf").string();
  std::filesystem::copy_file(path_, pristine);
  const auto restore = [&] {
    std::filesystem::copy_file(
        pristine, path_, std::filesystem::copy_options::overwrite_existing);
  };

  const core::ArtifactInfo info = core::inspect_model(path_);
  const std::uint64_t config = info.sections[0].offset;
  const std::uint64_t engine = info.sections[2].offset;
  // Forest blob after the u32 engine id: u64 n_features | u64 n_nodes |
  // u64 n_roots, then the node arena on the next 64-byte boundary.
  const auto n_features = read_pod<std::uint64_t>(engine + 4);
  const auto n_nodes = read_pod<std::uint64_t>(engine + 12);
  const std::uint64_t arena = (engine + 4 + 3 * 8 + 63) / 64 * 64;
  const auto node_at = [&](std::uint64_t i) {
    return arena + i * sizeof(Node);
  };
  std::uint64_t internal = 0;
  while (internal < n_nodes &&
         read_pod<std::int32_t>(node_at(internal) + offsetof(Node, feature)) <
             0) {
    ++internal;
  }
  ASSERT_LT(internal, n_nodes) << "forest has no internal node";
  const std::uint64_t feature = node_at(internal) + offsetof(Node, feature);
  const std::uint64_t left = node_at(internal) + offsetof(Node, left);
  const auto n_members = read_pod<std::int32_t>(config + 4);

  const std::pair<const char*, std::function<void()>> cases[] = {
      {"feature >= n_features",
       [&] { write_pod(feature, static_cast<std::int32_t>(n_features)); }},
      {"child link to its own node",
       [&] { write_pod(left, static_cast<std::int32_t>(internal)); }},
      {"left >= n_nodes - 1",
       [&] { write_pod(left, static_cast<std::int32_t>(n_nodes - 1)); }},
      {"config n_members + 1",
       [&] { write_pod(config + 4, n_members + 1); }},
      {"config entropy_threshold < 0",
       [&] { write_pod(config + 12, -1.0); }},
  };
  // Restores the process-wide JIT policy however the test exits.
  const struct PolicyGuard {
    jit::Policy saved = jit::policy();
    ~PolicyGuard() { jit::set_policy(saved); }
  } guard;
  for (const auto& [name, corrupt] : cases) {
    SCOPED_TRACE(name);
    restore();
    corrupt();
    test::reseal(path_);
    for (const jit::Policy policy : {jit::Policy::kOn, jit::Policy::kOff}) {
      SCOPED_TRACE(policy == jit::Policy::kOn ? "jit on" : "jit off");
      jit::set_policy(policy);
      for (const auto mode : test::kLoadModes) {
        EXPECT_EQ(rejection_code(path_, mode), LoadErrorCode::kBadStructure);
      }
    }
  }
  // The pristine artifact, resealed unchanged, still loads either way.
  restore();
  test::reseal(path_);
  for (const jit::Policy policy : {jit::Policy::kOn, jit::Policy::kOff}) {
    jit::set_policy(policy);
    EXPECT_NO_THROW(core::load_model(path_, 1));
  }
}

TEST_F(FaultInjectionTest, TruncationBehindValidHeaderIsTyped) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  const auto full = std::filesystem::file_size(path_);
  // Cut inside the engine section: header and table still valid, so the
  // bounds check fires first — kTruncated, the transient code a registry
  // retries (the writer may still be mid-publish).
  std::filesystem::resize_file(path_, full - 32);
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kTruncated);
  // Cut inside the checksummed header itself: kTruncated too (the header
  // cannot even be read whole).
  std::filesystem::resize_file(path_, 50);
  EXPECT_EQ(rejection_code(path_), LoadErrorCode::kTruncated);
}

// ---------------------------------------------------------------------------
// Dataset bundle caches share the taxonomy.

TEST_F(FaultInjectionTest, BundleCacheRejectionsAreTyped) {
  const std::string stem = (dir_ / "bundle").string();
  const std::string path = data::bundle_path(stem);

  const auto code_of = [&](const char* when) {
    try {
      data::load_bundle("b", stem);
      ADD_FAILURE() << "bundle loaded cleanly: " << when;
    } catch (const LoadError& error) {
      return error.code();
    }
    return LoadErrorCode::kIo;
  };

  EXPECT_EQ(code_of("missing"), LoadErrorCode::kIo);

  data::save_bundle(test::small_dvfs(), stem);
  EXPECT_NO_THROW(data::load_bundle("b", stem));

  flip_bit(path, 1, 0);  // magic
  EXPECT_EQ(code_of("bad magic"), LoadErrorCode::kBadMagic);
  flip_bit(path, 1, 0);

  flip_bit(path, 4, 5);  // version
  EXPECT_EQ(code_of("bad version"), LoadErrorCode::kBadVersion);
  flip_bit(path, 4, 5);

  flip_bit(path, 8, 4);  // split count
  EXPECT_EQ(code_of("split count"), LoadErrorCode::kBadStructure);
  flip_bit(path, 8, 4);

  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_EQ(code_of("torn"), LoadErrorCode::kTruncated);
  std::filesystem::resize_file(path, 6);
  EXPECT_EQ(code_of("header cut"), LoadErrorCode::kTruncated);
}

// ---------------------------------------------------------------------------
// The failpoint seam itself.

TEST(FailpointTest, ArmFireDisarmAndCounts) {
  fail::disarm_all();
  EXPECT_FALSE(fail::armed_any());
  EXPECT_NO_THROW(fail::detail::point("site.a", "ctx"));  // disarmed: no-op

  fail::Spec spec;
  spec.action = fail::Spec::Action::kError;
  spec.code = LoadErrorCode::kChecksum;
  spec.count = 2;
  fail::arm("site.a", spec);
  EXPECT_TRUE(fail::armed_any());

  for (int hit = 0; hit < 2; ++hit) {
    try {
      fail::detail::point("site.a", "/some/path");
      ADD_FAILURE() << "armed failpoint did not throw";
    } catch (const LoadError& error) {
      EXPECT_EQ(error.code(), LoadErrorCode::kChecksum);
      EXPECT_EQ(error.path(), "/some/path");
    }
  }
  // Count exhausted: the third hit passes through.
  EXPECT_NO_THROW(fail::detail::point("site.a", "ctx"));
  EXPECT_EQ(fail::hit_count("site.a"), 2);

  // Unarmed sites are unaffected; disarm clears the arming but keeps the
  // counter until re-armed.
  EXPECT_NO_THROW(fail::detail::point("site.b", "ctx"));
  fail::disarm("site.a");
  EXPECT_EQ(fail::hit_count("site.a"), 2);
  fail::disarm_all();
}

TEST(FailpointTest, EnvParsingArmsSitesAndSkipsMalformed) {
  fail::disarm_all();
  ::setenv("HMD_FAILPOINTS_TEST",
           "a.site=error:checksum:1;b.site=delay:1;junk;c=error:nope", 1);
  // Two well-formed entries; "junk" and the unknown code are skipped.
  EXPECT_EQ(fail::arm_from_env("HMD_FAILPOINTS_TEST"), 2u);
  EXPECT_THROW(fail::detail::point("a.site", "x"), LoadError);
  EXPECT_NO_THROW(fail::detail::point("a.site", "x"));  // count=1 spent
  EXPECT_NO_THROW(fail::detail::point("b.site", "x"));  // delay, not error
  EXPECT_EQ(fail::hit_count("b.site"), 1);
  ::unsetenv("HMD_FAILPOINTS_TEST");
  fail::disarm_all();

  EXPECT_EQ(fail::arm_from_env("HMD_FAILPOINTS_UNSET"), 0u);
  EXPECT_FALSE(fail::armed_any());
}

// ---------------------------------------------------------------------------
// Registry resilience: retry, fail-fast, quarantine, fallback.

TEST_F(FaultInjectionTest, TransientErrorsAreRetriedWithinOneGet) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  api::DetectorRegistry registry(1);
  registry.add("model", path_);
  registry.set_retry_policy(fast_policy());

  // First two attempts hit a transient error; the third succeeds — all
  // inside one get().
  fail::Spec spec;
  spec.code = LoadErrorCode::kIo;
  spec.count = 2;
  fail::arm("registry.load", spec);

  const auto hmd = registry.get("model");
  ASSERT_NE(hmd, nullptr);
  EXPECT_EQ(fail::hit_count("registry.load"), 2);

  const auto health = registry.health("model");
  EXPECT_EQ(health.state, api::HealthState::kHealthy);
  EXPECT_TRUE(health.loaded);
  EXPECT_EQ(health.loads_ok, 1u);
  EXPECT_EQ(health.loads_failed, 0u);
  EXPECT_EQ(health.retries, 2u);
  EXPECT_EQ(health.consecutive_failures, 0);
}

TEST_F(FaultInjectionTest, PersistentErrorsFailFastWithoutRetry) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  api::DetectorRegistry registry(1);
  registry.add("model", path_);
  registry.set_retry_policy(fast_policy());

  fail::Spec spec;
  spec.code = LoadErrorCode::kChecksum;
  spec.count = 0;  // every hit
  fail::arm("registry.load", spec);

  try {
    registry.get("model");
    FAIL() << "corrupt load did not throw";
  } catch (const LoadError& error) {
    EXPECT_EQ(error.code(), LoadErrorCode::kChecksum);
  }
  // One attempt, no retries: the bytes are wrong, re-reading cannot help.
  EXPECT_EQ(fail::hit_count("registry.load"), 1);
  const auto health = registry.health("model");
  EXPECT_EQ(health.state, api::HealthState::kDegraded);
  EXPECT_FALSE(health.loaded);
  EXPECT_EQ(health.loads_failed, 1u);
  EXPECT_EQ(health.last_error_code, LoadErrorCode::kChecksum);
  EXPECT_FALSE(health.last_error.empty());
}

TEST_F(FaultInjectionTest, MmapFailureFallsBackToStreamLoad) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  api::DetectorRegistry registry(1, core::LoadMode::kMmap);
  registry.add("model", path_);

  fail::Spec spec;
  spec.code = LoadErrorCode::kMmapFailed;
  fail::arm("mmap.map", spec);

  // The mmap attempt fails; the registry demotes to a stream load rather
  // than failing the model.
  const auto hmd = registry.get("model");
  ASSERT_NE(hmd, nullptr);
  EXPECT_FALSE(hmd->engine().zero_copy());
  EXPECT_GE(fail::hit_count("mmap.map"), 1);
  EXPECT_EQ(registry.health("model").state, api::HealthState::kHealthy);

  fail::disarm_all();
  // With the fault gone, a refresh after republish maps again.
  core::save_model(train(ModelKind::kBaggedSvm, 5), path_);
  ASSERT_EQ(registry.refresh(), std::vector<std::string>{"model"});
  EXPECT_TRUE(registry.get("model")->engine().zero_copy());
}

TEST_F(FaultInjectionTest, QuarantineOpensAfterConsecutiveFailuresAndReprobes) {
  core::save_model(train(ModelKind::kRandomForest), path_);
  api::DetectorRegistry registry(1);
  registry.add("model", path_);
  registry.set_retry_policy(
      fast_policy(/*max_attempts=*/1, /*quarantine_after=*/2,
                  /*quarantine_ms=*/150));

  int loader_calls = 0;
  bool loader_fails = true;
  registry.set_loader_for_testing(
      [&](const std::string& path, int n_threads) {
        ++loader_calls;
        if (loader_fails) {
          throw LoadError(LoadErrorCode::kChecksum, path, "injected");
        }
        return std::make_shared<const core::TrustedHmd>(
            core::load_model(path, n_threads));
      });

  // Two failing operations arm the quarantine.
  EXPECT_THROW(registry.get("model"), LoadError);
  EXPECT_EQ(registry.health("model").state, api::HealthState::kDegraded);
  EXPECT_THROW(registry.get("model"), LoadError);
  EXPECT_EQ(registry.health("model").state, api::HealthState::kQuarantined);
  EXPECT_EQ(loader_calls, 2);

  // Inside the TTL: get() fails fast on the cached error — no I/O, no
  // loader call — and refresh() skips the entry.
  try {
    registry.get("model");
    FAIL() << "quarantined get did not throw";
  } catch (const LoadError& error) {
    EXPECT_EQ(error.code(), LoadErrorCode::kChecksum);
    EXPECT_NE(error.detail().find("quarantined"), std::string::npos);
  }
  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_EQ(loader_calls, 2);

  // TTL expiry: exactly one re-probe, which heals the entry.
  loader_fails = false;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto hmd = registry.get("model");
  ASSERT_NE(hmd, nullptr);
  EXPECT_EQ(loader_calls, 3);
  const auto health = registry.health("model");
  EXPECT_EQ(health.state, api::HealthState::kHealthy);
  EXPECT_EQ(health.consecutive_failures, 0);
  EXPECT_EQ(health.loads_failed, 2u);
}

TEST_F(FaultInjectionTest, TornPublishKeepsLastGoodSnapshotServing) {
  core::save_model(train(ModelKind::kRandomForest, 5), path_);
  api::DetectorRegistry registry(1);
  registry.add("model", path_);
  registry.set_retry_policy(fast_policy(/*max_attempts=*/2));
  const auto before = registry.get("model");
  ASSERT_NE(before, nullptr);

  // A foreign writer tears the publish: the file is half-written under
  // the real name (save_model's rename never does this; a naive copy
  // does). refresh() sees a changed file, fails to load it — kTruncated,
  // retried, still torn — and keeps the old snapshot serving.
  core::save_model(train(ModelKind::kBaggedSvm, 9), path_);
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full / 2);

  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_EQ(registry.get("model").get(), before.get());
  const auto degraded = registry.health("model");
  EXPECT_EQ(degraded.state, api::HealthState::kDegraded);
  EXPECT_TRUE(degraded.loaded);  // still serving (the old snapshot)
  EXPECT_EQ(degraded.last_error_code, LoadErrorCode::kTruncated);
  EXPECT_GE(degraded.retries, 1u);  // transient: it was worth retrying

  // The writer completes (a real atomic publish this time): the next
  // refresh swaps in the new model and the entry heals.
  core::save_model(train(ModelKind::kBaggedSvm, 9), path_);
  ASSERT_EQ(registry.refresh(), std::vector<std::string>{"model"});
  const auto after = registry.get("model");
  EXPECT_EQ(after->config().model, ModelKind::kBaggedSvm);
  EXPECT_EQ(after->config().n_members, 9);
  EXPECT_EQ(registry.health("model").state, api::HealthState::kHealthy);
  // The pre-corruption snapshot is still alive and bit-stable.
  EXPECT_EQ(before->config().n_members, 5);
}

TEST_F(FaultInjectionTest, BitFlippedReplacementNeverGetsServed) {
  core::save_model(train(ModelKind::kRandomForest, 5), path_);
  api::DetectorRegistry registry(1);
  registry.add("model", path_);
  registry.set_retry_policy(fast_policy(/*max_attempts=*/1,
                                        /*quarantine_after=*/0));
  const auto before = registry.get("model");
  const auto& x = test::small_dvfs().test.X;
  const api::ScoreResult want = test::score(*before, x);

  // Republish with one flipped engine bit. The checksum rejects it
  // (persistent: no retry), the old snapshot keeps serving identical
  // outputs.
  core::save_model(train(ModelKind::kBaggedSvm, 9), path_);
  const core::ArtifactInfo info = core::inspect_model(path_);
  flip_bit(path_, info.sections[2].offset + info.sections[2].size / 2, 1);

  EXPECT_TRUE(registry.refresh().empty());
  const auto still = registry.get("model");
  EXPECT_EQ(still.get(), before.get());
  EXPECT_TRUE(api::bit_identical(test::score(*still, x), want));
  EXPECT_EQ(registry.health("model").last_error_code,
            LoadErrorCode::kChecksum);

  // quarantine_after=0 disables quarantine: every refresh re-probes, so
  // a repaired publish is picked up immediately.
  core::save_model(train(ModelKind::kBaggedSvm, 9), path_);
  ASSERT_EQ(registry.refresh(), std::vector<std::string>{"model"});
  EXPECT_EQ(registry.get("model")->config().n_members, 9);
}

TEST_F(FaultInjectionTest, HealthListsEveryKeySorted) {
  core::save_model(train(ModelKind::kRandomForest, 3),
                   (dir_ / "b.hmdf").string());
  core::save_model(train(ModelKind::kBaggedLogistic, 3),
                   (dir_ / "a.hmdf").string());
  api::DetectorRegistry registry(1);
  registry.add_directory(dir_.string());

  const auto all = registry.health();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].key, "a");
  EXPECT_EQ(all[1].key, "b");
  // Never-loaded keys are healthy-but-unloaded, with zeroed counters.
  for (const auto& h : all) {
    EXPECT_EQ(h.state, api::HealthState::kHealthy);
    EXPECT_FALSE(h.loaded);
    EXPECT_EQ(h.loads_ok, 0u);
  }
  EXPECT_THROW(registry.health("absent"), IoError);
}

}  // namespace
}  // namespace hmd
