// Model artifact (.hmdf): a saved detector must reload as a serving-only
// detector — no ml::Bagging on the path — scoring every output column
// bit-identically; corrupt, truncated, or version-mismatched
// artifacts must be rejected loudly, never misread — with the same
// LoadErrorCode whichever LoadMode materialises the bytes. The zero-copy
// layout adds: mmap-loaded and buffer-read engines are bit-identical to
// each other and to the trained detector, and misaligned or out-of-range
// section offsets are rejected.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "test_support.h"

namespace {

using namespace hmd;

class ModelArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("test_model_tmp");
    path_ = (dir_ / "detector.hmdf").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Overwrite one byte of the artifact at `offset`.
  void corrupt_byte(std::uintmax_t offset, char value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&value, 1);
  }

  /// Read a little-endian u64 at `offset` (section-table spelunking).
  std::uint64_t read_u64(std::uintmax_t offset) {
    std::ifstream f(path_, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    std::uint64_t value = 0;
    f.read(reinterpret_cast<char*>(&value), sizeof(value));
    return value;
  }

  /// Overwrite a little-endian u64 at `offset`.
  void write_u64(std::uintmax_t offset, std::uint64_t value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }

  /// Byte offset of section `index`'s table entry (0 config, 1 scaler,
  /// 2 engine): 24-byte entries {offset, size, xxh64} from byte 16 — the
  /// tests never hard-code section positions, only the documented table.
  static std::uintmax_t table_entry(int index) {
    return 16 + static_cast<std::uintmax_t>(index) * 24;
  }

  /// File offset of section `index`, read from its table entry.
  std::uint64_t section_offset(int index) {
    return read_u64(table_entry(index));
  }

  /// Every LoadMode rejects the artifact with `expected`.
  void expect_rejected(LoadErrorCode expected) {
    for (const auto mode : test::kLoadModes) {
      EXPECT_EQ(test::rejection_code(path_, mode), expected);
    }
  }

  core::TrustedHmd train(core::ModelKind kind, int members = 25) {
    core::HmdConfig config;
    config.model = kind;
    config.n_members = members;
    config.seed = 9;
    core::TrustedHmd hmd(config);
    hmd.fit(test::small_dvfs().train);
    return hmd;
  }

  std::filesystem::path dir_;
  std::string path_;
};

void expect_bit_identical_outputs(const core::TrustedHmd& trained,
                                  const core::TrustedHmd& served,
                                  const Matrix& x) {
  EXPECT_TRUE(
      api::bit_identical(test::score(served, x), test::score(trained, x)));
}

TEST_F(ModelArtifactTest, RoundTripIsBitIdenticalForEveryModelKind) {
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    const core::TrustedHmd trained = train(kind);
    core::save_model(trained, path_);

    const core::TrustedHmd served = core::load_model(path_);
    // The load path reconstructs the engine directly from the blob: no
    // reference ensemble (and no training objects) exist behind it.
    EXPECT_FALSE(served.has_ensemble());
    EXPECT_THROW(served.ensemble(), InvalidArgument);
    EXPECT_EQ(served.config().n_members, trained.config().n_members);
    EXPECT_EQ(served.config().model, trained.config().model);
    EXPECT_EQ(served.converged_fraction(), trained.converged_fraction());

    expect_bit_identical_outputs(trained, served, test::small_dvfs().test.X);
    expect_bit_identical_outputs(trained, served,
                                 test::small_dvfs().unknown.X);
  }
}

TEST_F(ModelArtifactTest, HpcBundleRoundTripsToo) {
  core::HmdConfig config;
  config.model = core::ModelKind::kBaggedLogistic;
  config.n_members = 15;
  core::TrustedHmd trained(config);
  trained.fit(test::small_hpc().train);
  core::save_model(trained, path_);
  const core::TrustedHmd served = core::load_model(path_);
  expect_bit_identical_outputs(trained, served, test::small_hpc().test.X);
}

TEST_F(ModelArtifactTest, ServingDetectorCannotBeRefit) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  core::TrustedHmd served = core::load_model(path_);
  EXPECT_THROW(served.fit(test::small_dvfs().train), InvalidArgument);
}

TEST_F(ModelArtifactTest, MissingArtifactLooksAbsentAndThrows) {
  for (const auto mode : test::kLoadModes) {
    EXPECT_EQ(test::rejection_code(path_, mode), LoadErrorCode::kIo);
  }
}

TEST_F(ModelArtifactTest, BadMagicIsRejectedNotMisread) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  corrupt_byte(0, 'X');
  for (const auto mode : test::kLoadModes) {
    EXPECT_EQ(test::rejection_code(path_, mode), LoadErrorCode::kBadMagic);
  }
}

TEST_F(ModelArtifactTest, VersionMismatchIsRejectedNotMisread) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // The u32 version sits right after the 4-byte magic. A future (or
  // corrupt) version, and the retired v1 stream layout, must be rejected
  // rather than misread as the current layout.
  for (const std::uint32_t version : {core::kModelFormatVersion + 1, 1u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    corrupt_byte(4, static_cast<char>(version));
    for (const auto mode : test::kLoadModes) {
      EXPECT_EQ(test::rejection_code(path_, mode),
                LoadErrorCode::kBadVersion);
    }
  }
}

// The three structural-rejection tests below corrupt a saved artifact
// and then reseal it (test::reseal recomputes every checksum), so the
// corruption gets past the integrity sweep — unresealed, it would be
// caught earlier as LoadError{kChecksum}, as test_fault_injection.cpp
// pins down — and must be rejected by the structural checks alone.

TEST_F(ModelArtifactTest, UnknownEngineTagIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // The engine id is the u32 opening the engine section (table entry 2).
  corrupt_byte(section_offset(2), 0x7e);
  test::reseal(path_);
  expect_rejected(LoadErrorCode::kBadStructure);
}

TEST_F(ModelArtifactTest, CorruptForestFeatureWidthIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // The forest blob's u64 feature width follows the engine-id u32.
  // Zeroing its low byte makes the width implausible; the loader must
  // throw rather than hand the traversal an arena it could misindex.
  corrupt_byte(section_offset(2) + 4, 0);
  test::reseal(path_);
  expect_rejected(LoadErrorCode::kBadStructure);
}

TEST_F(ModelArtifactTest, MisalignedSectionOffsetIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // Nudge the *config* section's table entry off its 64-byte boundary.
  // The config section is followed by alignment padding, so offset+4 and
  // its size stay comfortably in bounds — only the alignment check can
  // reject it, which is exactly what this test pins down.
  const std::uint64_t config_offset = section_offset(0);
  write_u64(table_entry(0), config_offset + 4);
  test::reseal(path_);
  expect_rejected(LoadErrorCode::kBadStructure);
  write_u64(table_entry(0), config_offset);  // restore
  test::reseal(path_);
  EXPECT_NO_THROW(core::load_model(path_));

  // An out-of-bounds offset (aligned or not) is rejected by the bounds
  // check. inspect_model rejects this table too, so only the header hash
  // is resealed: the bytes behind it are untouched.
  write_u64(table_entry(2), std::uint64_t{1} << 40);
  test::reseal_header(path_);
  expect_rejected(LoadErrorCode::kTruncated);
}

TEST_F(ModelArtifactTest, TruncatedSectionTableIsRejected) {
  core::save_model(train(core::ModelKind::kRandomForest), path_);
  // Chop the file inside the header (16 + 3×24 + 8 = 96 bytes): the
  // header still advertises an artifact, but parsing the table must
  // throw, never read past the mapping.
  for (const std::uintmax_t keep : {60, 40, 17}) {
    std::filesystem::resize_file(path_, keep);
    EXPECT_THROW(core::load_model(path_), IoError) << "kept " << keep;
  }
}

TEST_F(ModelArtifactTest, MmapAndStreamLoadsAreBitIdentical) {
  // The zero-copy acceptance gate: for every ModelKind at M ∈ {1, 5,
  // 100}, an mmap-loaded engine and a full-copy-loaded engine emit
  // outputs bit-identical to the trained detector (and therefore to each
  // other) on both bundles' feature distributions.
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    for (const int members : {1, 5, 100}) {
      SCOPED_TRACE(core::model_kind_name(kind) + " M=" +
                   std::to_string(members));
      const core::TrustedHmd trained = train(kind, members);
      core::save_model(trained, path_);

      const core::TrustedHmd mapped =
          core::load_model(path_, 0, core::LoadMode::kMmap);
      const core::TrustedHmd copied =
          core::load_model(path_, 0, core::LoadMode::kStream);
      EXPECT_TRUE(mapped.engine().zero_copy());
      EXPECT_FALSE(copied.engine().zero_copy());

      expect_bit_identical_outputs(trained, mapped,
                                   test::small_dvfs().test.X);
      expect_bit_identical_outputs(trained, copied,
                                   test::small_dvfs().test.X);
      expect_bit_identical_outputs(trained, mapped,
                                   test::small_dvfs().unknown.X);
    }
  }
}

TEST_F(ModelArtifactTest, MmapRoundTripsOnHpcBundleToo) {
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    for (const int members : {1, 5, 100}) {
      SCOPED_TRACE(core::model_kind_name(kind) + " M=" +
                   std::to_string(members));
      core::HmdConfig config;
      config.model = kind;
      config.n_members = members;
      config.seed = 9;
      core::TrustedHmd trained(config);
      trained.fit(test::small_hpc().train);
      core::save_model(trained, path_);
      const core::TrustedHmd mapped =
          core::load_model(path_, 0, core::LoadMode::kMmap);
      expect_bit_identical_outputs(trained, mapped, test::small_hpc().test.X);
    }
  }
}

TEST_F(ModelArtifactTest, MappedDetectorSurvivesRenamePublishedSwap) {
  // The hot-swap guarantee at the mapping level: a detector serving from
  // a mapped artifact keeps emitting the *old* model's outputs, bit for
  // bit, after save_model rename-publishes a different model over the
  // same path — the old inode stays alive under the mapping.
  const core::TrustedHmd first = train(core::ModelKind::kRandomForest, 25);
  core::save_model(first, path_);
  const core::TrustedHmd mapped =
      core::load_model(path_, 0, core::LoadMode::kMmap);
  ASSERT_TRUE(mapped.engine().zero_copy());

  core::save_model(train(core::ModelKind::kBaggedSvm, 7), path_);
  expect_bit_identical_outputs(first, mapped, test::small_dvfs().test.X);

  // And the path now serves the replacement.
  const core::TrustedHmd swapped =
      core::load_model(path_, 0, core::LoadMode::kMmap);
  EXPECT_EQ(swapped.config().model, core::ModelKind::kBaggedSvm);
  EXPECT_EQ(swapped.config().n_members, 7);
}

TEST_F(ModelArtifactTest, ServedDetectorRejectsWrongWidthInputs) {
  // A DVFS-trained detector (14 features) must refuse HPC rows (8
  // features) instead of reading out of bounds — every engine, every
  // mask (prediction-only takes the narrowest kernels).
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic,
        core::ModelKind::kBaggedSvm}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    core::save_model(train(kind, 5), path_);
    const core::TrustedHmd served = core::load_model(path_);
    for (const api::OutputMask mask :
         {api::kPredictionOnly, test::kAllOutputs}) {
      EXPECT_THROW(test::score(served, test::small_hpc().test.X, mask),
                   InvalidArgument);
    }
  }
}

TEST_F(ModelArtifactTest, TruncatedArtifactThrowsEverywhere) {
  for (const auto kind :
       {core::ModelKind::kRandomForest, core::ModelKind::kBaggedLogistic}) {
    SCOPED_TRACE(core::model_kind_name(kind));
    const core::TrustedHmd trained = train(kind, 10);
    core::save_model(trained, path_);
    const auto full = std::filesystem::file_size(path_);
    // Chop the file at several depths: inside the engine blob, inside the
    // scaler/config, just past the header, inside the 8-byte magic and
    // version, and to nothing at all. Every cut is kTruncated, whichever
    // way the bytes are materialised.
    for (const auto keep : {full - 4, full / 2, full / 4, std::uintmax_t{16},
                            std::uintmax_t{7}, std::uintmax_t{0}}) {
      std::filesystem::resize_file(path_, keep);
      for (const auto mode : test::kLoadModes) {
        EXPECT_EQ(test::rejection_code(path_, mode),
                  LoadErrorCode::kTruncated)
            << "kept " << keep;
      }
      core::save_model(trained, path_);  // restore for next cut
    }
  }
}

}  // namespace
