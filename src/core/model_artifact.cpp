#include "core/model_artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/mapped_file.h"
#include "core/flat_forest.h"
#include "core/flat_linear.h"

namespace hmd::core {

namespace {

constexpr char kMagic[4] = {'H', 'M', 'D', 'F'};
constexpr std::uint32_t kSectionCount = 3;  // config | scaler | engine
constexpr std::uint64_t kSectionTableOffset = 16;
constexpr std::size_t kSectionAlignment = 64;
const char* const kSectionNames[kSectionCount] = {"config", "scaler",
                                                 "engine"};

/// One section-table entry, stored raw as 24 bytes.
struct SectionEntry {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 24,
              "table entries are streamed raw");

/// Byte offset of the header hash: right after the section table. The
/// hash covers bytes [0, kHeaderHashOffset).
constexpr std::uint64_t kHeaderHashOffset =
    kSectionTableOffset + kSectionCount * sizeof(SectionEntry);
/// Total header region (hash included).
constexpr std::uint64_t kHeaderBytes = kHeaderHashOffset + 8;

std::string hex_u64(std::uint64_t value) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// fsync the file (or directory) at `path`; throws IoError on failure so
/// a save that could not be made durable is never reported as done.
void fsync_path(const std::string& path, bool directory) {
  const int flags =
      O_RDONLY | O_CLOEXEC | (directory ? O_DIRECTORY : 0);
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    throw IoError("save_model: cannot open for fsync: " + path + ": " +
                  std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw IoError("save_model: fsync failed for " + path + ": " +
                  std::strerror(errno));
  }
}

HmdConfig read_config(io::ByteReader& in, const std::string& path,
                      int n_threads, double& converged_fraction) {
  HmdConfig config;
  const auto model_kind = in.read_pod<std::uint32_t>();
  const auto n_members = in.read_pod<std::int32_t>();
  const auto mode = in.read_pod<std::uint32_t>();
  const auto entropy_threshold = in.read_pod<double>();
  config.seed = in.read_pod<std::uint64_t>();
  const auto min_leaf = in.read_pod<std::int32_t>();
  const auto max_depth = in.read_pod<std::int32_t>();
  converged_fraction = in.read_pod<double>();
  if (model_kind > static_cast<std::uint32_t>(ModelKind::kBaggedSvm))
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "unknown model kind " + std::to_string(model_kind));
  if (mode > static_cast<std::uint32_t>(UncertaintyMode::kMaxProbability))
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "unknown uncertainty mode " + std::to_string(mode));
  if (n_members < 1)
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "implausible member count " + std::to_string(n_members));
  if (!(entropy_threshold >= 0.0))  // NaN included
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "implausible entropy threshold " +
                        std::to_string(entropy_threshold));
  config.model = static_cast<ModelKind>(model_kind);
  config.n_members = n_members;
  config.mode = static_cast<UncertaintyMode>(mode);
  config.entropy_threshold = entropy_threshold;
  config.tree_min_samples_leaf = min_leaf;
  config.tree_max_depth = max_depth;
  config.n_threads = n_threads;
  return config;
}

void write_config(io::AlignedWriter& out, const HmdConfig& config,
                  double converged_fraction) {
  out.write_pod(static_cast<std::uint32_t>(config.model));
  out.write_pod(static_cast<std::int32_t>(config.n_members));
  out.write_pod(static_cast<std::uint32_t>(config.mode));
  out.write_pod(config.entropy_threshold);
  out.write_pod(config.seed);
  out.write_pod(static_cast<std::int32_t>(config.tree_min_samples_leaf));
  out.write_pod(static_cast<std::int32_t>(config.tree_max_depth));
  out.write_pod(converged_fraction);
}

/// The zero-copy layout (contract in model_artifact.h): header +
/// section table, then 64-byte-aligned config / scaler / engine sections.
/// Offsets, sizes, and checksums are patched in once known. Section
/// hashes are computed *in-stream* by the AlignedWriter as the bytes go
/// out (begin_hash/end_hash around each section), so the save never
/// re-reads the temp file — one write pass, one seekp to patch the
/// finished header.
void write_artifact(std::ostream& out, const UntrustedHmd& hmd) {
  const InferenceEngine& engine = hmd.engine();
  io::AlignedWriter writer(out);
  writer.write_span(kMagic, sizeof(kMagic));
  writer.write_pod(kModelFormatVersion);
  writer.write_pod(kSectionCount);
  writer.write_pod(kArtifactFlagSectionChecksums);
  // Placeholder section table and header hash, patched below once
  // offsets are known.
  SectionEntry sections[kSectionCount] = {};
  writer.write_span(sections, kSectionCount);
  writer.write_pod(std::uint64_t{0});  // header hash placeholder

  // Pad to the section boundary *before* begin_hash so the hash covers
  // exactly [entry.offset, entry.offset + entry.size) — the same bytes
  // the load-path verifier sweeps.
  const auto begin_section = [&](SectionEntry& entry) {
    writer.pad_to(kSectionAlignment);
    entry.offset = writer.offset();
    writer.begin_hash();
  };
  const auto end_section = [&](SectionEntry& entry) {
    entry.size = writer.offset() - entry.offset;
    entry.checksum = writer.end_hash();
  };

  begin_section(sections[0]);
  write_config(writer, hmd.config(), hmd.converged_fraction());
  end_section(sections[0]);

  begin_section(sections[1]);
  const ml::StandardScaler& scaler = hmd.input_scaler();
  const std::uint8_t has_scaler = scaler.fitted() ? 1 : 0;
  writer.write_pod(has_scaler);
  if (has_scaler) {
    writer.write_pod(static_cast<std::uint64_t>(scaler.means().size()));
    writer.pad_to(kSectionAlignment);
    writer.write_span(scaler.means().data(), scaler.means().size());
    writer.pad_to(kSectionAlignment);
    writer.write_span(scaler.scales().data(), scaler.scales().size());
  }
  end_section(sections[1]);

  begin_section(sections[2]);
  writer.write_pod(static_cast<std::uint32_t>(engine.engine_id()));
  engine.save_blob(writer);
  end_section(sections[2]);

  // Assemble the finished 96-byte header in memory so the header hash
  // can cover the *patched* table, then write table + hash in one go.
  // Bytes [0, kSectionTableOffset) are identical to what streamed out
  // above.
  unsigned char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  std::memcpy(header + 4, &kModelFormatVersion, 4);
  std::memcpy(header + 8, &kSectionCount, 4);
  std::memcpy(header + 12, &kArtifactFlagSectionChecksums, 4);
  std::memcpy(header + kSectionTableOffset, sections, sizeof(sections));
  const std::uint64_t header_hash = io::xxhash64(header, kHeaderHashOffset);
  std::memcpy(header + kHeaderHashOffset, &header_hash, sizeof(header_hash));
  out.seekp(static_cast<std::streamoff>(kSectionTableOffset));
  out.write(reinterpret_cast<const char*>(header + kSectionTableOffset),
            static_cast<std::streamsize>(kHeaderBytes - kSectionTableOffset));
}

/// The one parser of an artifact's fixed header and section table,
/// shared by load_model and inspect_model: magic, version, section count,
/// flags, the table, and every section inside the file. `verify` adds the
/// integrity sweep that only load_model runs (inspect_model must still
/// describe damaged files): the header hash, checked before the bounds
/// because it vouches for the table they read, and then every section
/// hash.
ArtifactInfo parse_header(const io::ArtifactBuffer& buffer,
                          const std::string& path, bool verify) {
  if (buffer.size() < 8) {
    throw LoadError(LoadErrorCode::kTruncated, path,
                    "file shorter than the 8-byte artifact header");
  }
  io::ByteReader in(buffer.data(), buffer.size(), path);
  if (std::memcmp(in.view_span<char>(sizeof(kMagic)), kMagic,
                  sizeof(kMagic)) != 0) {
    throw LoadError(LoadErrorCode::kBadMagic, path,
                    "bad magic (not a .hmdf artifact)");
  }
  ArtifactInfo info;
  info.version = in.read_pod<std::uint32_t>();
  if (info.version != kModelFormatVersion) {
    throw LoadError(LoadErrorCode::kBadVersion, path,
                    "unsupported format version " +
                        std::to_string(info.version) + " (expected " +
                        std::to_string(kModelFormatVersion) + ")");
  }
  const auto section_count = in.read_pod<std::uint32_t>();
  const auto flags = in.read_pod<std::uint32_t>();
  if (section_count != kSectionCount) {
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "bad section count " + std::to_string(section_count));
  }
  // Exactly bit 0: a pre-checksum file (flags 0) is as unsupported as a
  // v1 one, and any other bit was set by a newer writer.
  if (flags != kArtifactFlagSectionChecksums) {
    throw LoadError(LoadErrorCode::kBadVersion, path,
                    "unsupported header flags " + hex_u64(flags) +
                        " (expected " +
                        hex_u64(kArtifactFlagSectionChecksums) + ")");
  }
  info.file_bytes = buffer.size();
  info.sections.resize(kSectionCount);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    ArtifactSectionInfo& section = info.sections[i];
    section.name = kSectionNames[i];
    section.offset = in.read_pod<std::uint64_t>();
    section.size = in.read_pod<std::uint64_t>();
    section.checksum = in.read_pod<std::uint64_t>();
  }
  const auto stored = in.read_pod<std::uint64_t>();
  if (verify) {
    const std::uint64_t actual = io::xxhash64(buffer.data(), kHeaderHashOffset);
    if (actual != stored) {
      throw LoadError(LoadErrorCode::kChecksum, path,
                      "header checksum mismatch (expected " +
                          hex_u64(stored) + ", got " + hex_u64(actual) + ")");
    }
  }
  for (const ArtifactSectionInfo& section : info.sections) {
    if (section.offset + section.size < section.offset ||  // u64 overflow
        section.offset + section.size > info.file_bytes) {
      throw LoadError(LoadErrorCode::kTruncated, path,
                      "section '" + section.name + "' ends at byte " +
                          std::to_string(section.offset + section.size) +
                          ", past end of file (" +
                          std::to_string(info.file_bytes) + " bytes)");
    }
  }
  if (verify) {
    for (const ArtifactSectionInfo& section : info.sections) {
      const std::uint64_t actual =
          io::xxhash64(buffer.data() + section.offset,
                       static_cast<std::size_t>(section.size));
      if (actual != section.checksum) {
        throw LoadError(LoadErrorCode::kChecksum, path,
                        "section '" + section.name +
                            "' checksum mismatch (expected " +
                            hex_u64(section.checksum) + ", got " +
                            hex_u64(actual) + ")");
      }
    }
  }
  return info;
}

/// Parse an artifact in place over `buffer` (mapped or heap-read; the
/// engines keep views into it either way). parse_header verifies every
/// checksum *before* any payload parsing; the payload checks below then
/// run in full (the verify-then-walk contract in model_artifact.h).
TrustedHmd parse_artifact(std::shared_ptr<const io::ArtifactBuffer> buffer,
                          const std::string& path, int n_threads) {
  const ArtifactInfo info = parse_header(*buffer, path, /*verify=*/true);
  io::ByteReader in(buffer->data(), buffer->size(), path);

  in.seek(info.sections[0].offset, kSectionAlignment);
  double converged_fraction = 1.0;
  HmdConfig config = read_config(in, path, n_threads, converged_fraction);

  in.seek(info.sections[1].offset, kSectionAlignment);
  ml::StandardScaler scaler;
  if (in.read_pod<std::uint8_t>() != 0) {
    const auto d = in.read_pod<std::uint64_t>();
    if (d == 0 || d > (1u << 24))
      throw LoadError(LoadErrorCode::kBadStructure, path,
                      "implausible scaler width " + std::to_string(d));
    // The scaler moments are tiny (d doubles each); they are copied out
    // of the buffer rather than viewed, because StandardScaler owns its
    // vectors and the engines carry their own moments anyway.
    in.align_to(kSectionAlignment);
    const double* means = in.view_span<double>(d);
    in.align_to(kSectionAlignment);
    const double* scales = in.view_span<double>(d);
    scaler = ml::StandardScaler::from_moments(
        std::vector<double>(means, means + d),
        std::vector<double>(scales, scales + d));
  }

  in.seek(info.sections[2].offset, kSectionAlignment);
  const auto engine_id = in.read_pod<std::uint32_t>();
  std::unique_ptr<InferenceEngine> engine;
  switch (static_cast<EngineId>(engine_id)) {
    case EngineId::kFlatForest:
      engine = FlatForestEngine::from_buffer(in, buffer);
      break;
    case EngineId::kFlatLinear:
      engine = FlatLinearEngine::from_buffer(in, buffer);
      break;
    default:
      throw LoadError(LoadErrorCode::kBadStructure, path,
                      "unknown engine id " + std::to_string(engine_id));
  }
  if (engine->n_members() != static_cast<std::size_t>(config.n_members)) {
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "engine has " + std::to_string(engine->n_members()) +
                        " members, config says " +
                        std::to_string(config.n_members));
  }

  return TrustedHmd(std::move(config), std::move(engine), std::move(scaler),
                    converged_fraction);
}

}  // namespace

void save_model(const UntrustedHmd& hmd, const std::string& path) {
  // engine() throws on an unfitted detector, before any file is touched.
  static_cast<void>(hmd.engine());
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path());
  }
  // Write to a sibling temp file and rename into place, so an interrupted
  // save never leaves a half-written artifact under the real name — and
  // so replacing a *served* artifact gives the new bytes a fresh inode,
  // leaving live mappings of the old version untouched.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("save_model: cannot open " + tmp_path);
    write_artifact(out, hmd);
    // Flush explicitly before the stream check: the destructor's implicit
    // flush swallows errors, and a short tail lost to ENOSPC here would
    // otherwise be fsynced and renamed over the good artifact below.
    out.flush();
    if (!out) throw IoError("save_model: write failed for " + tmp_path);
  }
  // Durability before visibility: flush the temp file's bytes to stable
  // storage *before* the rename publishes them, then flush the directory
  // entry itself — a crash at any point leaves either the complete old
  // artifact or the complete new one, never a torn file for refresh().
  fsync_path(tmp_path, /*directory=*/false);
  std::filesystem::rename(tmp_path, path);
  fsync_path(fs_path.has_parent_path() ? fs_path.parent_path().string()
                                       : std::string("."),
             /*directory=*/true);
}

TrustedHmd load_model(const std::string& path, int n_threads, LoadMode mode) {
  // Armed with error:io (etc.) this simulates the whole artifact tier
  // failing — the seam the registry's retry/quarantine tests drive.
  HMD_FAILPOINT("artifact.load", path.c_str());
  auto buffer = std::make_shared<const io::ArtifactBuffer>([&] {
    switch (mode) {
      case LoadMode::kMmap:
        return io::ArtifactBuffer::map_file(path);
      case LoadMode::kStream:
        return io::ArtifactBuffer::read_file(path);
      case LoadMode::kAuto:
        break;
    }
    return io::ArtifactBuffer::map_or_read(path);
  }());
  return parse_artifact(std::move(buffer), path, n_threads);
}

ArtifactInfo inspect_model(const std::string& path) {
  return parse_header(io::ArtifactBuffer::map_or_read(path), path,
                      /*verify=*/false);
}

}  // namespace hmd::core
