#pragma once
// Versioned on-disk model artifact — the train-once / serve-many split.
//
// A `.hmdf` file holds everything a serving process needs and nothing the
// trainer used. One format is live: version 2, the zero-copy layout, with
// flags exactly bit 0 (section checksums). A file whose header names any
// other version — including the retired v1 stream layout — or any other
// flags word — including the retired pre-checksum layout, flags 0 — is
// rejected with LoadError{kBadVersion}, never misread.
//
// ## Layout
//
// All integers little-endian. Every section starts on a 64-byte file
// offset, and inside the engine section every large array is padded to a
// 64-byte file offset too. mmap returns a page-aligned base, so file-
// offset alignment == memory alignment: the node arena and the M×d weight
// matrices are directly usable in place, and a serving process's model
// residency cost is O(page faults actually touched), not O(bytes copied).
//
//   [ 0.. 4)  magic "HMDF"
//   [ 4.. 8)  u32 version = 2
//   [ 8..12)  u32 section_count = 3
//   [12..16)  u32 flags = 1 (kArtifactFlagSectionChecksums, mandatory)
//   [16..88)  section table: section_count × { u64 offset, u64 size,
//             u64 xxh64 } — the checksum is XXH64 (common/checksum.h,
//             seed 0) over the section's exact [offset, offset+size)
//             bytes, internal alignment padding included.
//   [88..96)  u64 header_xxh64: XXH64 over bytes [0, 88) — magic,
//             version, counts, flags, and the whole table — so a bit
//             flip in a stored offset/size/checksum is itself caught.
//
//   Sections in order: config, scaler, engine. Offsets are 64-byte
//   aligned and in-bounds; sizes are exact payload bytes (loaders reject
//   misaligned or out-of-range entries).
//
//   config section:
//     u32 model_kind | i32 n_members | u32 uncertainty_mode
//     f64 entropy_threshold | u64 seed | i32 tree_min_samples_leaf
//     i32 tree_max_depth | f64 converged_fraction
//   scaler section:
//     u8 has_scaler | [u64 d | align64 | f64 means[d] | align64 |
//     f64 scales[d]]
//   engine section:
//     u32 engine_id | engine blob (see the engine's save_blob):
//       flat_forest: u64 n_features | u64 n_nodes | u64 n_roots
//                    | align64 | Node nodes[n_nodes]
//                    | align64 | f64 leaf_entropy[n_nodes]
//                    | align64 | i32 roots[n_roots]
//       flat_linear: u8 kind | u64 M | u64 d
//                    | align64 | f64 weights[M*d]      (member-major)
//                    | align64 | f64 weights_t[M*d]    (feature-major —
//                      the batch-kernel layout, carried on disk so it
//                      maps in place instead of being rebuilt at load)
//                    | align64 | f64 bias[M] | align64 | f64 platt_a[M]
//                    | align64 | f64 platt_b[M] | align64 | f64 means[d]
//                    | align64 | f64 scales[d]
//
// ## Integrity and structure (the verify-then-walk contract)
//
// Every load verifies the header hash, then every section's hash,
// *before* parsing — one sequential, prefetcher-friendly sweep of the
// bytes — so any single bit flip anywhere in any section, including
// flips no structural check could see (a weight double, a leaf
// probability), is rejected with LoadError{kChecksum}. Then the payload
// checks run in full: config fields against their domains and against
// the engine (member count), and the forest arena's O(n_nodes)
// structural walk (feature indices inside the row, child links strictly
// forward and inside the arena), so no arena that loads can be traversed
// out of bounds or forever.
//
// Threat model: the checksum is an *integrity* check (bit rot, torn or
// interrupted writes, flaky storage), not an *authenticity* check — a
// writer who controls the file can recompute XXH64. Such a checksum-valid
// but hostile arena or config is still rejected, as
// LoadError{kBadStructure}, by the walk and config checks above; what
// they cannot catch is a well-formed artifact with hostile weights. Only
// load artifacts from writers you already trust to choose your model.
//
// load_model opens the file once — a mapping or one full read — and
// parses the header and section table from those same bytes with the
// parser inspect_model uses; only load_model then verifies checksums.
//
// save_model() writes atomically and durably: temp file + fsync(file) +
// rename + fsync(directory), so a crash mid-field-update can never leave
// a torn artifact under the real name for DetectorRegistry::refresh() to
// pick up. The rename discipline is also what makes hot-swap safe for
// mapped artifacts: replacing the directory entry leaves the old inode —
// and every live mapping of it — intact until the last reader drops it.
// (Overwriting a served artifact *in place* is a contract violation: a
// process still mapping the old bytes would see torn data or SIGBUS.)
//
// Loaders throw a typed LoadError (common/error.h) naming the failure
// class: kIo (missing/unreadable file), kBadMagic, kBadVersion,
// kChecksum, kTruncated, kBadStructure (misaligned / out-of-range /
// implausible geometry), kMmapFailed (LoadMode::kMmap only — kAuto falls
// back to the stream read itself).

#include <cstdint>
#include <string>
#include <vector>

#include "core/hmd.h"

namespace hmd::core {

/// The artifact version, the only one load_model accepts. Bump when the
/// layout changes.
inline constexpr std::uint32_t kModelFormatVersion = 2;

/// Header flags word (bytes [12..16) of an artifact).
inline constexpr std::uint32_t kArtifactFlagSectionChecksums = 1u;

/// How load_model materialises the artifact bytes.
enum class LoadMode {
  /// mmap, falling back to a full buffer read if mapping fails. The
  /// serving default.
  kAuto,
  /// mmap or throw LoadError{kMmapFailed}.
  kMmap,
  /// Never map: parse from a full heap read. The full-copy baseline the
  /// bench compares against.
  kStream,
};

/// Persist a fitted detector (config + scaler + compiled engine) to
/// `path`, checksummed. Throws InvalidArgument on an unfitted detector.
/// Writes are atomic and durable (see header).
void save_model(const UntrustedHmd& hmd, const std::string& path);

/// Reconstruct a serving-only detector from an artifact. `n_threads`
/// sizes the serving thread pool (<= 0 = all cores) — it intentionally
/// does not come from the artifact, since the training host's core count
/// is meaningless to the serving host. `mode` picks how the bytes are
/// materialised (see LoadMode); every mode yields bit-identical outputs
/// and, for a file it rejects, the same LoadErrorCode.
TrustedHmd load_model(const std::string& path, int n_threads = 0,
                      LoadMode mode = LoadMode::kAuto);

/// Header-level description of an artifact on disk, read without parsing
/// (or validating) any section payload. The introspection surface behind
/// tools/hmd_faultgen and the per-section corruption tests: sections are
/// reported in table order (config, scaler, engine) with their exact
/// byte ranges, so a test or corruption tool can target "one byte of the
/// engine section" without hard-coding layout offsets; `checksum` is the
/// stored (unverified) table value.
struct ArtifactSectionInfo {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

struct ArtifactInfo {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::vector<ArtifactSectionInfo> sections;
};

/// Read an artifact's header + section table with load_model's parser.
/// Throws LoadError on a missing file, bad magic, unsupported version or
/// flags, or
/// a table that is truncated/out-of-range — but does NOT verify the
/// header or section checksums or parse payloads (that is load_model's
/// job), so it still describes a damaged file.
ArtifactInfo inspect_model(const std::string& path);

}  // namespace hmd::core
