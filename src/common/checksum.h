#pragma once
// 64-bit content checksum for on-disk artefact sections (`.hmdf` v2
// carries one per section in its table — core/model_artifact.h).
//
// The function is XXH64 (Yann Collet's xxHash, public-domain algorithm):
// a non-cryptographic hash that runs at memory speed by keeping four
// independent 64-bit lanes in flight, so verifying an artifact costs one
// sequential sweep of its bytes, run before the structural walk that
// follows it on every load. Any single-bit difference in the input
// changes the digest (for integrity purposes; this is NOT a MAC — an
// adversary who can write the file can recompute the hash, which is why
// the walk still runs; see the trust note in core/model_artifact.h).
//
// The digest is part of the on-disk format: this implementation must
// match the reference XXH64 bit for bit forever (asserted against the
// published test vectors in tests/test_fault_injection.cpp).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hmd::io {

namespace detail {

inline constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t xx_read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // artefacts are little-endian, as is
  return v;                       // every supported host (static_assert
}                                 // in binary_io.h)

inline std::uint32_t xx_read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxPrime1;
}

inline std::uint64_t xx_merge_round(std::uint64_t acc, std::uint64_t val) {
  acc ^= xx_round(0, val);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace detail

/// XXH64 of `size` bytes at `data` with the given seed.
inline std::uint64_t xxhash64(const void* data, std::size_t size,
                              std::uint64_t seed = 0) {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t h;

  if (size >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed + 0;
    std::uint64_t v4 = seed - kXxPrime1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = xx_round(v1, xx_read64(p));
      v2 = xx_round(v2, xx_read64(p + 8));
      v3 = xx_round(v3, xx_read64(p + 16));
      v4 = xx_round(v4, xx_read64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xx_merge_round(h, v1);
    h = xx_merge_round(h, v2);
    h = xx_merge_round(h, v3);
    h = xx_merge_round(h, v4);
  } else {
    h = seed + kXxPrime5;
  }

  h += static_cast<std::uint64_t>(size);
  while (p + 8 <= end) {
    h ^= xx_round(0, xx_read64(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(xx_read32(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

/// Incremental XXH64: feed bytes in arbitrary chunks, read the digest at
/// the end. digest() is bit-identical to the one-shot xxhash64() over the
/// concatenated input for every chunking (asserted against random split
/// points in the test suite) — this is what lets the artifact writer hash
/// sections *as they stream out* instead of re-reading the finished file.
/// digest() does not consume the state: more update() calls may follow.
class Xxhash64Stream {
 public:
  explicit Xxhash64Stream(std::uint64_t seed = 0) { reset(seed); }

  void reset(std::uint64_t seed = 0) {
    using namespace detail;
    seed_ = seed;
    v1_ = seed + kXxPrime1 + kXxPrime2;
    v2_ = seed + kXxPrime2;
    v3_ = seed;
    v4_ = seed - kXxPrime1;
    total_ = 0;
    buffered_ = 0;
  }

  void update(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += size;
    if (buffered_ + size < sizeof(buffer_)) {  // still short of one stripe
      std::memcpy(buffer_ + buffered_, p, size);
      buffered_ += size;
      return;
    }
    if (buffered_ != 0) {
      const std::size_t fill = sizeof(buffer_) - buffered_;
      std::memcpy(buffer_ + buffered_, p, fill);
      consume_stripe(buffer_);
      p += fill;
      size -= fill;
      buffered_ = 0;
    }
    while (size >= sizeof(buffer_)) {
      consume_stripe(p);
      p += sizeof(buffer_);
      size -= sizeof(buffer_);
    }
    std::memcpy(buffer_, p, size);
    buffered_ = size;
  }

  std::uint64_t digest() const {
    using namespace detail;
    std::uint64_t h;
    if (total_ >= 32) {
      h = std::rotl(v1_, 1) + std::rotl(v2_, 7) + std::rotl(v3_, 12) +
          std::rotl(v4_, 18);
      h = xx_merge_round(h, v1_);
      h = xx_merge_round(h, v2_);
      h = xx_merge_round(h, v3_);
      h = xx_merge_round(h, v4_);
    } else {
      h = seed_ + kXxPrime5;
    }
    h += total_;
    const unsigned char* p = buffer_;
    const unsigned char* const end = buffer_ + buffered_;
    while (p + 8 <= end) {
      h ^= xx_round(0, xx_read64(p));
      h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
      p += 8;
    }
    if (p + 4 <= end) {
      h ^= static_cast<std::uint64_t>(xx_read32(p)) * kXxPrime1;
      h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
      p += 4;
    }
    while (p < end) {
      h ^= static_cast<std::uint64_t>(*p) * kXxPrime5;
      h = std::rotl(h, 11) * kXxPrime1;
      ++p;
    }
    h ^= h >> 33;
    h *= kXxPrime2;
    h ^= h >> 29;
    h *= kXxPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  void consume_stripe(const unsigned char* p) {
    using namespace detail;
    v1_ = xx_round(v1_, xx_read64(p));
    v2_ = xx_round(v2_, xx_read64(p + 8));
    v3_ = xx_round(v3_, xx_read64(p + 16));
    v4_ = xx_round(v4_, xx_read64(p + 24));
  }

  std::uint64_t seed_ = 0;
  std::uint64_t v1_ = 0, v2_ = 0, v3_ = 0, v4_ = 0;
  std::uint64_t total_ = 0;
  unsigned char buffer_[32];
  std::size_t buffered_ = 0;
};

}  // namespace hmd::io
