#include "jit/code_buffer.h"

#include <cassert>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define HMD_JIT_HAVE_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define HMD_JIT_HAVE_MMAP 0
#endif

namespace hmd::jit {

namespace {

constexpr std::size_t kInitialCapacity = std::size_t{1} << 16;  // 64 KiB

std::size_t page_round(std::size_t n) {
#if HMD_JIT_HAVE_MMAP
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
#else
  const std::size_t page = 4096;
#endif
  return (n + page - 1) / page * page;
}

}  // namespace

CodeBuffer::CodeBuffer() = default;

CodeBuffer::~CodeBuffer() { reset(); }

CodeBuffer::CodeBuffer(CodeBuffer&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)),
      size_(std::exchange(other.size_, 0)),
      ok_(std::exchange(other.ok_, true)),
      sealed_(std::exchange(other.sealed_, false)) {}

CodeBuffer& CodeBuffer::operator=(CodeBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    base_ = std::exchange(other.base_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    ok_ = std::exchange(other.ok_, true);
    sealed_ = std::exchange(other.sealed_, false);
  }
  return *this;
}

void CodeBuffer::reset() noexcept {
#if HMD_JIT_HAVE_MMAP
  if (base_ != nullptr) ::munmap(base_, capacity_);
#endif
  base_ = nullptr;
  capacity_ = 0;
  size_ = 0;
  sealed_ = false;
}

bool CodeBuffer::reserve(std::size_t bytes) {
  if (bytes <= capacity_) return ok_;
  return remap(page_round(bytes));
}

bool CodeBuffer::grow(std::size_t extra) {
  if (size_ + extra <= capacity_) return ok_;
  std::size_t want = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
  while (want < size_ + extra) want *= 2;
  return remap(page_round(want));
}

bool CodeBuffer::remap(std::size_t capacity) {
  assert(!sealed_);
  if (!ok_ || sealed_) return false;
#if HMD_JIT_HAVE_MMAP
  void* fresh = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (fresh == MAP_FAILED) {
    ok_ = false;
    return false;
  }
  if (size_ != 0) std::memcpy(fresh, base_, size_);
  if (base_ != nullptr) ::munmap(base_, capacity_);
  base_ = static_cast<std::uint8_t*>(fresh);
  capacity_ = capacity;
  return true;
#else
  ok_ = false;
  return false;
#endif
}

void CodeBuffer::patch32(std::size_t offset, std::uint32_t v) {
  assert(!sealed_);
  if (!ok_ || sealed_ || offset + 4 > size_) return;
  std::memcpy(base_ + offset, &v, 4);
}

void CodeBuffer::align_to(std::size_t alignment, std::uint8_t fill) {
  while (size_ % alignment != 0) put8(fill);
}

bool CodeBuffer::protect() {
  if (!ok_ || sealed_ || base_ == nullptr) return false;
#if HMD_JIT_HAVE_MMAP
  if (::mprotect(base_, capacity_, PROT_READ | PROT_EXEC) != 0) {
    ok_ = false;
    return false;
  }
  sealed_ = true;
  return true;
#else
  ok_ = false;
  return false;
#endif
}

const void* CodeBuffer::entry(std::size_t offset) const {
  assert(sealed_ && offset < size_);
  return base_ + offset;
}

}  // namespace hmd::jit
