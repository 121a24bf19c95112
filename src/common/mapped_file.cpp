#include "common/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>

#include "common/error.h"
#include "common/failpoint.h"

namespace hmd::io {

namespace {

/// close() that preserves the caller's errno (no retry on EINTR — on
/// Linux the fd is gone either way, and retrying risks a double close).
void close_quietly(int fd) {
  const int saved = errno;
  ::close(fd);
  errno = saved;
}

}  // namespace

MappedFile MappedFile::map(const std::string& path) {
  // Armed with error:mmap-failed this simulates a filesystem without
  // mmap support — the seam the stream-fallback paths are tested through.
  HMD_FAILPOINT("mmap.map", path.c_str());
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw LoadError(LoadErrorCode::kIo, path,
                    std::string("cannot open for mapping: ") +
                        std::strerror(errno));
  }
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0) {
    close_quietly(fd);
    throw LoadError(LoadErrorCode::kIo, path,
                    std::string("cannot stat: ") + std::strerror(errno));
  }
  if (st.st_size <= 0) {
    close_quietly(fd);
    throw LoadError(LoadErrorCode::kTruncated, path,
                    "empty file (no artifact is 0 bytes)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // MAP_PRIVATE: the serving process never writes through the mapping,
  // and private mappings keep reading the *mapped inode* even after a
  // rename replaces the directory entry — the hot-swap guarantee.
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  close_quietly(fd);  // the mapping keeps its own reference to the inode
  if (base == MAP_FAILED) {
    throw LoadError(LoadErrorCode::kMmapFailed, path,
                    std::string("mmap failed: ") + std::strerror(errno));
  }
  MappedFile mapped;
  mapped.data_ = static_cast<const std::byte*>(base);
  mapped.size_ = size;
  return mapped;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(const_cast<std::byte*>(data_), size_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

ArtifactBuffer ArtifactBuffer::map_file(const std::string& path) {
  ArtifactBuffer buffer;
  buffer.mapping_ = std::make_unique<MappedFile>(MappedFile::map(path));
  buffer.size_ = buffer.mapping_->size();
  return buffer;
}

ArtifactBuffer ArtifactBuffer::read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw LoadError(LoadErrorCode::kIo, path,
                    std::string("cannot open: ") + std::strerror(errno));
  }
  struct ::stat st = {};
  if (::fstat(fd, &st) != 0) {
    close_quietly(fd);
    throw LoadError(LoadErrorCode::kIo, path,
                    std::string("cannot stat: ") + std::strerror(errno));
  }
  if (st.st_size <= 0) {
    close_quietly(fd);
    throw LoadError(LoadErrorCode::kTruncated, path,
                    "empty file (no artifact is 0 bytes)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  ArtifactBuffer buffer;
  buffer.blob_.reset(static_cast<std::byte*>(
      ::operator new[](size, std::align_val_t{64})));
  buffer.size_ = size;
  std::size_t done = 0;
  while (done < size) {
    const ::ssize_t n =
        ::read(fd, buffer.blob_.get() + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close_quietly(fd);
      throw LoadError(LoadErrorCode::kIo, path,
                      "short read: expected " + std::to_string(size) +
                          " bytes, got " + std::to_string(done));
    }
    done += static_cast<std::size_t>(n);
  }
  close_quietly(fd);
  return buffer;
}

ArtifactBuffer ArtifactBuffer::map_or_read(const std::string& path) {
  try {
    return map_file(path);
  } catch (const LoadError& error) {
    if (error.code() != LoadErrorCode::kMmapFailed) throw;
    return read_file(path);
  }
}

}  // namespace hmd::io
