#include "net/pcap_mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

namespace dm::net {
namespace {

/// Reads `fd` from its current offset to its end into `out`, starting with
/// room for `capacity` bytes and doubling it while the reads fill it.
/// False on a read error.
bool read_to_end(int fd, std::size_t capacity, std::vector<std::uint8_t>& out) {
  out.resize(std::max<std::size_t>(capacity, 1));
  std::size_t used = 0;
  for (;;) {
    if (used == out.size()) out.resize(2 * out.size());
    const ssize_t n = ::read(fd, out.data() + used, out.size() - used);
    if (n > 0) {
      used += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      return false;
    }
  }
  out.resize(used);
  return true;
}

}  // namespace

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("pcap: cannot open for read: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("pcap: cannot stat: " + path);
  }
  const bool regular = S_ISREG(st.st_mode);
  const auto file_size = static_cast<std::size_t>(st.st_size);
  if (regular && file_size > 0) {
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);  // the mapping keeps its own reference to the file
#if defined(POSIX_MADV_SEQUENTIAL)
      ::posix_madvise(map, file_size, POSIX_MADV_SEQUENTIAL);
#endif
      data_ = static_cast<const std::uint8_t*>(map);
      size_ = file_size;
      mapped_ = true;
      return;
    }
  }
  // A pipe, FIFO or device has no size to map, mmap rejects an empty file,
  // and it can fail on exotic filesystems: read what the descriptor gives.
  // A regular file's buffer starts one byte past its size, so the read that
  // meets its end needs no growth.
  const bool read_ok =
      read_to_end(fd, regular ? file_size + 1 : 64 * 1024, fallback_);
  ::close(fd);
  if (!read_ok) throw std::runtime_error("pcap: read failed: " + path);
  data_ = fallback_.data();
  size_ = fallback_.size();
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() noexcept {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_ && !fallback_.empty()) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.fallback_.clear();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  if (!mapped_ && !fallback_.empty()) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.fallback_.clear();
  return *this;
}

MappedPcap::MappedPcap(const std::string& path,
                       const PcapDecodeOptions& options,
                       dm::util::FaultStats* faults)
    : mapping_(path),
      result_(decode_pcap_view(mapping_.bytes(), options, faults)) {}

}  // namespace dm::net
