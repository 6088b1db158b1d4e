#include "storage/posix_device.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "util/aligned.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

namespace {

bool IsAligned(uint64_t offset, size_t len, const void* ptr) {
  return offset % kIoAlignment == 0 && len % kIoAlignment == 0 &&
         reinterpret_cast<uintptr_t>(ptr) % kIoAlignment == 0;
}

void FullPread(int fd, void* buf, size_t len, uint64_t offset) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    XS_CHECK_GT(n, 0) << "pread failed: " << std::strerror(errno);
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

void FullPwrite(int fd, const void* buf, size_t len, uint64_t offset) {
  const auto* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    XS_CHECK_GT(n, 0) << "pwrite failed: " << std::strerror(errno);
    p += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
}

}  // namespace

void PosixDevice::PublishExtraStats(obs::MetricGroup& group) {
  bool supported;
  {
    std::lock_guard<std::mutex> lock(mu_);
    supported = direct_supported_;
  }
  group.gauge("direct_supported").Set(supported ? 1.0 : 0.0);
}

PosixDevice::PosixDevice(std::string name, std::string root, bool try_direct)
    : StorageDevice(std::move(name)), root_(std::move(root)), try_direct_(try_direct) {
  XS_CHECK(std::filesystem::is_directory(root_)) << root_ << " is not a directory";
}

PosixDevice::~PosixDevice() {
  for (auto& f : files_) {
    if (f.fd >= 0) {
      ::close(f.fd);
    }
    if (f.direct_fd >= 0) {
      ::close(f.direct_fd);
    }
  }
}

PosixDevice::File& PosixDevice::GetFile(FileId f) {
  XS_CHECK(f >= 0 && static_cast<size_t>(f) < files_.size()) << "bad file id " << f;
  File& file = files_[static_cast<size_t>(f)];
  XS_CHECK(file.live) << "file " << file.path << " was removed";
  return file;
}

const PosixDevice::File& PosixDevice::GetFile(FileId f) const {
  XS_CHECK(f >= 0 && static_cast<size_t>(f) < files_.size()) << "bad file id " << f;
  const File& file = files_[static_cast<size_t>(f)];
  XS_CHECK(file.live) << "file " << file.path << " was removed";
  return file;
}

FileId PosixDevice::OpenInternal(const std::string& file, bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(file);
  if (it != by_name_.end()) {
    File& existing = files_[static_cast<size_t>(it->second)];
    if (truncate) {
      XS_CHECK_EQ(::ftruncate(existing.fd, 0), 0) << std::strerror(errno);
      existing.size = 0;
    }
    existing.live = true;
    return it->second;
  }

  std::string path = root_ + "/" + file;
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  XS_CHECK_GE(fd, 0) << "open(" << path << ") failed: " << std::strerror(errno);

  int direct_fd = -1;
  if (try_direct_) {
    direct_fd = ::open(path.c_str(), O_RDWR | O_DIRECT);
    if (direct_fd >= 0) {
      direct_supported_ = true;
    } else if (!direct_warned_) {
      // tmpfs and overlayfs reject O_DIRECT; fall back loudly (once), so a
      // benchmark run on the wrong filesystem doesn't silently measure the
      // page cache. direct_supported in PublishStats records the outcome.
      direct_warned_ = true;
      XS_LOG(Warning) << "device " << name() << ": O_DIRECT open of " << path
                      << " failed (" << std::strerror(errno)
                      << "); falling back to buffered I/O";
    }
  }

  off_t size = ::lseek(fd, 0, SEEK_END);
  XS_CHECK_GE(size, 0) << std::strerror(errno);

  FileId id = static_cast<FileId>(files_.size());
  files_.push_back(File{path, fd, direct_fd, static_cast<uint64_t>(size), true});
  by_name_[file] = id;
  return id;
}

FileId PosixDevice::Create(const std::string& file) { return OpenInternal(file, true); }

FileId PosixDevice::Open(const std::string& file) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (by_name_.count(file) == 0) {
      XS_CHECK(std::filesystem::exists(root_ + "/" + file))
          << "open of missing file " << file << " on " << name();
    }
  }
  return OpenInternal(file, false);
}

bool PosixDevice::Exists(const std::string& file) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(file);
    if (it != by_name_.end()) {
      return files_[static_cast<size_t>(it->second)].live;
    }
  }
  return std::filesystem::exists(root_ + "/" + file);
}

uint64_t PosixDevice::FileSize(FileId f) const {
  std::lock_guard<std::mutex> lock(mu_);
  return GetFile(f).size;
}

void PosixDevice::Read(FileId f, uint64_t offset, std::span<std::byte> out) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    File& file = GetFile(f);
    XS_CHECK_LE(offset + out.size(), file.size) << "read past EOF of " << file.path;
    fd = (file.direct_fd >= 0 && IsAligned(offset, out.size(), out.data())) ? file.direct_fd
                                                                            : file.fd;
  }
  WallTimer timer;
  FullPread(fd, out.data(), out.size(), offset);
  double elapsed = timer.Seconds();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_read += out.size();
  ++stats_.read_requests;
  stats_.busy_seconds += elapsed;
}

void PosixDevice::Write(FileId f, uint64_t offset, std::span<const std::byte> data) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    File& file = GetFile(f);
    fd = (file.direct_fd >= 0 && IsAligned(offset, data.size(), data.data())) ? file.direct_fd
                                                                              : file.fd;
    file.size = std::max(file.size, offset + data.size());
  }
  WallTimer timer;
  FullPwrite(fd, data.data(), data.size(), offset);
  double elapsed = timer.Seconds();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += data.size();
  ++stats_.write_requests;
  stats_.busy_seconds += elapsed;
}

uint64_t PosixDevice::Append(FileId f, std::span<const std::byte> data) {
  uint64_t offset;
  {
    std::lock_guard<std::mutex> lock(mu_);
    offset = GetFile(f).size;
  }
  Write(f, offset, data);
  return offset;
}

void PosixDevice::Truncate(FileId f, uint64_t new_size) {
  std::lock_guard<std::mutex> lock(mu_);
  File& file = GetFile(f);
  if (new_size < file.size) {
    XS_CHECK_EQ(::ftruncate(file.fd, static_cast<off_t>(new_size)), 0) << std::strerror(errno);
    file.size = new_size;
  }
}

void PosixDevice::Remove(const std::string& file) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(file);
  if (it != by_name_.end()) {
    File& f = files_[static_cast<size_t>(it->second)];
    if (f.fd >= 0) {
      ::close(f.fd);
      f.fd = -1;
    }
    if (f.direct_fd >= 0) {
      ::close(f.direct_fd);
      f.direct_fd = -1;
    }
    f.live = false;
    by_name_.erase(it);
  }
  std::filesystem::remove(root_ + "/" + file);
}

DeviceStats PosixDevice::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PosixDevice::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = DeviceStats{};
}

ScratchDir::ScratchDir(const std::string& prefix) {
  const char* tmp = std::getenv("TMPDIR");
  std::string base = tmp != nullptr ? tmp : "/tmp";
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string candidate =
        base + "/" + prefix + "." + std::to_string(::getpid()) + "." + std::to_string(attempt);
    std::error_code ec;
    if (std::filesystem::create_directory(candidate, ec)) {
      path_ = candidate;
      return;
    }
  }
  XS_CHECK(false) << "could not create scratch directory under " << base;
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
}

}  // namespace xstream
