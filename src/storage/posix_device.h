// PosixDevice: StorageDevice backed by real files in a directory.
//
// Used by tests (functional correctness against a real filesystem), by the
// examples, and for on-host out-of-core runs. Supports optional O_DIRECT
// (paper §3.3) with automatic fallback to buffered I/O for requests that are
// not sector-aligned (the engine's bulk chunk traffic is aligned; only
// per-partition tails fall back).
#ifndef XSTREAM_STORAGE_POSIX_DEVICE_H_
#define XSTREAM_STORAGE_POSIX_DEVICE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "storage/device.h"

namespace xstream {

class PosixDevice : public StorageDevice {
 public:
  // `root` must be an existing writable directory; files live directly in it.
  // With try_direct=true, an O_DIRECT descriptor is opened alongside the
  // buffered one and used for aligned requests when the filesystem allows.
  PosixDevice(std::string name, std::string root, bool try_direct = false);
  ~PosixDevice() override;

  FileId Create(const std::string& file) override;
  FileId Open(const std::string& file) override;
  bool Exists(const std::string& file) const override;
  uint64_t FileSize(FileId f) const override;
  void Read(FileId f, uint64_t offset, std::span<std::byte> out) override;
  void Write(FileId f, uint64_t offset, std::span<const std::byte> data) override;
  uint64_t Append(FileId f, std::span<const std::byte> data) override;
  void Truncate(FileId f, uint64_t new_size) override;
  void Remove(const std::string& file) override;

  DeviceStats stats() const override;
  void ResetStats() override;

  const std::string& root() const { return root_; }
  bool direct_io_active() const { return direct_supported_; }

 protected:
  // Publishes direct_supported (1 when an O_DIRECT descriptor ever opened)
  // so --stats-json records which I/O path a run actually used.
  void PublishExtraStats(obs::MetricGroup& group) override;

 private:
  struct File {
    std::string path;
    int fd = -1;         // buffered descriptor
    int direct_fd = -1;  // O_DIRECT descriptor or -1
    uint64_t size = 0;
    bool live = false;
  };

  FileId OpenInternal(const std::string& file, bool truncate);
  File& GetFile(FileId f);
  const File& GetFile(FileId f) const;

  std::string root_;
  bool try_direct_;
  bool direct_supported_ = false;
  bool direct_warned_ = false;

  mutable std::mutex mu_;
  std::vector<File> files_;
  std::map<std::string, FileId> by_name_;
  DeviceStats stats_;
};

// Creates a fresh scratch directory under $TMPDIR (or /tmp) and removes it,
// recursively, on destruction. Test/bench helper.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix);
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace xstream

#endif  // XSTREAM_STORAGE_POSIX_DEVICE_H_
