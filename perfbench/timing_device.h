// A forwarding StorageDevice that times every request, for traced runs.
//
// It records bytes, requests, busy time (wall time inside the wrapped call)
// and errors per file role — edge, update or vertex file, told apart by the
// stores' file names — and per operation. Calls arrive on compute threads
// and on the device's I/O thread at once, so the counters sit behind a
// mutex, which is never held across the wrapped call: requests the wrapped
// device would serve concurrently stay concurrent. stats(), ResetStats()
// and TakeTimeline() forward unchanged, so RunStats sees exactly the bytes
// the wrapped device moved.
#ifndef PERFBENCH_TIMING_DEVICE_H_
#define PERFBENCH_TIMING_DEVICE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/device.h"
#include "util/timer.h"

namespace perfbench {

class TimingDevice : public xstream::StorageDevice {
 public:
  enum Role { kEdge, kUpdate, kVertex, kRoles };
  enum Op { kRead, kWrite, kOps };
  static constexpr const char* kRoleNames[kRoles] = {"edge", "update", "vertex"};
  static constexpr const char* kOpNames[kOps] = {"read", "write"};

  struct Counter {
    uint64_t bytes = 0;
    uint64_t requests = 0;
    double busy_seconds = 0.0;
  };
  struct Snapshot {
    Counter counters[kRoles][kOps];
    uint64_t errors = 0;

    // What happened between `before` and this snapshot.
    Snapshot Since(const Snapshot& before) const {
      Snapshot d;
      for (int r = 0; r < kRoles; ++r) {
        for (int o = 0; o < kOps; ++o) {
          const Counter& a = counters[r][o];
          const Counter& b = before.counters[r][o];
          d.counters[r][o] = Counter{a.bytes - b.bytes, a.requests - b.requests,
                                     a.busy_seconds - b.busy_seconds};
        }
      }
      d.errors = errors - before.errors;
      return d;
    }
  };

  explicit TimingDevice(xstream::StorageDevice& inner)
      : StorageDevice(inner.name()), inner_(inner) {}

  xstream::FileId Create(const std::string& file) override {
    xstream::FileId f = inner_.Create(file);
    Remember(f, file);
    return f;
  }
  xstream::FileId Open(const std::string& file) override {
    xstream::FileId f = inner_.Open(file);
    Remember(f, file);
    return f;
  }
  bool Exists(const std::string& file) const override { return inner_.Exists(file); }
  uint64_t FileSize(xstream::FileId f) const override { return inner_.FileSize(f); }

  void Read(xstream::FileId f, uint64_t offset, std::span<std::byte> out) override {
    Timed(f, kRead, out.size(), [&] { inner_.Read(f, offset, out); });
  }
  void Write(xstream::FileId f, uint64_t offset, std::span<const std::byte> data) override {
    Timed(f, kWrite, data.size(), [&] { inner_.Write(f, offset, data); });
  }
  uint64_t Append(xstream::FileId f, std::span<const std::byte> data) override {
    uint64_t at = 0;
    Timed(f, kWrite, data.size(), [&] { at = inner_.Append(f, data); });
    return at;
  }
  void Truncate(xstream::FileId f, uint64_t new_size) override { inner_.Truncate(f, new_size); }
  void Remove(const std::string& file) override { inner_.Remove(file); }

  xstream::DeviceStats stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }
  std::vector<xstream::IoEvent> TakeTimeline() override { return inner_.TakeTimeline(); }

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

 private:
  static Role RoleOf(const std::string& file) {
    if (file.find(".updates.") != std::string::npos) {
      return kUpdate;
    }
    if (file.find(".vertices.") != std::string::npos) {
      return kVertex;
    }
    return kEdge;  // partition edge files and the unpartitioned input
  }

  void Remember(xstream::FileId f, const std::string& file) {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<size_t>(f) >= roles_.size()) {
      roles_.resize(static_cast<size_t>(f) + 1, kEdge);
    }
    roles_[static_cast<size_t>(f)] = RoleOf(file);
  }

  template <typename Call>
  void Timed(xstream::FileId f, Op op, size_t bytes, Call&& call) {
    Role role = kEdge;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (f >= 0 && static_cast<size_t>(f) < roles_.size()) {
        role = roles_[static_cast<size_t>(f)];
      }
    }
    xstream::WallTimer timer;
    try {
      call();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      ++snap_.errors;
      throw;
    }
    double seconds = timer.Seconds();
    std::lock_guard<std::mutex> lock(mu_);
    Counter& c = snap_.counters[role][op];
    c.bytes += bytes;
    ++c.requests;
    c.busy_seconds += seconds;
  }

  xstream::StorageDevice& inner_;
  mutable std::mutex mu_;  // guards roles_ and snap_
  std::vector<Role> roles_;  // by FileId
  Snapshot snap_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_DEVICE_H_
