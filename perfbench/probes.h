// Process probes (resident memory, CPU time) and hardware ceilings
// (memory and sequential device bandwidth) for the benchmark.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/device.h"
#include "storage/sim_device.h"
#include "util/aligned.h"
#include "util/timer.h"

namespace perfbench {

inline uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// VmHWM: peak resident set since the process started or the last reset.
inline uint64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

inline double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Peak resident memory the system under test adds from Begin() on: freed
// heap memory is returned to the kernel first, then the kernel's VmHWM is
// reset to the current RSS through /proc/self/clear_refs.
class PeakMemory {
 public:
  // Returns false when the kernel refuses the VmHWM reset.
  bool Begin() {
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    base_ = CurrentRssBytes();
    return clear.good() && PeakRssBytes() <= base_ + (1u << 20);
  }
  uint64_t GrowthBytes() const {
    uint64_t peak = PeakRssBytes();
    return peak > base_ ? peak - base_ : 0;
  }

 private:
  uint64_t base_ = 0;
};

// Samples a SimDevice's stored bytes every 2 ms on its own thread and keeps
// the maximum, so the bytes the device model itself holds in RAM can be
// taken out of a peak-memory figure.
class StoredBytesSampler {
 public:
  explicit StoredBytesSampler(const xstream::SimDevice& dev)
      : dev_(dev), peak_(dev.StoredBytes()), thread_([this] { Loop(); }) {}
  ~StoredBytesSampler() {
    stop_.store(true);
    thread_.join();
  }

  StoredBytesSampler(const StoredBytesSampler&) = delete;
  StoredBytesSampler& operator=(const StoredBytesSampler&) = delete;

  uint64_t peak() const { return std::max(peak_.load(), dev_.StoredBytes()); }

 private:
  void Loop() {
    while (!stop_.load()) {
      uint64_t now = dev_.StoredBytes();
      if (now > peak_.load()) {
        peak_.store(now);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  const xstream::SimDevice& dev_;
  std::atomic<uint64_t> peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: starts after the members it reads
};

// Last-level cache size from sysfs (the largest cache index of cpu0).
inline uint64_t LastLevelCacheBytes() {
  uint64_t best = 0;
  for (int i = 0; i < 8; ++i) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/size");
    std::string text;
    if (!(f >> text)) {
      continue;
    }
    uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    char unit = text.empty() ? 'B' : text.back();
    v *= unit == 'K' ? 1024ull : unit == 'M' ? (1ull << 20) : unit == 'G' ? (1ull << 30) : 1ull;
    best = std::max(best, v);
  }
  return best > 0 ? best : (32ull << 20);
}

struct MemoryCeilings {
  double read_gbps = 0.0;
  double write_gbps = 0.0;
  double copy_gbps = 0.0;  // bytes read plus bytes written
};

// The fig08 kernels (one read per cacheline; every word written) plus a
// memcpy copy, each over a private slice per thread of one `working_set`
// buffer. Best of `passes`.
inline MemoryCeilings ProbeMemory(int threads, uint64_t working_set, int passes) {
  const uint64_t slice = working_set / static_cast<uint64_t>(threads) / 64 * 64;
  xstream::AlignedBuffer buffer(slice * static_cast<uint64_t>(threads));
  std::memset(buffer.data(), 1, buffer.size());
  std::atomic<uint64_t> sink{0};
  auto run = [&](auto&& body) {
    double best = 1e30;
    for (int p = 0; p < passes; ++p) {
      std::vector<std::thread> workers;
      xstream::WallTimer timer;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          body(reinterpret_cast<uint64_t*>(buffer.data() + slice * static_cast<uint64_t>(t)));
        });
      }
      for (auto& w : workers) {
        w.join();
      }
      best = std::min(best, timer.Seconds());
    }
    return best;
  };
  const size_t words = slice / sizeof(uint64_t);
  double read_s = run([&](const uint64_t* data) {
    uint64_t sum = 0;
    for (size_t i = 0; i < words; i += 8) {
      sum += data[i];
    }
    sink.fetch_add(sum, std::memory_order_relaxed);
  });
  double write_s = run([&](uint64_t* data) {
    for (size_t i = 0; i < words; ++i) {
      data[i] = i;
    }
  });
  double copy_s = run([&](uint64_t* data) {
    std::memcpy(data + words / 2, data, words / 2 * sizeof(uint64_t));
  });
  const double total = static_cast<double>(slice) * threads;
  MemoryCeilings c;
  c.read_gbps = total / read_s / 1e9;
  c.write_gbps = total / write_s / 1e9;
  c.copy_gbps = total / copy_s / 1e9;
  return c;
}

struct DeviceCeilings {
  double read_gbps = 0.0;
  double append_gbps = 0.0;
};

// Sequential appends of `total` bytes in `unit`-sized requests to a fresh
// file, then sequential reads of it back in the same unit.
inline DeviceCeilings ProbeDevice(xstream::StorageDevice& dev, uint64_t total, size_t unit) {
  const std::string name = "perfbench.ceiling";
  xstream::FileId f = dev.Create(name);
  xstream::AlignedBuffer buf(unit);
  std::memset(buf.data(), 7, unit);
  const uint64_t n = std::max<uint64_t>(1, total / unit);
  DeviceCeilings c;
  xstream::WallTimer timer;
  for (uint64_t i = 0; i < n; ++i) {
    dev.Append(f, std::span<const std::byte>(buf.data(), unit));
  }
  c.append_gbps = static_cast<double>(n * unit) / timer.Seconds() / 1e9;
  timer.Reset();
  for (uint64_t i = 0; i < n; ++i) {
    dev.Read(f, i * unit, std::span<std::byte>(buf.data(), unit));
  }
  c.read_gbps = static_cast<double>(n * unit) / timer.Seconds() / 1e9;
  dev.Remove(name);
  return c;
}

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
