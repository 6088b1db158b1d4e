// UringDevice (--io-backend=uring) tests: transfers through the io_uring
// wave path must be byte-identical to PosixDevice on the same files, across
// odd sizes/offsets, multi-wave requests, and the registered-buffer path.
// Skips cleanly when the kernel or sandbox rejects io_uring_setup.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "graph/generators.h"
#include "graph/edge_io.h"
#include "core/hybrid_engine.h"
#include "algorithms/algorithms.h"
#include "storage/posix_device.h"
#include "storage/uring_device.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace xstream {
namespace {

std::vector<std::byte> Pattern(size_t n, uint8_t seed) {
  std::vector<std::byte> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed + i * 13) & 0xff);
  }
  return data;
}

#define SKIP_WITHOUT_URING()                                             \
  if (!UringDevice::Supported()) {                                       \
    GTEST_SKIP() << "io_uring unavailable (kernel too old or sandboxed)"; \
  }

TEST(UringDeviceTest, SupportedIsStable) {
  // Whatever the answer, probing twice must agree (cached per process).
  EXPECT_EQ(UringDevice::Supported(), UringDevice::Supported());
}

TEST(UringDeviceTest, FallsBackWithoutRingButStillWorks) {
  // Even when the ring can't be created, the device must behave like a
  // PosixDevice (the constructor falls back loudly, never fatally).
  ScratchDir scratch("uring-test");
  UringOptions opts;
  UringDevice dev("u", scratch.path(), opts);
  FileId f = dev.Create("x");
  auto data = Pattern(10000, 1);
  dev.Write(f, 0, data);
  std::vector<std::byte> out(10000);
  dev.Read(f, 0, out);
  EXPECT_EQ(out, data);
}

TEST(UringDeviceTest, RingActivatesWhenSupported) {
  SKIP_WITHOUT_URING();
  ScratchDir scratch("uring-test");
  UringDevice dev("u", scratch.path());
  EXPECT_TRUE(dev.ring_active());
}

TEST(UringDeviceTest, RoundTripOddSizesAndOffsets) {
  SKIP_WITHOUT_URING();
  ScratchDir scratch("uring-test");
  UringDevice dev("u", scratch.path());
  FileId f = dev.Create("x");
  // Unaligned length and offset: exercises the buffered-descriptor path and
  // sub-slice pieces.
  auto data = Pattern(12345, 2);
  dev.Write(f, 777, data);
  EXPECT_EQ(dev.FileSize(f), 777u + 12345u);
  std::vector<std::byte> out(12345);
  dev.Read(f, 777, out);
  EXPECT_EQ(out, data);
}

TEST(UringDeviceTest, MultiWaveTransferMatchesPosix) {
  SKIP_WITHOUT_URING();
  // Transfer much larger than registered_slices * slice_bytes forces several
  // submission waves through the fixed buffers.
  ScratchDir scratch("uring-test");
  UringOptions opts;
  opts.slice_bytes = 64 << 10;
  opts.registered_slices = 2;
  opts.sq_entries = 4;
  UringDevice uring("u", scratch.path(), opts);
  PosixDevice posix("p", scratch.path());

  auto data = Pattern((1 << 20) + 4096 + 17, 3);  // ~8 waves + odd tail
  FileId fu = uring.Create("via-uring");
  uring.Write(fu, 0, data);
  std::vector<std::byte> out(data.size());
  uring.Read(fu, 0, out);
  EXPECT_EQ(out, data);

  // The file the uring device wrote must be readable by a plain posix device
  // byte-for-byte (same on-disk format, different transport).
  FileId fp = posix.Open("via-uring");
  std::vector<std::byte> via_posix(data.size());
  posix.Read(fp, 0, via_posix);
  EXPECT_EQ(via_posix, data);
}

TEST(UringDeviceTest, AppendAccumulates) {
  SKIP_WITHOUT_URING();
  ScratchDir scratch("uring-test");
  UringDevice dev("u", scratch.path());
  FileId f = dev.Create("x");
  std::vector<std::byte> all;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    auto piece = Pattern(1 + rng.NextBounded(100000), static_cast<uint8_t>(i));
    EXPECT_EQ(dev.Append(f, piece), all.size());
    all.insert(all.end(), piece.begin(), piece.end());
  }
  std::vector<std::byte> out(all.size());
  dev.Read(f, 0, out);
  EXPECT_EQ(out, all);
}

TEST(UringDeviceTest, UnregisteredBuffersStillTransfer) {
  SKIP_WITHOUT_URING();
  // registered_slices = 0 disables IORING_REGISTER_BUFFERS: transfers go
  // through plain IORING_OP_READ/WRITE straight into caller memory.
  ScratchDir scratch("uring-test");
  UringOptions opts;
  opts.registered_slices = 0;
  UringDevice dev("u", scratch.path(), opts);
  ASSERT_TRUE(dev.ring_active());
  EXPECT_FALSE(dev.buffers_registered());
  FileId f = dev.Create("x");
  auto data = Pattern(300000, 6);
  dev.Write(f, 0, data);
  std::vector<std::byte> out(data.size());
  dev.Read(f, 0, out);
  EXPECT_EQ(out, data);
}

TEST(UringDeviceTest, StatsCountTransfers) {
  SKIP_WITHOUT_URING();
  ScratchDir scratch("uring-test");
  UringDevice dev("u", scratch.path());
  FileId f = dev.Create("x");
  auto data = Pattern(50000, 7);
  dev.Write(f, 0, data);
  std::vector<std::byte> out(50000);
  dev.Read(f, 0, out);
  DeviceStats s = dev.stats();
  EXPECT_EQ(s.bytes_written, 50000u);
  EXPECT_EQ(s.bytes_read, 50000u);
}

TEST(UringDeviceTest, EngineSmokeMatchesPosixEngine) {
  SKIP_WITHOUT_URING();
  // End-to-end: a small out-of-core WCC run on a uring device must produce
  // the same result as the same run on a posix device.
  EdgeList edges;
  {
    RmatParams params;
    params.scale = 10;
    params.edge_factor = 8;
    params.seed = 42;
    edges = GenerateRmat(params);
  }
  GraphInfo info = ScanEdges(edges);

  auto run = [&](PosixDevice& dev) {
    WriteEdgeFile(dev, "in.bin", edges);
    HybridConfig config;
    config.allow_vertex_memory_opt = true;
    config.threads = 2;
    config.streaming_budget_bytes = 1 << 20;
    config.io_unit_bytes = 32 << 10;
    HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "in.bin", info);
    return RunWcc(engine);
  };

  ScratchDir s1("uring-test"), s2("uring-test");
  UringDevice uring("u", s1.path());
  PosixDevice posix("p", s2.path());
  WccResult via_uring = run(uring);
  WccResult via_posix = run(posix);
  EXPECT_EQ(via_uring.num_components, via_posix.num_components);
  EXPECT_EQ(via_uring.labels, via_posix.labels);
}

// ---------------------------------------------------------- AlignedBufferPool

TEST(AlignedBufferPoolTest, RecyclesExactSizes) {
  AlignedBufferPool pool(1 << 20);
  AlignedBuffer a = pool.Get(4096);
  void* ptr = a.data();
  pool.Put(std::move(a));
  EXPECT_EQ(pool.pooled_bytes(), 4096u);
  AlignedBuffer b = pool.Get(4096);
  EXPECT_EQ(b.data(), ptr);  // same allocation came back
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.pooled_bytes(), 0u);
}

TEST(AlignedBufferPoolTest, DifferentSizesDoNotAlias) {
  AlignedBufferPool pool(1 << 20);
  pool.Put(pool.Get(4096));
  AlignedBuffer b = pool.Get(8192);
  EXPECT_EQ(b.size(), 8192u);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.pooled_bytes(), 4096u);  // the 4 KB buffer is still pooled
}

TEST(AlignedBufferPoolTest, CapBoundsPooledBytes) {
  AlignedBufferPool pool(8192);
  pool.Put(pool.Get(4096));
  pool.Put(pool.Get(4096));
  pool.Put(pool.Get(4096));  // over cap: dropped, not pooled
  EXPECT_LE(pool.pooled_bytes(), 8192u);
}

TEST(AlignedBufferPoolTest, BuffersAreAligned) {
  AlignedBufferPool pool;
  AlignedBuffer b = pool.Get(12345);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % kIoAlignment, 0u);
  EXPECT_EQ(b.size(), 12345u);
}

}  // namespace
}  // namespace xstream
