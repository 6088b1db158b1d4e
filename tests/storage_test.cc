// Tests for the storage substrate: SimDevice semantics and service-time
// model, RAID-0 striping, PosixDevice on a real filesystem (its O_DIRECT
// descriptor included), and the prefetching stream reader/writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "storage/posix_device.h"
#include "storage/raid_device.h"
#include "storage/sim_device.h"
#include "storage/stream_io.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace xstream {
namespace {

std::vector<std::byte> Pattern(size_t n, uint8_t seed) {
  std::vector<std::byte> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((seed + i * 7) & 0xff);
  }
  return data;
}

// ---------------------------------------------------------------- SimDevice

TEST(SimDeviceTest, WriteReadRoundtrip) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  auto data = Pattern(1000, 1);
  dev.Write(f, 0, data);
  std::vector<std::byte> out(1000);
  dev.Read(f, 0, out);
  EXPECT_EQ(out, data);
}

TEST(SimDeviceTest, AppendExtendsAndReturnsOffset) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  auto a = Pattern(100, 2);
  auto b = Pattern(50, 3);
  EXPECT_EQ(dev.Append(f, a), 0u);
  EXPECT_EQ(dev.Append(f, b), 100u);
  EXPECT_EQ(dev.FileSize(f), 150u);
  std::vector<std::byte> out(50);
  dev.Read(f, 100, out);
  EXPECT_EQ(out, b);
}

TEST(SimDeviceTest, SparseWriteZeroFills) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  auto data = Pattern(10, 4);
  dev.Write(f, 100, data);
  EXPECT_EQ(dev.FileSize(f), 110u);
  std::vector<std::byte> out(10);
  dev.Read(f, 0, out);
  for (auto b : out) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(SimDeviceTest, TruncateShrinksAndRemoveDeletes) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(1000, 5));
  dev.Truncate(f, 10);
  EXPECT_EQ(dev.FileSize(f), 10u);
  dev.Truncate(f, 100);  // truncate never grows
  EXPECT_EQ(dev.FileSize(f), 10u);
  EXPECT_TRUE(dev.Exists("x"));
  dev.Remove("x");
  EXPECT_FALSE(dev.Exists("x"));
}

TEST(SimDeviceTest, CreateTruncatesExisting) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(100, 6));
  FileId f2 = dev.Create("x");
  EXPECT_EQ(dev.FileSize(f2), 0u);
}

TEST(SimDeviceTest, StatsCountBytesAndRequests) {
  SimDevice dev("d", DeviceProfile::Hdd());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(4096, 7));
  std::vector<std::byte> out(1024);
  dev.Read(f, 0, out);
  dev.Read(f, 1024, out);
  DeviceStats s = dev.stats();
  EXPECT_EQ(s.bytes_written, 4096u);
  EXPECT_EQ(s.bytes_read, 2048u);
  EXPECT_EQ(s.write_requests, 1u);
  EXPECT_EQ(s.read_requests, 2u);
  EXPECT_GT(s.busy_seconds, 0.0);
}

TEST(SimDeviceTest, ContiguousReadsAvoidSeeks) {
  SimDevice dev("d", DeviceProfile::Hdd());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(64 * 1024, 8));
  dev.ResetStats();
  // Sequential chunks: only the first is a seek.
  std::vector<std::byte> buf(16 * 1024);
  for (int i = 0; i < 4; ++i) {
    dev.Read(f, static_cast<uint64_t>(i) * buf.size(), buf);
  }
  EXPECT_EQ(dev.stats().seeks, 1u);
  // Random order: every request seeks.
  dev.ResetStats();
  for (int i = 3; i >= 0; --i) {
    dev.Read(f, static_cast<uint64_t>(i) * buf.size(), buf);
  }
  EXPECT_EQ(dev.stats().seeks, 4u);
}

TEST(SimDeviceTest, SequentialBeatsRandomPerProfile) {
  for (auto profile : {DeviceProfile::Hdd(), DeviceProfile::Ssd()}) {
    SimDevice dev("d", profile);
    FileId f = dev.Create("x");
    std::vector<std::byte> chunk(4096);
    uint64_t total = 1 << 20;
    for (uint64_t off = 0; off < total; off += chunk.size()) {
      dev.Write(f, off, chunk);
    }
    dev.ResetStats();
    for (uint64_t off = 0; off < total; off += chunk.size()) {
      dev.Read(f, off, chunk);
    }
    double seq = dev.stats().busy_seconds;
    dev.ResetStats();
    Rng rng(3);
    for (uint64_t i = 0; i < total / chunk.size(); ++i) {
      dev.Read(f, rng.NextBounded(total / chunk.size()) * chunk.size(), chunk);
    }
    double rnd = dev.stats().busy_seconds;
    EXPECT_GT(rnd, seq * 5) << profile.name;
  }
}

TEST(SimDeviceTest, HddSeeksCostMoreThanSsd) {
  SimDevice hdd("h", DeviceProfile::Hdd());
  SimDevice ssd("s", DeviceProfile::Ssd());
  for (SimDevice* dev : {&hdd, &ssd}) {
    FileId f = dev->Create("x");
    std::vector<std::byte> chunk(4096);
    for (int i = 0; i < 256; ++i) {
      dev->Write(f, static_cast<uint64_t>(i) * 4096, chunk);
    }
    dev->ResetStats();
    Rng rng(5);
    for (int i = 0; i < 256; ++i) {
      dev->Read(f, rng.NextBounded(256) * 4096, chunk);
    }
  }
  EXPECT_GT(hdd.stats().busy_seconds, 10 * ssd.stats().busy_seconds);
}

TEST(SimDeviceTest, TimelineRecordsRequests) {
  SimDevice dev("d", DeviceProfile::Ssd());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(1024, 9));
  std::vector<std::byte> out(1024);
  dev.Read(f, 0, out);
  auto timeline = dev.TakeTimeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_TRUE(timeline[0].write);
  EXPECT_FALSE(timeline[1].write);
  EXPECT_LT(timeline[0].time, timeline[1].time);
  // Drained: second call is empty.
  EXPECT_TRUE(dev.TakeTimeline().empty());
}

TEST(SimDeviceTest, ReadPastEofAborts) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(10, 10));
  std::vector<std::byte> out(20);
  EXPECT_DEATH(dev.Read(f, 0, out), "read past EOF");
}

// ---------------------------------------------------------------- RAID-0

TEST(RaidDeviceTest, RoundtripAcrossStripeBoundaries) {
  SimDevice a("a", DeviceProfile::Instant());
  SimDevice b("b", DeviceProfile::Instant());
  RaidDevice raid("r", {&a, &b}, /*stripe_bytes=*/1024);
  FileId f = raid.Create("x");
  auto data = Pattern(10000, 11);  // ~10 stripes
  raid.Write(f, 0, data);
  std::vector<std::byte> out(10000);
  raid.Read(f, 0, out);
  EXPECT_EQ(out, data);
  // Unaligned read spanning several stripes.
  std::vector<std::byte> mid(3000);
  raid.Read(f, 500, mid);
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), data.begin() + 500));
}

TEST(RaidDeviceTest, DistributesBytesAcrossChildren) {
  SimDevice a("a", DeviceProfile::Instant());
  SimDevice b("b", DeviceProfile::Instant());
  RaidDevice raid("r", {&a, &b}, 1024);
  FileId f = raid.Create("x");
  raid.Write(f, 0, Pattern(8192, 12));
  EXPECT_EQ(a.stats().bytes_written, 4096u);
  EXPECT_EQ(b.stats().bytes_written, 4096u);
}

TEST(RaidDeviceTest, AppendTracksLogicalSize) {
  SimDevice a("a", DeviceProfile::Instant());
  SimDevice b("b", DeviceProfile::Instant());
  RaidDevice raid("r", {&a, &b}, 1024);
  FileId f = raid.Create("x");
  EXPECT_EQ(raid.Append(f, Pattern(1500, 13)), 0u);
  EXPECT_EQ(raid.Append(f, Pattern(100, 14)), 1500u);
  EXPECT_EQ(raid.FileSize(f), 1600u);
}

TEST(RaidDeviceTest, TruncatePropagatesToChildren) {
  SimDevice a("a", DeviceProfile::Instant());
  SimDevice b("b", DeviceProfile::Instant());
  RaidDevice raid("r", {&a, &b}, 1024);
  FileId f = raid.Create("x");
  auto data = Pattern(4096, 15);
  raid.Write(f, 0, data);
  raid.Truncate(f, 1536);  // stripe 0 on a (1024) + 512 into stripe 1 on b
  EXPECT_EQ(raid.FileSize(f), 1536u);
  EXPECT_EQ(a.FileSize(a.Open("x")), 1024u);
  EXPECT_EQ(b.FileSize(b.Open("x")), 512u);
  // Re-extend and verify the surviving prefix.
  std::vector<std::byte> out(1536);
  raid.Read(f, 0, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
}

TEST(RaidDeviceTest, BusyIsMaxOfChildren) {
  SimDevice a("a", DeviceProfile::Hdd());
  SimDevice b("b", DeviceProfile::Hdd());
  RaidDevice raid("r", {&a, &b}, 1024);
  FileId f = raid.Create("x");
  raid.Write(f, 0, Pattern(64 * 1024, 16));
  DeviceStats s = raid.stats();
  EXPECT_DOUBLE_EQ(s.busy_seconds,
                   std::max(a.stats().busy_seconds, b.stats().busy_seconds));
  EXPECT_EQ(s.bytes_written, 64u * 1024);
}

// ---------------------------------------------------------------- PosixDevice

TEST(PosixDeviceTest, RoundtripOnRealFilesystem) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path());
  FileId f = dev.Create("data.bin");
  auto data = Pattern(100000, 17);
  dev.Write(f, 0, data);
  std::vector<std::byte> out(100000);
  dev.Read(f, 0, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(dev.FileSize(f), 100000u);
}

TEST(PosixDeviceTest, AppendAndTruncate) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path());
  FileId f = dev.Create("x");
  dev.Append(f, Pattern(100, 18));
  dev.Append(f, Pattern(100, 19));
  EXPECT_EQ(dev.FileSize(f), 200u);
  dev.Truncate(f, 50);
  EXPECT_EQ(dev.FileSize(f), 50u);
}

TEST(PosixDeviceTest, ReopenSeesPersistedData) {
  ScratchDir scratch("xs-test");
  auto data = Pattern(5000, 20);
  {
    PosixDevice dev("p", scratch.path());
    FileId f = dev.Create("persist.bin");
    dev.Write(f, 0, data);
  }
  PosixDevice dev2("p2", scratch.path());
  EXPECT_TRUE(dev2.Exists("persist.bin"));
  FileId f = dev2.Open("persist.bin");
  EXPECT_EQ(dev2.FileSize(f), 5000u);
  std::vector<std::byte> out(5000);
  dev2.Read(f, 0, out);
  EXPECT_EQ(out, data);
}

TEST(PosixDeviceTest, RemoveDeletesFromDisk) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path());
  FileId f = dev.Create("gone.bin");
  dev.Write(f, 0, Pattern(10, 21));
  dev.Remove("gone.bin");
  EXPECT_FALSE(dev.Exists("gone.bin"));
}

// The cases below run on try_direct devices: unaligned requests take the
// buffered descriptor beside the O_DIRECT one.

TEST(PosixDeviceTest, WritePastEofExtendsTheFile) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path(), /*try_direct=*/true);
  FileId f = dev.Create("x");
  auto data = Pattern(12345, 22);
  dev.Write(f, 777, data);
  EXPECT_EQ(dev.FileSize(f), 13122u);
  std::vector<std::byte> out(data.size());
  dev.Read(f, 777, out);
  EXPECT_EQ(out, data);
}

TEST(PosixDeviceTest, AppendsReturnRunningOffsets) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path(), /*try_direct=*/true);
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

TEST(PosixDeviceTest, StatsCountTransferredBytes) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path(), /*try_direct=*/true);
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(50000, 23));
  std::vector<std::byte> out(50000);
  dev.Read(f, 0, out);
  DeviceStats s = dev.stats();
  EXPECT_EQ(s.bytes_written, 50000u);
  EXPECT_EQ(s.bytes_read, 50000u);
}

TEST(PosixDeviceTest, DirectPrefixReadsBackThroughABufferedDevice) {
  // The aligned 1 MiB prefix takes the O_DIRECT descriptor where the
  // filesystem accepts it (direct_io_active() says whether it did); the
  // 17-byte tail takes the buffered one. Both must land in one file that a
  // plain buffered device reads back byte for byte.
  ScratchDir scratch("xs-test");
  PosixDevice direct("d", scratch.path(), /*try_direct=*/true);
  FileId f = direct.Create("mixed.bin");
  auto expected = Pattern(1 << 20, 24);
  AlignedBuffer prefix(expected.size());
  std::memcpy(prefix.data(), expected.data(), expected.size());
  direct.Write(f, 0, prefix.span());
  auto tail = Pattern(17, 25);
  EXPECT_EQ(direct.Append(f, tail), prefix.size());
  expected.insert(expected.end(), tail.begin(), tail.end());
  if (!direct.direct_io_active()) {
    std::printf("note: O_DIRECT refused here; the prefix went through the buffered fd\n");
  }

  AlignedBuffer direct_read(prefix.size());
  direct.Read(f, 0, direct_read.span());
  EXPECT_EQ(std::memcmp(direct_read.data(), prefix.data(), prefix.size()), 0);

  PosixDevice buffered("b", scratch.path());
  FileId g = buffered.Open("mixed.bin");
  ASSERT_EQ(buffered.FileSize(g), expected.size());
  std::vector<std::byte> out(expected.size());
  buffered.Read(g, 0, out);
  EXPECT_EQ(out, expected);
}

TEST(ScratchDirTest, CleansUpOnDestruction) {
  std::string path;
  {
    ScratchDir scratch("xs-test");
    path = scratch.path();
    PosixDevice dev("p", path);
    dev.Create("junk");
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------- stream I/O

TEST(StreamIoTest, ReaderStreamsWholeFileInChunks) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  auto data = Pattern(10000, 22);
  dev.Write(f, 0, data);
  StreamReader reader(dev, f, 1024);
  std::vector<std::byte> got;
  for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, data);
}

TEST(StreamIoTest, ReaderHandlesExactMultiple) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(4096, 23));
  StreamReader reader(dev, f, 1024);
  int chunks = 0;
  for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
    EXPECT_EQ(chunk.size(), 1024u);
    ++chunks;
  }
  EXPECT_EQ(chunks, 4);
}

TEST(StreamIoTest, ReaderOnEmptyFile) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  StreamReader reader(dev, f, 1024);
  EXPECT_TRUE(reader.Next().empty());
}

TEST(StreamIoTest, WriterBuffersAndFlushes) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  auto data = Pattern(10000, 24);
  {
    StreamWriter writer(dev, f, 1024);
    // Append in awkward sizes crossing buffer boundaries.
    size_t off = 0;
    for (size_t sz : {100u, 999u, 1025u, 3000u, 4876u}) {
      writer.Append(std::span<const std::byte>(data.data() + off, sz));
      off += sz;
    }
    writer.Finish();
    EXPECT_EQ(writer.bytes_written(), 10000u);
  }
  std::vector<std::byte> out(10000);
  dev.Read(f, 0, out);
  EXPECT_EQ(out, data);
}

TEST(StreamIoTest, WriterAppendRecord) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("x");
  struct Rec {
    uint32_t a, b;
  };
  {
    StreamWriter writer(dev, f, 64);
    for (uint32_t i = 0; i < 100; ++i) {
      writer.AppendRecord(Rec{i, i * 2});
    }
  }  // destructor finishes
  EXPECT_EQ(dev.FileSize(f), 100 * sizeof(Rec));
  std::vector<Rec> out(100);
  dev.Read(f, 0, std::span<std::byte>(reinterpret_cast<std::byte*>(out.data()),
                                      out.size() * sizeof(Rec)));
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i].a, i);
    EXPECT_EQ(out[i].b, i * 2);
  }
}

TEST(StreamIoTest, ReaderSequentialRequestsMostlyAvoidSeeks) {
  SimDevice dev("d", DeviceProfile::Hdd());
  FileId f = dev.Create("x");
  dev.Write(f, 0, Pattern(64 * 1024, 25));
  dev.ResetStats();
  StreamReader reader(dev, f, 4096);
  while (!reader.Next().empty()) {
  }
  // All 16 chunk reads after the first are contiguous.
  EXPECT_EQ(dev.stats().seeks, 1u);
  EXPECT_EQ(dev.stats().read_requests, 16u);
}

TEST(StreamIoTest, RoundtripThroughPosixDevice) {
  ScratchDir scratch("xs-test");
  PosixDevice dev("p", scratch.path());
  FileId f = dev.Create("stream.bin");
  auto data = Pattern(100000, 26);
  {
    StreamWriter writer(dev, f, 4096);
    writer.Append(data);
  }
  StreamReader reader(dev, f, 8192);
  std::vector<std::byte> got;
  for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, data);
}

}  // namespace
}  // namespace xstream
