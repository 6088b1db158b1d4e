// StreamCodec (--compress-updates) round-trip and framing tests: delta+varint
// encoded update chunks must decode to the exact input records — any id
// order, any payload mix, any partition layout, any byte-window split on the
// decode side — and constant-payload frames must actually shrink the stream.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/partition.h"
#include "core/stream_codec.h"
#include "graph/types.h"
#include "util/rng.h"

namespace xstream {
namespace {

struct TestUpdate {
  VertexId dst;
  uint32_t payload;
  bool operator==(const TestUpdate&) const = default;
};

// Decodes `encoded` by feeding windows of `window` bytes (0 = all at once)
// and returns the concatenated records.
template <typename Update>
std::vector<Update> DecodeAll(const StreamCodec<Update>& codec, uint32_t p,
                              const std::vector<std::byte>& encoded, size_t window = 0) {
  typename StreamCodec<Update>::Decoder decoder(&codec, p);
  std::vector<Update> out;
  auto sink = [&out](const Update* recs, uint64_t n) {
    out.insert(out.end(), recs, recs + n);
  };
  if (window == 0) {
    decoder.Feed(std::span<const std::byte>(encoded), sink);
  } else {
    for (size_t off = 0; off < encoded.size(); off += window) {
      size_t len = std::min(window, encoded.size() - off);
      decoder.Feed(std::span<const std::byte>(encoded.data() + off, len), sink);
    }
  }
  EXPECT_TRUE(decoder.Finished()) << "stream did not end on a frame boundary";
  return out;
}

TEST(StreamCodecTest, RoundTripRangeLayout) {
  PartitionLayout layout(1000, 4);  // partitions of 250
  StreamCodec<TestUpdate> codec(&layout, 64);
  std::vector<TestUpdate> recs;
  for (VertexId v = 250; v < 500; ++v) {  // partition 1
    recs.push_back({v, v * 3});
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(1, recs.data(), recs.size(), enc);
  EXPECT_EQ(DecodeAll(codec, 1, enc), recs);
}

TEST(StreamCodecTest, EmptyChunkEncodesToNothing) {
  PartitionLayout layout(100, 2);
  StreamCodec<TestUpdate> codec(&layout, 16);
  std::vector<std::byte> enc;
  codec.EncodeChunk(0, nullptr, 0, enc);
  EXPECT_TRUE(enc.empty());
  EXPECT_TRUE(DecodeAll(codec, 0, enc).empty());
}

TEST(StreamCodecTest, NonMonotoneIdsRoundTrip) {
  // The codec never assumes sorted destinations: scatter emits updates in
  // edge order, and the shuffle groups without sorting.
  PartitionLayout layout(1 << 20, 1);
  StreamCodec<TestUpdate> codec(&layout, 32);
  Rng rng(7);
  std::vector<TestUpdate> recs(1000);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<VertexId>(rng.NextBounded(1 << 20)),
               static_cast<uint32_t>(rng.Next())};
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(0, recs.data(), recs.size(), enc);
  EXPECT_EQ(DecodeAll(codec, 0, enc), recs);
}

TEST(StreamCodecTest, MaxWidthDeltasRoundTrip) {
  // Alternating extremes of a 2^31-vertex range produce the widest zigzag
  // deltas a VertexId can generate (~|2^31| each way, 5-byte varints).
  const uint64_t n = uint64_t{1} << 31;
  PartitionLayout layout(n, 1);
  StreamCodec<TestUpdate> codec(&layout, 8);
  std::vector<TestUpdate> recs;
  for (int i = 0; i < 100; ++i) {
    VertexId v = (i % 2 == 0) ? 0 : static_cast<VertexId>(n - 1);
    recs.push_back({v, static_cast<uint32_t>(i)});
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(0, recs.data(), recs.size(), enc);
  EXPECT_EQ(DecodeAll(codec, 0, enc), recs);
}

TEST(StreamCodecTest, SplitFeedByteByByte) {
  PartitionLayout layout(500, 2);
  StreamCodec<TestUpdate> codec(&layout, 10);  // several frames
  std::vector<TestUpdate> recs;
  for (VertexId v = 0; v < 250; ++v) {
    recs.push_back({v, v ^ 0xdeadu});
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(0, recs.data(), recs.size(), enc);
  for (size_t window : {size_t{1}, size_t{3}, size_t{7}, size_t{64}, enc.size()}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    EXPECT_EQ(DecodeAll(codec, 0, enc, window), recs);
  }
}

TEST(StreamCodecTest, FrameGranularityMatchesFrameRecords) {
  PartitionLayout layout(1000, 1);
  StreamCodec<TestUpdate> codec(&layout, 16);
  std::vector<TestUpdate> recs(100);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<VertexId>(i), 1u};
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(0, recs.data(), recs.size(), enc);
  // Sink must fire once per frame: ceil(100/16) = 7 frames, last of 4.
  typename StreamCodec<TestUpdate>::Decoder decoder(&codec, 0);
  std::vector<uint64_t> frame_sizes;
  decoder.Feed(std::span<const std::byte>(enc),
               [&](const TestUpdate*, uint64_t n) { frame_sizes.push_back(n); });
  ASSERT_TRUE(decoder.Finished());
  ASSERT_EQ(frame_sizes.size(), 7u);
  for (size_t i = 0; i + 1 < frame_sizes.size(); ++i) {
    EXPECT_EQ(frame_sizes[i], 16u);
  }
  EXPECT_EQ(frame_sizes.back(), 4u);
}

TEST(StreamCodecTest, ConstantPayloadFramesCompress) {
  // A BFS wave emits one level for every destination: the whole frame's
  // payload column collapses to a single copy, which is what carries the
  // >= 2x ratio on traversal workloads.
  PartitionLayout layout(1 << 16, 1);
  StreamCodec<TestUpdate> codec(&layout, 512);
  std::vector<TestUpdate> recs(4096);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<VertexId>(i * 3 % (1 << 16)), 42u};
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(0, recs.data(), recs.size(), enc);
  EXPECT_LT(enc.size() * 2, recs.size() * sizeof(TestUpdate))
      << "constant-payload frames should beat 2x";
  EXPECT_EQ(DecodeAll(codec, 0, enc), recs);
}

TEST(StreamCodecTest, MappedLayoutRoundTripsThroughDenseIds) {
  // A relabeling permutation: the codec deltas dense ids and the decoder maps
  // them back through OriginalId, so the round trip must hold for any
  // bijective mapping.
  const uint32_t n = 64;
  auto mapping = std::make_shared<VertexMapping>();
  mapping->num_partitions = 2;
  mapping->partition_of.resize(n);
  mapping->dense_of.resize(n);
  mapping->original_of.resize(n);
  // Evens get dense slots [0, 32) in partition 0, odds [32, 64) in 1.
  for (VertexId v = 0; v < n; ++v) {
    uint32_t p = v % 2;
    VertexId dense = (v / 2) + p * (n / 2);
    mapping->partition_of[v] = p;
    mapping->dense_of[v] = dense;
    mapping->original_of[dense] = v;
  }
  mapping->part_begin = {0, n / 2, n};
  PartitionLayout layout(std::move(mapping));
  StreamCodec<TestUpdate> codec(&layout, 8);

  for (uint32_t p = 0; p < 2; ++p) {
    SCOPED_TRACE("partition=" + std::to_string(p));
    std::vector<TestUpdate> recs;
    for (VertexId v = 0; v < n; ++v) {
      if (v % 2 == p) {
        recs.push_back({v, v * 7u});
      }
    }
    std::vector<std::byte> enc;
    codec.EncodeChunk(p, recs.data(), recs.size(), enc);
    EXPECT_EQ(DecodeAll(codec, p, enc, 5), recs);
  }
}

TEST(StreamCodecTest, ConcatenatedChunksDecodeAsOneStream) {
  // Spills append independently encoded chunks to the same update file; the
  // decoder must read the concatenation as one stream.
  PartitionLayout layout(1000, 1);
  StreamCodec<TestUpdate> codec(&layout, 16);
  std::vector<TestUpdate> all;
  std::vector<std::byte> enc;
  Rng rng(11);
  for (int chunk = 0; chunk < 5; ++chunk) {
    std::vector<TestUpdate> recs(200 + chunk);
    for (size_t i = 0; i < recs.size(); ++i) {
      recs[i] = {static_cast<VertexId>(rng.NextBounded(1000)),
                 static_cast<uint32_t>(rng.Next())};
    }
    codec.EncodeChunk(0, recs.data(), recs.size(), enc);
    all.insert(all.end(), recs.begin(), recs.end());
  }
  EXPECT_EQ(DecodeAll(codec, 0, enc, 97), all);
}

struct PayloadlessUpdate {
  VertexId dst;
  bool operator==(const PayloadlessUpdate&) const = default;
};

TEST(StreamCodecTest, PayloadlessUpdatesRoundTrip) {
  // Some algorithms' updates are the bare destination id (kPayloadBytes==0).
  PartitionLayout layout(4096, 4);
  StreamCodec<PayloadlessUpdate> codec(&layout, 32);
  std::vector<PayloadlessUpdate> recs;
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    recs.push_back({static_cast<VertexId>(1024 + rng.NextBounded(1024))});  // partition 1
  }
  std::vector<std::byte> enc;
  codec.EncodeChunk(1, recs.data(), recs.size(), enc);
  EXPECT_LT(enc.size(), recs.size() * sizeof(PayloadlessUpdate));
  EXPECT_EQ(DecodeAll(codec, 1, enc, 13), recs);
}

TEST(StreamCodecTest, VarintRoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128}, uint64_t{300},
                     uint64_t{1} << 21, (uint64_t{1} << 35) - 1, ~uint64_t{0}}) {
    std::vector<std::byte> buf;
    PutVarint(v, buf);
    const std::byte* p = buf.data();
    EXPECT_EQ(GetVarint(p, buf.data() + buf.size()), v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(StreamCodecTest, ZigZagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{INT32_MAX},
                    -int64_t{INT32_MAX} - 1, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(UnZigZag(ZigZag(v)), v);
  }
  // Small magnitudes map to small codes (the point of zigzag).
  EXPECT_LE(ZigZag(-1), uint64_t{1});
  EXPECT_LE(ZigZag(1), uint64_t{2});
}

// Property sweep: random ids, random payloads (mixed constant and varied
// frames), random frame sizes and feed windows.
class CodecSweep : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(CodecSweep, RoundTrips) {
  auto [frame_records, window] = GetParam();
  PartitionLayout layout(1 << 18, 4);
  StreamCodec<TestUpdate> codec(&layout, frame_records);
  Rng rng(100 + frame_records + window);
  for (uint32_t p = 0; p < 4; ++p) {
    uint64_t n = rng.NextBounded(2000);
    std::vector<TestUpdate> recs(n);
    VertexId lo = layout.Begin(p);
    VertexId span = layout.End(p) - lo;
    bool constant = rng.NextBounded(2) == 0;
    for (uint64_t i = 0; i < n; ++i) {
      recs[i] = {lo + static_cast<VertexId>(rng.NextBounded(span)),
                 constant ? 5u : static_cast<uint32_t>(rng.Next())};
    }
    std::vector<std::byte> enc;
    codec.EncodeChunk(p, recs.data(), n, enc);
    EXPECT_EQ(DecodeAll(codec, p, enc, window), recs);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodecSweep,
                         ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{7},
                                                              uint64_t{64}, uint64_t{4096}),
                                            ::testing::Values(size_t{0}, size_t{1},
                                                              size_t{11}, size_t{4096})),
                         [](const auto& info) {
                           std::string name = "f";
                           name += std::to_string(std::get<0>(info.param)) + "_w" +
                                   std::to_string(std::get<1>(info.param));
                           return name;
                         });

}  // namespace
}  // namespace xstream
