// Property tests for the stream-buffer shuffler (paper §3.1, §4.2): every
// shuffle — any stage count, slice count, partition count — must preserve
// the exact multiset of records and group them contiguously by partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "buffers/shuffler.h"
#include "threads/concurrent_appender.h"
#include "threads/thread_pool.h"
#include "util/rng.h"

namespace xstream {
namespace {

struct Rec {
  uint32_t key;
  uint32_t payload;
  bool operator==(const Rec&) const = default;
};

std::vector<Rec> MakeRecords(uint64_t count, uint32_t num_partitions, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rec> recs(count);
  for (uint64_t i = 0; i < count; ++i) {
    recs[i] = Rec{static_cast<uint32_t>(rng.NextBounded(num_partitions)),
                  static_cast<uint32_t>(i)};
  }
  return recs;
}

// Checks a shuffle's output: (a) multiset preservation, (b) correct grouping.
void ExpectGroupedPermutation(const ShuffleOutput<Rec>& out, const std::vector<Rec>& input,
                              int threads, uint32_t partitions) {
  ASSERT_EQ(out.slices.size(), static_cast<size_t>(threads));
  EXPECT_EQ(out.TotalRecords(), input.size());

  // Grouping: within each slice, chunk p contains only key == p.
  std::multiset<std::pair<uint32_t, uint32_t>> seen;
  for (const auto& slice : out.slices) {
    ASSERT_EQ(slice.size(), partitions);
    for (uint32_t p = 0; p < partitions; ++p) {
      const ChunkRef& c = slice[p];
      for (uint64_t i = 0; i < c.count; ++i) {
        const Rec& r = out.data[c.begin + i];
        EXPECT_EQ(r.key, p);
        seen.insert({r.key, r.payload});
      }
    }
  }
  // Multiset preservation.
  std::multiset<std::pair<uint32_t, uint32_t>> expected;
  for (const Rec& r : input) {
    expected.insert({r.key, r.payload});
  }
  EXPECT_EQ(seen, expected);
}

// Runs a shuffle and checks its output.
void CheckShuffle(int threads, uint64_t count, uint32_t partitions, uint32_t fanout,
                  uint64_t seed) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " count=" + std::to_string(count) +
               " partitions=" + std::to_string(partitions) + " fanout=" + std::to_string(fanout));
  ThreadPool pool(threads);
  std::vector<Rec> input = MakeRecords(count, partitions, seed);
  std::vector<Rec> a = input;
  a.resize(count + 1);  // shuffler only touches [0, count)
  std::vector<Rec> b(count + 1);

  auto out = ShuffleRecords(pool, a.data(), b.data(), count, partitions, fanout,
                            [](const Rec& r) { return r.key; });
  ExpectGroupedPermutation(out, input, threads, partitions);
}

TEST(ShufflerTest, SingleThreadSingleStage) { CheckShuffle(1, 1000, 7, 16, 1); }

TEST(ShufflerTest, SingleThreadMultiStage) { CheckShuffle(1, 1000, 64, 4, 2); }

TEST(ShufflerTest, MultiThreadSingleStage) { CheckShuffle(4, 10000, 13, 16, 3); }

TEST(ShufflerTest, MultiThreadMultiStage) { CheckShuffle(4, 10000, 256, 8, 4); }

TEST(ShufflerTest, OnePartitionIsIdentityGrouping) { CheckShuffle(3, 500, 1, 2, 5); }

TEST(ShufflerTest, EmptyInput) { CheckShuffle(2, 0, 8, 4, 6); }

TEST(ShufflerTest, FewerRecordsThanSlices) { CheckShuffle(8, 3, 4, 4, 7); }

TEST(ShufflerTest, PartitionCountLargerThanRecords) { CheckShuffle(2, 10, 64, 8, 8); }

TEST(ShufflerTest, DeepTreeManyStages) {
  // fanout 2 over 256 partitions = 8 stages.
  CheckShuffle(2, 5000, 256, 2, 9);
}

// Parameterized sweep: the invariant must hold across the cross product of
// thread counts, partition counts and fanouts.
class ShuffleSweep : public ::testing::TestWithParam<std::tuple<int, uint32_t, uint32_t>> {};

TEST_P(ShuffleSweep, PreservesMultisetAndGroups) {
  auto [threads, partitions, fanout] = GetParam();
  CheckShuffle(threads, 4096, partitions, fanout, 1234 + partitions);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShuffleSweep,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1u, 2u, 8u, 32u, 128u),
                       ::testing::Values(2u, 4u, 16u, 1024u)),
    [](const auto& info) {
      std::string name = "t";
      name += std::to_string(std::get<0>(info.param)) + "_p" +
              std::to_string(std::get<1>(info.param)) + "_f" +
              std::to_string(std::get<2>(info.param));
      return name;
    });

// The cache-aware staged shuffle (--stage-bytes) replaces the fused counting
// pass for single-stage shuffles; its output must be byte-identical to the
// legacy path — same record placement, same slice chunk boundaries — so the
// two are interchangeable under any engine.
void CheckStagedEquivalence(int threads, uint64_t count, uint32_t partitions,
                            size_t stage_bytes, uint64_t seed) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " count=" + std::to_string(count) +
               " partitions=" + std::to_string(partitions) +
               " stage_bytes=" + std::to_string(stage_bytes));
  ThreadPool pool(threads);
  std::vector<Rec> input = MakeRecords(count, partitions, seed);
  auto part_of = [](const Rec& r) { return r.key; };
  // Fanout >= partitions forces the single-stage plan on both paths.
  const uint32_t fanout = 1u << 16;

  std::vector<Rec> a_legacy = input, a_staged = input;
  a_legacy.resize(count + 1);
  a_staged.resize(count + 1);
  std::vector<Rec> b_legacy(count + 1), b_staged(count + 1);
  auto legacy = ShuffleRecords(pool, a_legacy.data(), b_legacy.data(), count, partitions,
                               fanout, part_of, /*stage_bytes=*/0);
  auto staged = ShuffleRecords(pool, a_staged.data(), b_staged.data(), count, partitions,
                               fanout, part_of, stage_bytes);
  // A single partition legitimately runs zero stages on both paths; anything
  // else must plan exactly one (fanout >= partitions above).
  ASSERT_EQ(legacy.stages_run, partitions > 1 ? 1 : 0);
  ASSERT_EQ(staged.stages_run, legacy.stages_run);
  for (uint64_t i = 0; i < count; ++i) {
    ASSERT_EQ(legacy.data[i], staged.data[i]) << "record " << i << " diverged";
  }
  ASSERT_EQ(legacy.slices.size(), staged.slices.size());
  for (size_t s = 0; s < legacy.slices.size(); ++s) {
    ASSERT_EQ(legacy.slices[s].size(), staged.slices[s].size());
    for (size_t p = 0; p < legacy.slices[s].size(); ++p) {
      EXPECT_EQ(legacy.slices[s][p].begin, staged.slices[s][p].begin);
      EXPECT_EQ(legacy.slices[s][p].count, staged.slices[s][p].count);
    }
  }
}

TEST(StagedShuffleTest, MatchesLegacySingleThread) {
  CheckStagedEquivalence(1, 5000, 13, 64 << 10, 21);
}

TEST(StagedShuffleTest, MatchesLegacyMultiThread) {
  CheckStagedEquivalence(4, 20000, 37, 256 << 10, 22);
}

TEST(StagedShuffleTest, TinyBlocksForceConstantFlushing) {
  // stage_bytes small enough that every staging block holds one record:
  // exercises the flush path on every scatter step.
  CheckStagedEquivalence(3, 4000, 29, 64, 23);
}

TEST(StagedShuffleTest, SinglePartition) { CheckStagedEquivalence(2, 1000, 1, 32 << 10, 24); }

TEST(StagedShuffleTest, EmptyInput) { CheckStagedEquivalence(2, 0, 8, 32 << 10, 25); }

TEST(StagedShuffleTest, FewerRecordsThanSlices) {
  CheckStagedEquivalence(8, 3, 4, 32 << 10, 26);
}

class StagedSweep : public ::testing::TestWithParam<std::tuple<int, uint32_t, size_t>> {};

TEST_P(StagedSweep, ByteIdenticalToLegacy) {
  auto [threads, partitions, stage_bytes] = GetParam();
  CheckStagedEquivalence(threads, 4096, partitions, stage_bytes, 4321 + partitions);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StagedSweep,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1u, 2u, 8u, 32u, 128u),
                       ::testing::Values(size_t{256}, size_t{16} << 10, size_t{1} << 20)),
    [](const auto& info) {
      std::string name = "t";
      name += std::to_string(std::get<0>(info.param)) + "_p" +
              std::to_string(std::get<1>(info.param)) + "_s" +
              std::to_string(std::get<2>(info.param));
      return name;
    });

TEST(ShufflerTest, StageCountMatchesCeilLogFanout) {
  ThreadPool pool(2);
  std::vector<Rec> recs = MakeRecords(1000, 64, 11);
  std::vector<Rec> b(1000);
  auto out = ShuffleRecords(pool, recs.data(), b.data(), 1000, 64u, 4u,
                            [](const Rec& r) { return r.key; });
  EXPECT_EQ(out.stages_run, 3);  // log_4(64) = 3
  auto out1 = ShuffleRecords(pool, recs.data(), b.data(), 1000, 64u, 64u,
                             [](const Rec& r) { return r.key; });
  EXPECT_EQ(out1.stages_run, 1);
}

// The in-memory engine's path: scatter appends records into the tree's
// top-level buckets (BucketedAppender), then ShuffleLevels runs the levels
// below from those per-thread chunk lists.
void CheckBucketedThenLevels(int threads, uint64_t count, uint32_t partitions, uint32_t fanout,
                             uint64_t seed) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " partitions=" +
               std::to_string(partitions) + " fanout=" + std::to_string(fanout));
  ThreadPool pool(threads);
  std::vector<Rec> input = MakeRecords(count, partitions, seed);
  std::vector<Rec> a(count), b(count);
  const uint32_t shift = CeilLog2(partitions) - CeilLog2(fanout);
  // A 256-byte stage budget keeps blocks tiny, so nodes span many chunks.
  BucketedAppender<Rec> app(a, threads, fanout, 256);
  pool.ParallelForTid(0, count, 97, [&](int tid, uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      app.Append(tid, input[i].key >> shift, input[i]);
    }
  });
  app.FlushAll();
  auto out = ShuffleLevels(pool, a.data(), b.data(), app.chunks(), partitions, fanout,
                           CeilLog2(fanout), [](const Rec& r) { return r.key; });
  EXPECT_EQ(out.stages_run, ShuffleStages(partitions, fanout) - 1);
  ExpectGroupedPermutation(out, input, threads, partitions);
}

TEST(ShuffleLevelsTest, OneLevelBelowBucketedTop) { CheckBucketedThenLevels(4, 10000, 16, 4, 31); }

TEST(ShuffleLevelsTest, ManyLevelsBelowBucketedTop) {
  CheckBucketedThenLevels(1, 5000, 256, 2, 32);  // 7 levels after scatter
  CheckBucketedThenLevels(3, 8000, 1024, 8, 33);
}

// ShuffleRecordsFrom reads a wider record than it writes (the stores'
// Edge -> EdgePair setup shuffles): the narrow output must sit exactly where
// ShuffleRecords puts the wide records, on every path — legacy and staged
// single stage, multi-stage, one partition — and the input stays untouched.
struct Wide {
  uint32_t key;
  uint32_t payload;
  float dropped;
};
struct Narrow {
  uint32_t key = 0;
  uint32_t payload = 0;
  Narrow() = default;
  explicit Narrow(const Wide& w) : key(w.key), payload(w.payload) {}
};

void CheckNarrowingShuffle(int threads, uint64_t count, uint32_t partitions, uint32_t fanout,
                           size_t stage_bytes, uint64_t seed) {
  SCOPED_TRACE("threads=" + std::to_string(threads) + " partitions=" +
               std::to_string(partitions) + " fanout=" + std::to_string(fanout) +
               " stage_bytes=" + std::to_string(stage_bytes));
  ThreadPool pool(threads);
  std::vector<Wide> input(count);
  for (const Rec& r : MakeRecords(count, partitions, seed)) {
    input[r.payload] = Wide{r.key, r.payload, 0.5f};
  }
  const std::vector<Wide> original = input;
  auto part_of = [](const auto& r) { return r.key; };

  std::vector<Wide> wa = input, wb(count + 1);
  wa.resize(count + 1);
  auto wide = ShuffleRecords(pool, wa.data(), wb.data(), count, partitions, fanout, part_of,
                             stage_bytes);
  std::vector<Narrow> na(count + 1), nb(count + 1);
  auto narrow = ShuffleRecordsFrom(pool, input.data(), na.data(), nb.data(), count, partitions,
                                   fanout, part_of, stage_bytes);

  EXPECT_TRUE(std::equal(input.begin(), input.end(), original.begin(),
                         [](const Wide& x, const Wide& y) { return x.payload == y.payload; }));
  ASSERT_EQ(narrow.stages_run, wide.stages_run);
  ASSERT_EQ(narrow.slices.size(), wide.slices.size());
  for (size_t s = 0; s < wide.slices.size(); ++s) {
    for (uint32_t p = 0; p < partitions; ++p) {
      const ChunkRef& c = wide.slices[s][p];
      ASSERT_EQ(narrow.slices[s][p].begin, c.begin);
      ASSERT_EQ(narrow.slices[s][p].count, c.count);
      for (uint64_t i = c.begin; i < c.begin + c.count; ++i) {
        ASSERT_EQ(narrow.data[i].key, wide.data[i].key) << "record " << i;
        ASSERT_EQ(narrow.data[i].payload, wide.data[i].payload) << "record " << i;
      }
    }
  }
}

TEST(ShuffleFromTest, NarrowingShuffleMatchesTheWideShuffle) {
  CheckNarrowingShuffle(1, 3000, 13, 16, 0, 41);         // legacy single stage
  CheckNarrowingShuffle(4, 10000, 13, 16, 0, 42);
  CheckNarrowingShuffle(4, 10000, 13, 16, 32 << 10, 43);  // staged single stage
  CheckNarrowingShuffle(4, 10000, 64, 4, 0, 44);          // three stages
  CheckNarrowingShuffle(2, 10000, 16, 4, 0, 45);          // two stages
  CheckNarrowingShuffle(3, 500, 1, 2, 0, 46);             // one partition: a copy
  CheckNarrowingShuffle(2, 0, 8, 8, 0, 47);               // empty
}

TEST(CeilLog2Test, Values) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

}  // namespace
}  // namespace xstream
