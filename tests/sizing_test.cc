// Tests for partition-count and fanout selection (paper §2.4, §3.4, §4.2).
#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/sizing.h"
#include "util/env.h"

namespace xstream {
namespace {

TEST(RoundUpPow2Test, Values) {
  EXPECT_EQ(RoundUpPow2(0), 1u);
  EXPECT_EQ(RoundUpPow2(1), 1u);
  EXPECT_EQ(RoundUpPow2(2), 2u);
  EXPECT_EQ(RoundUpPow2(3), 4u);
  EXPECT_EQ(RoundUpPow2(1000), 1024u);
}

TEST(InMemorySizingTest, PartitionFootprintFitsCache) {
  // 1M vertices, 8B state, 12B edge, 8B update => 28MB footprint.
  uint32_t k = ChooseInMemoryPartitions(1 << 20, 8, 12, 8, 2 << 20, 1, 16ull << 20);
  // 28MB / 2MB = 14 -> 16 partitions.
  EXPECT_EQ(k, 16u);
  // Each partition's footprint now fits the cache.
  uint64_t per_partition = ((1 << 20) / k) * (8 + 12 + 8);
  EXPECT_LE(per_partition, 2u << 20);
}

TEST(InMemorySizingTest, SmallGraphGetsOnePartition) {
  EXPECT_EQ(ChooseInMemoryPartitions(1000, 8, 12, 8, 2 << 20, 1, 10000), 1u);
}

TEST(InMemorySizingTest, RespectsMaxPartitions) {
  uint32_t k =
      ChooseInMemoryPartitions(1ull << 30, 256, 12, 256, 1 << 10, 1, 16ull << 30, 1 << 12);
  EXPECT_LE(k, 1u << 12);
}

// RMAT-20 (1M vertices, 33.5M edge records) at 4 threads: the cache rule
// asks for 16 partitions, and gather's work stealing gets 16 per thread.
TEST(InMemorySizingTest, ThreadsRaiseTheCountOnLargeGraphs) {
  EXPECT_EQ(ChooseInMemoryPartitions(1 << 20, 8, 12, 8, 2 << 20, 4, 33'554'432), 64u);
  // One thread has no one to steal from: the cache rule stands.
  EXPECT_EQ(ChooseInMemoryPartitions(1 << 20, 8, 12, 8, 2 << 20, 1, 33'554'432), 16u);
}

// Each partition keeps at least one scatter item of edges, so small graphs
// keep the cache rule whatever the thread count.
TEST(InMemorySizingTest, SmallGraphsKeepTheCacheRuleAtAnyThreadCount) {
  EXPECT_EQ(ChooseInMemoryPartitions(1000, 8, 12, 8, 2 << 20, 4, 10'000), 1u);
  EXPECT_EQ(ChooseInMemoryPartitions(1 << 20, 8, 12, 8, 2 << 20, 64, 20 * kScatterItemEdges),
            32u);
}

TEST(InMemorySizingTest, MaxPartitionsCapsTheThreadRule) {
  EXPECT_EQ(ChooseInMemoryPartitions(1 << 20, 8, 12, 8, 2 << 20, 4, 33'554'432, 32), 32u);
}

TEST(OutOfCoreSizingTest, InequalityHolds) {
  // Paper's example (§3.4): N = 1TB vertex data, S = 16MB => M_min = 17GB
  // with under 120 partitions.
  uint64_t n = 1ull << 40;
  size_t s = 16 << 20;
  uint64_t m = 20ull << 30;
  uint32_t k = ChooseOutOfCorePartitions(n, m, s);
  EXPECT_LE(n / k + 5ull * s * k, m);
  EXPECT_LT(k, 200u);
  EXPECT_GT(k, 50u);
}

TEST(OutOfCoreSizingTest, PrefersFewestPartitions) {
  // Plenty of memory: one partition wins (maximum sequentiality, §2.4).
  EXPECT_EQ(ChooseOutOfCorePartitions(1 << 20, 1ull << 30, 1 << 20), 1u);
}

TEST(OutOfCoreSizingTest, ViabilityMatchesChooser) {
  EXPECT_TRUE(OutOfCorePartitionsViable(1 << 20, 1 << 30, 1 << 20));
  // Budget below 2*sqrt(5NS): impossible.
  EXPECT_FALSE(OutOfCorePartitionsViable(1ull << 40, 1 << 20, 16 << 20));
}

TEST(OutOfCoreSizingTest, InfeasibleBudgetAborts) {
  EXPECT_DEATH(ChooseOutOfCorePartitions(1ull << 40, 1 << 20, 16 << 20),
               "no viable out-of-core partition count");
}

TEST(SchedulerBudgetTest, UnsetBudgetIsAutoOnHybridOnly) {
  EXPECT_EQ(SchedulerMemoryBudget(std::nullopt, /*hybrid=*/true), ResolveMemoryBudget(0));
  EXPECT_GT(SchedulerMemoryBudget(std::nullopt, /*hybrid=*/true), 0u);
  EXPECT_EQ(SchedulerMemoryBudget(std::nullopt, /*hybrid=*/false), 0u);
}

TEST(SchedulerBudgetTest, ExplicitZeroIsOffAndOversizeIsClamped) {
  EXPECT_EQ(SchedulerMemoryBudget(0, /*hybrid=*/true), 0u);
  EXPECT_EQ(SchedulerMemoryBudget(0, /*hybrid=*/false), 0u);
  EXPECT_EQ(SchedulerMemoryBudget(64u << 20, /*hybrid=*/false), 64u << 20);
  const uint64_t physical = PhysicalMemoryBytes();
  if (physical == 0) {
    GTEST_SKIP() << "physical memory probe unavailable";
  }
  EXPECT_EQ(SchedulerMemoryBudget(physical * 2, /*hybrid=*/true), physical);
}

TEST(FanoutTest, BoundedByCachelines) {
  // 2MB cache / 64B lines = 32768 lines -> fanout <= 32768.
  uint32_t f = ChooseShuffleFanout(1u << 20, 2 << 20, 64);
  EXPECT_LE(f, 32768u);
  EXPECT_GE(f, 2u);
  // Tiny cache: fanout collapses but stays a usable power of two.
  uint32_t tiny = ChooseShuffleFanout(1u << 20, 256, 64);
  EXPECT_GE(tiny, 2u);
  EXPECT_LE(tiny, 4u);
}

TEST(FanoutTest, NeverExceedsPartitionCount) {
  EXPECT_LE(ChooseShuffleFanout(8, 2 << 20, 64), 8u);
}

TEST(PartitionLayoutTest, EqualRangesCoverAllVertices) {
  PartitionLayout layout(1000, 8);
  uint64_t total = 0;
  for (uint32_t p = 0; p < 8; ++p) {
    total += layout.Size(p);
    if (p > 0) {
      EXPECT_EQ(layout.Begin(p), layout.End(p - 1));
    }
  }
  EXPECT_EQ(total, 1000u);
}

TEST(PartitionLayoutTest, PartitionOfIsConsistentWithRanges) {
  PartitionLayout layout(1000, 8);
  for (VertexId v = 0; v < 1000; ++v) {
    uint32_t p = layout.PartitionOf(v);
    EXPECT_GE(v, layout.Begin(p));
    EXPECT_LT(v, layout.End(p));
  }
}

TEST(PartitionLayoutTest, MorePartitionsThanVertices) {
  PartitionLayout layout(3, 8);
  EXPECT_EQ(layout.Size(0), 1u);
  EXPECT_EQ(layout.Size(3), 0u);
  EXPECT_EQ(layout.PartitionOf(2), 2u);
}

TEST(PartitionLayoutTest, NonDivisibleCountsStayConsistent) {
  // Regression: when num_vertices % num_partitions != 0 the trailing ranges
  // shrink (or empty out), PartitionOf must stay within [0, k) and agree
  // with Begin/End for every vertex.
  for (uint64_t n : {1u, 5u, 7u, 10u, 1000u, 1001u, 1023u}) {
    for (uint32_t k : {1u, 2u, 3u, 7u, 8u, 16u, 100u}) {
      PartitionLayout layout(n, k);
      uint64_t total = 0;
      for (uint32_t p = 0; p < k; ++p) {
        total += layout.Size(p);
        if (p > 0) {
          EXPECT_EQ(layout.Begin(p), layout.End(p - 1)) << "n=" << n << " k=" << k;
        }
      }
      EXPECT_EQ(total, n) << "n=" << n << " k=" << k;
      for (VertexId v = 0; v < n; ++v) {
        uint32_t p = layout.PartitionOf(v);
        ASSERT_LT(p, k) << "n=" << n << " k=" << k << " v=" << v;
        EXPECT_GE(v, layout.Begin(p));
        EXPECT_LT(v, layout.End(p));
      }
    }
  }
}

TEST(PartitionLayoutTest, PartitionOfClampsToLastPartition) {
  // Defensive contract: ids at or beyond num_vertices (corrupt inputs,
  // padded streams) must still map to a real partition index.
  PartitionLayout layout(10, 4);
  EXPECT_EQ(layout.PartitionOf(10), 3u);
  EXPECT_EQ(layout.PartitionOf(1000), 3u);
  PartitionLayout tiny(3, 8);
  EXPECT_EQ(tiny.PartitionOf(7), 7u);
  EXPECT_EQ(tiny.PartitionOf(100), 7u);
}

TEST(PartitionLayoutTest, SinglePartitionTakesAll) {
  PartitionLayout layout(12345, 1);
  EXPECT_EQ(layout.Begin(0), 0u);
  EXPECT_EQ(layout.End(0), 12345u);
  EXPECT_EQ(layout.PartitionOf(12344), 0u);
}

}  // namespace
}  // namespace xstream
