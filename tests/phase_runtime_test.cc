// The unified phase runtime (core/phase_runtime.h + core/stream_store.h),
// exercised directly — not through the engine facades — so the driver/store
// layering is tested as a first-class API. The same algorithms run through
// MemoryStreamStore and DeviceStreamStore (SimDevice) and must produce
// identical results against the sequential reference oracles, including on
// layouts with empty partitions and edge files whose size is not a multiple
// of the read chunk.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "algorithms/kcores.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "core/phase_runtime.h"
#include "core/residency.h"
#include "core/stream_store.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "partitioning/partitioner.h"
#include "storage/io_executor.h"
#include "storage/sim_device.h"
#include "util/env.h"
#include "util/rng.h"

namespace xstream {
namespace {

static_assert(StreamStoreFor<MemoryStreamStore<WccAlgorithm>>);
static_assert(StreamStoreFor<DeviceStreamStore<WccAlgorithm>>);
static_assert(MemoryStreamStore<WccAlgorithm>::kPartitionParallel);
static_assert(!DeviceStreamStore<WccAlgorithm>::kPartitionParallel);

EdgeList TestGraph(uint64_t seed, uint32_t scale = 9) {
  RmatParams params;
  params.scale = scale;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  return edges;
}

// Harness that runs one algorithm through a driver over either store and
// returns the final vertex states indexed by ORIGINAL id, so results from
// different layouts compare directly.
template <EdgeCentricAlgorithm Algo>
struct RuntimeHarness {
  // Both stores share one pool per harness.
  explicit RuntimeHarness(int threads) : pool(threads) {}

  std::vector<typename Algo::VertexState> RunMemory(Algo algo, const EdgeList& edges,
                                                    PartitionLayout layout,
                                                    uint64_t max_iters = UINT64_MAX) {
    MemoryStreamStore<Algo> store(pool, layout, /*shuffle_fanout=*/4, edges);
    StreamingPhaseDriver<Algo, MemoryStreamStore<Algo>> driver(store, {});
    stats = driver.Run(algo, max_iters);
    return Extract(driver, layout);
  }

  std::vector<typename Algo::VertexState> RunDevice(Algo algo, const EdgeList& edges,
                                                    PartitionLayout layout,
                                                    const DeviceStoreOptions& opts,
                                                    uint64_t max_iters = UINT64_MAX) {
    SimDevice dev("d", DeviceProfile::Instant());
    WriteEdgeFile(dev, "input", edges);
    DeviceStreamStore<Algo> store(pool, layout, opts, dev, dev, dev, "input");
    StreamingPhaseDriver<Algo, DeviceStreamStore<Algo>> driver(store, {});
    stats = driver.Run(algo, max_iters);
    resident_at_end = store.residency_plan().resident_count();
    replans = store.replans();
    // Executor accounting: every async spill/read request submitted to the
    // device's I/O thread must have completed once the run returns.
    EXPECT_GT(dev.executor().submitted(), 0u);
    EXPECT_EQ(dev.executor().in_flight(), 0u);
    return Extract(driver, layout);
  }

  template <typename Driver>
  std::vector<typename Algo::VertexState> Extract(Driver& driver, const PartitionLayout& layout) {
    std::vector<typename Algo::VertexState> by_original(layout.num_vertices());
    driver.VertexMap(
        [&](VertexId v, typename Algo::VertexState& s) { by_original[v] = s; });
    return by_original;
  }

  ThreadPool pool;
  RunStats stats;
  uint32_t resident_at_end = 0;
  uint64_t replans = 0;
};

DeviceStoreOptions SmallDeviceOpts(bool spill_heavy = false) {
  DeviceStoreOptions opts;
  opts.io_unit_bytes = 16 * 1024;
  if (spill_heavy) {
    // Tiny budget + disabled memory optimizations: vertex files, update
    // spills and multi-chunk gathers all get exercised.
    opts.allow_vertex_memory_opt = false;
    opts.allow_update_memory_opt = false;
  }
  return opts;
}

TEST(PhaseRuntimeTest, WccIdenticalAcrossStoresAndMatchesReference) {
  EdgeList edges = TestGraph(3);
  GraphInfo info = ScanEdges(edges);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  RuntimeHarness<WccAlgorithm> h(2);
  auto mem = h.RunMemory(WccAlgorithm{}, edges, PartitionLayout(info.num_vertices, 8));
  RunStats mem_stats = h.stats;
  auto dev = h.RunDevice(WccAlgorithm{}, edges, PartitionLayout(info.num_vertices, 4),
                         SmallDeviceOpts(true));
  RunStats dev_stats = h.stats;
  ASSERT_EQ(mem.size(), dev.size());
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_EQ(mem[v].label, expected[v]) << "memory store, vertex " << v;
    EXPECT_EQ(dev[v].label, expected[v]) << "device store, vertex " << v;
  }
  // WCC scatters exactly one update per non-wasted edge, so the accounting
  // identity must hold on the spill path too (spilled tails must not be
  // double-counted in updates_generated).
  EXPECT_EQ(mem_stats.wasted_edges + mem_stats.updates_generated, mem_stats.edges_streamed);
  EXPECT_EQ(dev_stats.wasted_edges + dev_stats.updates_generated, dev_stats.edges_streamed);
  EXPECT_GT(dev_stats.update_file_bytes, 0u);  // the run really spilled
  EXPECT_EQ(mem_stats.updates_generated, dev_stats.updates_generated);
}

TEST(PhaseRuntimeTest, PageRankIdenticalAcrossStores) {
  EdgeList edges = TestGraph(5);
  GraphInfo info = ScanEdges(edges);
  RuntimeHarness<PageRankAlgorithm> h(2);
  PageRankAlgorithm algo(info.num_vertices, 5);
  auto mem = h.RunMemory(algo, edges, PartitionLayout(info.num_vertices, 4), 5);
  auto dev = h.RunDevice(algo, edges, PartitionLayout(info.num_vertices, 4),
                         SmallDeviceOpts(true), 5);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_NEAR(mem[v].rank, dev[v].rank, 1e-5) << "vertex " << v;
  }
}

TEST(PhaseRuntimeTest, BfsIdenticalAcrossStores) {
  EdgeList edges = TestGraph(7);
  GraphInfo info = ScanEdges(edges);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<uint32_t> expected = ReferenceBfsLevels(g, 0);
  RuntimeHarness<BfsAlgorithm> h(2);
  auto mem = h.RunMemory(BfsAlgorithm(0), edges, PartitionLayout(info.num_vertices, 8));
  auto dev = h.RunDevice(BfsAlgorithm(0), edges, PartitionLayout(info.num_vertices, 4),
                         SmallDeviceOpts());
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_EQ(mem[v].level, expected[v]) << "memory store, vertex " << v;
    EXPECT_EQ(dev[v].level, expected[v]) << "device store, vertex " << v;
  }
}

TEST(PhaseRuntimeTest, EmptyPartitionsAreHandledByBothStores) {
  // 20 vertices across 32 partitions: the tail partitions own no vertices
  // (and therefore no edges), in both the scatter and gather loops.
  EdgeList edges = GeneratePath(20, 11);
  PartitionLayout layout(20, 32);
  ASSERT_EQ(layout.Size(31), 0u);
  std::vector<VertexId> expected = ReferenceWcc(edges, 20);

  RuntimeHarness<WccAlgorithm> h(2);
  auto mem = h.RunMemory(WccAlgorithm{}, edges, layout);
  auto dev = h.RunDevice(WccAlgorithm{}, edges, layout, SmallDeviceOpts(true));
  for (uint64_t v = 0; v < 20; ++v) {
    EXPECT_EQ(mem[v].label, expected[v]);
    EXPECT_EQ(dev[v].label, expected[v]);
  }
}

TEST(PhaseRuntimeTest, NonChunkMultipleTailStream) {
  // Edge count chosen so the per-partition edge files are not a multiple of
  // the 16 KB read chunk (1365 edges): the StreamReader tail chunk is short
  // and must still be scattered whole.
  EdgeList edges = TestGraph(13);
  edges.resize(edges.size() - edges.size() % 1365 + 7);  // 7 edges past a chunk boundary
  GraphInfo info = ScanEdges(edges);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);
  RuntimeHarness<WccAlgorithm> h(2);
  auto dev = h.RunDevice(WccAlgorithm{}, edges, PartitionLayout(info.num_vertices, 3),
                         SmallDeviceOpts(true));
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_EQ(dev[v].label, expected[v]) << "vertex " << v;
  }
}

TEST(PhaseRuntimeTest, AsyncAndSyncSpillAgree) {
  EdgeList edges = TestGraph(17, 10);
  GraphInfo info = ScanEdges(edges);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  RuntimeHarness<WccAlgorithm> h(2);
  auto opts = SmallDeviceOpts(true);
  opts.async_spill = true;
  auto fast = h.RunDevice(WccAlgorithm{}, edges, PartitionLayout(info.num_vertices, 4), opts);
  RunStats async_stats = h.stats;
  opts.async_spill = false;
  auto slow = h.RunDevice(WccAlgorithm{}, edges, PartitionLayout(info.num_vertices, 4), opts);
  RunStats sync_stats = h.stats;

  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_EQ(fast[v].label, expected[v]);
    EXPECT_EQ(slow[v].label, expected[v]);
  }
  // Both modes spill the same update volume; only the async mode reports
  // overlapped bytes.
  EXPECT_GT(async_stats.update_file_bytes, 0u);
  EXPECT_EQ(async_stats.update_file_bytes, sync_stats.update_file_bytes);
  EXPECT_EQ(async_stats.async_spill_bytes, async_stats.update_file_bytes);
  EXPECT_EQ(sync_stats.async_spill_bytes, 0u);
}

TEST(PhaseRuntimeTest, DeeperSpillPipelinesAgreeWithDoubleBuffering) {
  // spill_queue_depth > 2 rotates more shuffle/write buffers (RAID update
  // devices); the results and spilled volume must match the depth-2 paper
  // pipeline, and depth 1 clamps to 2 rather than breaking the gather
  // scratch logic.
  EdgeList edges = TestGraph(21, 10);
  GraphInfo info = ScanEdges(edges);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  RuntimeHarness<WccAlgorithm> h(2);
  RunStats by_depth[3];
  int depths[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    auto opts = SmallDeviceOpts(true);
    opts.spill_queue_depth = depths[i];
    auto states =
        h.RunDevice(WccAlgorithm{}, edges, PartitionLayout(info.num_vertices, 4), opts);
    by_depth[i] = h.stats;
    for (uint64_t v = 0; v < info.num_vertices; ++v) {
      ASSERT_EQ(states[v].label, expected[v]) << "depth " << depths[i] << " vertex " << v;
    }
  }
  EXPECT_GT(by_depth[1].update_file_bytes, 0u);
  EXPECT_EQ(by_depth[0].update_file_bytes, by_depth[1].update_file_bytes);
  EXPECT_EQ(by_depth[1].update_file_bytes, by_depth[2].update_file_bytes);
  EXPECT_EQ(by_depth[2].async_spill_bytes, by_depth[2].update_file_bytes);
}

TEST(PhaseRuntimeTest, DriverCheckpointRoundtripAcrossStores) {
  // A checkpoint written by the device-store driver restores into the
  // memory-store driver (same layout → same dense order on disk).
  EdgeList edges = TestGraph(19);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  SimDevice ckpt("ckpt", DeviceProfile::Instant());

  RuntimeHarness<WccAlgorithm> h(2);
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  DeviceStreamStore<WccAlgorithm> store(h.pool, layout, SmallDeviceOpts(true), dev, dev, dev,
                                        "input");
  StreamingPhaseDriver<WccAlgorithm, DeviceStreamStore<WccAlgorithm>> driver(store, {});
  WccAlgorithm algo;
  driver.Run(algo);
  driver.SaveVertexStates(ckpt, "wcc.ckpt");

  MemoryStreamStore<WccAlgorithm> mstore(h.pool, layout, 4, edges);
  StreamingPhaseDriver<WccAlgorithm, MemoryStreamStore<WccAlgorithm>> mdriver(mstore, {});
  mdriver.LoadVertexStates(ckpt, "wcc.ckpt");

  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);
  mdriver.VertexMap([&](VertexId v, WccAlgorithm::VertexState& s) {
    EXPECT_EQ(s.label, expected[v]) << "vertex " << v;
  });
}

// ---------------------------------------------------------------------------
// DeviceStreamStore with pins: the partially resident store, swept across
// pin budgets.

DeviceStoreOptions SmallHybridOpts(uint64_t pin_budget) {
  DeviceStoreOptions opts = SmallDeviceOpts(/*spill_heavy=*/true);
  opts.pin_budget_bytes = pin_budget;
  return opts;
}

// Accounted cost of pinning everything, via a probe store over the same
// input (the planner inputs depend on the setup pass's edge tallies).
template <EdgeCentricAlgorithm Algo>
uint64_t FullPinBytes(ThreadPool& pool, const EdgeList& edges, PartitionLayout layout) {
  SimDevice dev("probe", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  DeviceStreamStore<Algo> store(pool, layout, SmallHybridOpts(0), dev, dev, dev, "input");
  return store.FullPinBytes();
}

// Raw-speed pillar matrix (--compress-updates x --stage-bytes): compression
// and cache-aware shuffle staging are pure transport optimizations, so every
// combination must reproduce the baseline results for WCC, BFS and PageRank
// on all three store modes — memory (where the flags are inert, the
// baseline), device, and hybrid at half pin budget (compressed spill below
// the pin line, RAM buffering above it).
TEST(PhaseRuntimeTest, CompressionAndStagingAreResultInvariant) {
  EdgeList edges = TestGraph(43);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  std::vector<VertexId> wcc_ref = ReferenceWcc(edges, info.num_vertices);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<uint32_t> bfs_ref = ReferenceBfsLevels(g, 0);

  RuntimeHarness<WccAlgorithm> hw(2);
  RuntimeHarness<BfsAlgorithm> hb(2);
  RuntimeHarness<PageRankAlgorithm> hp(2);
  PageRankAlgorithm pr(info.num_vertices, 4);
  auto pr_mem = hp.RunMemory(pr, edges, layout, 4);
  uint64_t half_pin = FullPinBytes<WccAlgorithm>(hw.pool, edges, layout) / 2;

  for (bool compress : {false, true}) {
    for (size_t stage_bytes : {size_t{0}, size_t{32} << 10}) {
      SCOPED_TRACE("compress=" + std::to_string(compress) +
                   " stage_bytes=" + std::to_string(stage_bytes));
      auto opts = SmallDeviceOpts(/*spill_heavy=*/true);
      opts.compress_updates = compress;
      opts.stage_bytes = stage_bytes;

      auto w = hw.RunDevice(WccAlgorithm{}, edges, layout, opts);
      EXPECT_GT(hw.stats.update_file_bytes, 0u);  // the leg really spilled
      auto b = hb.RunDevice(BfsAlgorithm(0), edges, layout, opts);
      auto p = hp.RunDevice(pr, edges, layout, opts, 4);
      for (uint64_t v = 0; v < info.num_vertices; ++v) {
        ASSERT_EQ(w[v].label, wcc_ref[v]) << "device store, vertex " << v;
        ASSERT_EQ(b[v].level, bfs_ref[v]) << "device store, vertex " << v;
        ASSERT_NEAR(p[v].rank, pr_mem[v].rank, 1e-5) << "device store, vertex " << v;
      }

      DeviceStoreOptions hopts = opts;
      hopts.pin_budget_bytes = half_pin;
      auto hw_got = hw.RunDevice(WccAlgorithm{}, edges, layout, hopts);
      auto hb_got = hb.RunDevice(BfsAlgorithm(0), edges, layout, hopts);
      auto hp_got = hp.RunDevice(pr, edges, layout, hopts, 4);
      for (uint64_t v = 0; v < info.num_vertices; ++v) {
        ASSERT_EQ(hw_got[v].label, wcc_ref[v]) << "hybrid store, vertex " << v;
        ASSERT_EQ(hb_got[v].level, bfs_ref[v]) << "hybrid store, vertex " << v;
        ASSERT_NEAR(hp_got[v].rank, pr_mem[v].rank, 1e-5) << "hybrid store, vertex " << v;
      }
    }
  }
}

// Compression must not change what the engine reports as routed update
// volume (update_file_bytes stays the raw byte count so ablations compare
// like with like), while the actual device write volume shrinks.
TEST(PhaseRuntimeTest, CompressedSpillsRouteSameVolumeWithFewerDeviceBytes) {
  EdgeList edges = TestGraph(47, 10);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);

  RuntimeHarness<BfsAlgorithm> h(2);
  auto opts = SmallDeviceOpts(/*spill_heavy=*/true);
  auto plain = h.RunDevice(BfsAlgorithm(0), edges, layout, opts);
  RunStats plain_stats = h.stats;
  opts.compress_updates = true;
  auto packed = h.RunDevice(BfsAlgorithm(0), edges, layout, opts);
  RunStats packed_stats = h.stats;

  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_EQ(plain[v].level, packed[v].level) << "vertex " << v;
  }
  EXPECT_GT(plain_stats.update_file_bytes, 0u);
  EXPECT_EQ(packed_stats.update_file_bytes, plain_stats.update_file_bytes);
  EXPECT_LT(packed_stats.bytes_written, plain_stats.bytes_written);
}

// ---- Bucketed scatter (in-memory shape) --------------------------------------
//
// Scatter groups updates by destination bucket as it appends: the
// partitions themselves when K <= fanout, the first shuffle-tree level
// otherwise (property_test's InMemConfigSweep checks both against the
// oracles).

// With one thread both bucket shapes keep each partition's updates in
// append order, so PageRank's float sums run in the same order and the
// ranks agree bit for bit whether or not shuffle levels run after scatter.
TEST(BucketedScatterTest, PageRankBitIdenticalWithAndWithoutShuffleLevels) {
  EdgeList edges = TestGraph(19);
  GraphInfo info = ScanEdges(edges);
  for (const char* name : {"range", "2ps"}) {
    SCOPED_TRACE(name);
    auto ranks = [&](uint32_t fanout) {
      std::unique_ptr<Partitioner> partitioner;
      InMemoryConfig config;
      config.threads = 1;
      config.num_partitions = 16;
      config.shuffle_fanout = fanout;
      if (std::string(name) != "range") {
        partitioner = MakePartitioner(name);
        config.partitioner = partitioner.get();
      }
      InMemoryEngine<PageRankAlgorithm> engine(config, edges, info.num_vertices);
      return RunPageRank(engine, 5).ranks;
    };
    std::vector<float> bucketed = ranks(16);  // K <= fanout: no shuffle pass
    for (uint32_t fanout : {2u, 4u}) {       // K > fanout: 3 and 1 levels after scatter
      std::vector<float> shuffled = ranks(fanout);
      ASSERT_EQ(shuffled.size(), bucketed.size());
      EXPECT_EQ(std::memcmp(shuffled.data(), bucketed.data(), bucketed.size() * sizeof(float)),
                0)
          << "fanout " << fanout;
    }
  }
}

// ---- Scatter work items (memory shape) -----------------------------------------
//
// The partition-parallel scatter steals runs of at most kScatterItemEdges
// edges, not whole partitions. Its items must cover every accepted
// partition's edges exactly once and leave every rejected partition out.
template <typename Algo>
void ExpectItemsCoverAcceptedPartitions(
    const StreamingPhaseDriver<Algo, MemoryStreamStore<Algo>>& driver,
    const MemoryStreamStore<Algo>& store) {
  using Driver = StreamingPhaseDriver<Algo, MemoryStreamStore<Algo>>;
  std::vector<typename Driver::ScatterItem> items;
  driver.BuildScatterItems(items);
  const uint32_t k = store.layout().num_partitions();
  store.VisitEdgeChunks([&](const auto& chunks) {
    uint64_t end = 0;
    uint64_t nonempty_chunks = 0;
    for (const auto& slice : chunks.slices) {
      for (uint32_t p = 0; p < k; ++p) {
        end = std::max(end, slice[p].begin + slice[p].count);
        nonempty_chunks += driver.PartitionNeedsScatter(p) && slice[p].count > 0 ? 1 : 0;
      }
    }
    std::vector<uint32_t> hits(end, 0);
    for (const auto& item : items) {
      ASSERT_LT(item.partition, k);
      EXPECT_TRUE(driver.PartitionNeedsScatter(item.partition)) << item.partition;
      EXPECT_GT(item.count, 0u);
      EXPECT_LE(item.count, kScatterItemEdges);
      // Inside one of its partition's chunks.
      bool inside = false;
      for (const auto& slice : chunks.slices) {
        const ChunkRef& c = slice[item.partition];
        inside = inside || (item.begin >= c.begin && item.begin + item.count <= c.begin + c.count);
      }
      EXPECT_TRUE(inside) << "item at " << item.begin << " of partition " << item.partition;
      for (uint64_t i = item.begin; i < item.begin + item.count && i < end; ++i) {
        ++hits[i];
      }
    }
    for (const auto& slice : chunks.slices) {
      for (uint32_t p = 0; p < k; ++p) {
        const uint32_t want = driver.PartitionNeedsScatter(p) ? 1 : 0;
        for (uint64_t i = slice[p].begin; i < slice[p].begin + slice[p].count; ++i) {
          ASSERT_EQ(hits[i], want) << "partition " << p << ", edge " << i;
        }
      }
    }
    // The graph is large enough that some chunk was cut into several items.
    EXPECT_GT(items.size(), nonempty_chunks);
  });
}

TEST(ScatterItemsTest, ItemsCoverAcceptedPartitionsExactlyOnce) {
  EdgeList edges = TestGraph(29, 15);  // 2^15 vertices, 2^19 edge records
  GraphInfo info = ScanEdges(edges);
  ThreadPool pool(2);
  PartitionLayout layout(info.num_vertices, 4);
  {
    // PageRank has no Active hook: every partition scatters.
    MemoryStreamStore<PageRankAlgorithm> store(pool, layout, 4, edges);
    StreamingPhaseDriver<PageRankAlgorithm, MemoryStreamStore<PageRankAlgorithm>> driver(store,
                                                                                         {});
    PageRankAlgorithm algo(info.num_vertices, 5);
    driver.InitVertices(algo);
    ExpectItemsCoverAcceptedPartitions(driver, store);
  }
  {
    // BFS from vertex 0: after Init only partition 0, RMAT's heaviest,
    // holds an active vertex, so the other three yield no item.
    MemoryStreamStore<BfsAlgorithm> store(pool, layout, 4, edges);
    StreamingPhaseDriver<BfsAlgorithm, MemoryStreamStore<BfsAlgorithm>> driver(store, {});
    BfsAlgorithm algo(0);
    driver.InitVertices(algo);
    for (uint32_t p = 0; p < 4; ++p) {
      EXPECT_EQ(driver.PartitionNeedsScatter(p), p == 0) << p;
    }
    ExpectItemsCoverAcceptedPartitions(driver, store);
  }
}

// ---- Bucketed scatter (device shape) ------------------------------------------
//
// Thread t scatters the t-th slice of each chunk, and every consumer reads
// the buckets' blocks in thread order, then flush order: absorption, the
// drain, pinned buffers, update-file runs and gather. So PageRank's float
// sums run in one order on every run at a fixed thread count, whether the
// updates spill every iteration or stay in memory.
TEST(BucketedScatterTest, DevicePageRankRepeatsBitIdentically) {
  EdgeList edges = TestGraph(23, 12);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 8);
  RuntimeHarness<PageRankAlgorithm> h(4);
  PageRankAlgorithm pr(info.num_vertices, 5);
  for (bool memory_gather : {false, true}) {
    SCOPED_TRACE(memory_gather ? "memory gather" : "spill every iteration");
    DeviceStoreOptions opts;
    opts.io_unit_bytes = 64 * 1024;
    opts.allow_vertex_memory_opt = false;  // file-resident vertices: absorption live
    opts.allow_update_memory_opt = memory_gather;
    std::vector<float> first;
    for (int run = 0; run < 6; ++run) {
      auto states = h.RunDevice(pr, edges, layout, opts);
      if (memory_gather) {
        ASSERT_EQ(h.stats.update_file_bytes, 0u);
      } else {
        ASSERT_GT(h.stats.update_file_bytes, 0u);
        ASSERT_GT(h.stats.updates_absorbed, 0u);
      }
      std::vector<float> ranks(states.size());
      for (size_t v = 0; v < states.size(); ++v) {
        ranks[v] = states[v].rank;
      }
      if (run == 0) {
        first = ranks;
        continue;
      }
      EXPECT_EQ(std::memcmp(ranks.data(), first.data(), first.size() * sizeof(float)), 0)
          << "run " << run << " differs from run 0";
    }
  }
}

TEST(HybridStoreTest, WccMatchesReferenceAtBudgetsZeroHalfFull) {
  EdgeList edges = TestGraph(23);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  RuntimeHarness<WccAlgorithm> h(2);
  uint64_t full = FullPinBytes<WccAlgorithm>(h.pool, edges, layout);
  ASSERT_GT(full, 0u);
  for (uint64_t budget : {uint64_t{0}, full / 2, full}) {
    auto got = h.RunDevice(WccAlgorithm{}, edges, layout, SmallHybridOpts(budget));
    for (uint64_t v = 0; v < info.num_vertices; ++v) {
      ASSERT_EQ(got[v].label, expected[v]) << "budget " << budget << ", vertex " << v;
    }
    if (budget == 0) {
      EXPECT_EQ(h.resident_at_end, 0u);
      EXPECT_EQ(h.stats.avoided_spill_bytes, 0u);
      EXPECT_EQ(h.stats.resident_partition_count, 0u);
    } else {
      EXPECT_GT(h.stats.resident_partition_count, 0u);
      EXPECT_GT(h.stats.resident_bytes, 0u);
      EXPECT_GT(h.stats.avoided_spill_bytes, 0u);
    }
    if (budget == full) {
      // Every partition pins, so no update bytes ever reach the files.
      EXPECT_EQ(h.resident_at_end, layout.num_partitions());
      EXPECT_EQ(h.stats.update_file_bytes, 0u);
    }
  }
}

TEST(HybridStoreTest, BfsMatchesReferenceAtBudgetsZeroHalfFull) {
  EdgeList edges = TestGraph(29);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<uint32_t> expected = ReferenceBfsLevels(g, 0);

  RuntimeHarness<BfsAlgorithm> h(2);
  uint64_t full = FullPinBytes<BfsAlgorithm>(h.pool, edges, layout);
  for (uint64_t budget : {uint64_t{0}, full / 2, full}) {
    auto got = h.RunDevice(BfsAlgorithm(0), edges, layout, SmallHybridOpts(budget));
    for (uint64_t v = 0; v < info.num_vertices; ++v) {
      ASSERT_EQ(got[v].level, expected[v]) << "budget " << budget << ", vertex " << v;
    }
  }
}

TEST(HybridStoreTest, PageRankMatchesMemoryStoreAtBudgetsZeroHalfFull) {
  EdgeList edges = TestGraph(31);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  RuntimeHarness<PageRankAlgorithm> h(2);
  PageRankAlgorithm algo(info.num_vertices, 4);
  auto mem = h.RunMemory(algo, edges, layout, 4);
  uint64_t full = FullPinBytes<PageRankAlgorithm>(h.pool, edges, layout);
  for (uint64_t budget : {uint64_t{0}, full / 2, full}) {
    auto got = h.RunDevice(algo, edges, layout, SmallHybridOpts(budget), 4);
    for (uint64_t v = 0; v < info.num_vertices; ++v) {
      ASSERT_NEAR(got[v].rank, mem[v].rank, 1e-5) << "budget " << budget << ", vertex " << v;
    }
  }
}

TEST(HybridStoreTest, BudgetZeroMatchesStoreThatCannotPinBitForBit) {
  // Pin budget 0 is the paper's §3 store: a store with a planner (solo,
  // tallied at setup) and a store without one (attached to edge files whose
  // owner collected no tallies, as out-of-core scheduler jobs are) gather in
  // the same order, so even floating-point results are bit-identical.
  EdgeList edges = TestGraph(37);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  RuntimeHarness<PageRankAlgorithm> h(2);
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  std::vector<uint64_t> edge_counts;
  auto run = [&](const DeviceStoreOptions& opts, bool can_pin, RunStats* stats) {
    DeviceStreamStore<PageRankAlgorithm> store(h.pool, layout, opts, dev, dev, dev, "input");
    EXPECT_EQ(store.CanPin(), can_pin);
    edge_counts = store.src_edge_counts();
    StreamingPhaseDriver<PageRankAlgorithm, DeviceStreamStore<PageRankAlgorithm>> driver(
        store, {});
    PageRankAlgorithm algo(info.num_vertices, 3);
    *stats = driver.Run(algo, 3);
    return h.Extract(driver, layout);
  };
  RunStats pinnable_stats;
  auto pinnable = run(SmallHybridOpts(0), true, &pinnable_stats);
  // The first store's edge files: PageRank reads no weights, so they hold
  // EdgePairs. No tallies: the attached store cannot pin.
  SharedEdgeFiles files;
  files.prefix = "xs";
  files.weights = false;
  const std::vector<uint64_t> counts = edge_counts;
  files.edge_counts = &counts;
  DeviceStoreOptions attached = SmallHybridOpts(0);
  attached.shared_edge_files = &files;
  attached.file_prefix = "attached";
  RunStats plain_stats;
  auto plain = run(attached, false, &plain_stats);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_EQ(pinnable[v].rank, plain[v].rank) << "vertex " << v;
  }
  EXPECT_GT(plain_stats.update_file_bytes, 0u);
  EXPECT_EQ(pinnable_stats.update_file_bytes, plain_stats.update_file_bytes);
  EXPECT_EQ(pinnable_stats.updates_generated, plain_stats.updates_generated);
  EXPECT_EQ(pinnable_stats.resident_partition_count, 0u);
}

TEST(HybridStoreTest, MidRunReplanMigratesPinsAndStaysCorrect) {
  EdgeList edges = TestGraph(41);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  RuntimeHarness<WccAlgorithm> h(2);
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  DeviceStoreOptions opts = SmallHybridOpts(uint64_t{1} << 30);  // pins everything
  opts.replan_between_iterations = false;  // only the explicit re-plan below
  DeviceStreamStore<WccAlgorithm> store(h.pool, layout, opts, dev, dev, dev, "input");
  StreamingPhaseDriver<WccAlgorithm, DeviceStreamStore<WccAlgorithm>> driver(store, {});
  ASSERT_EQ(store.residency_plan().resident_count(), layout.num_partitions());

  WccAlgorithm algo;
  driver.InitVertices(algo);
  driver.RunIteration(algo);
  driver.RunIteration(algo);

  // Mid-run: demote everything except partition 0 (its states flush back to
  // the vertex files), then run to convergence over the shrunk pin set.
  std::vector<PartitionResidencyStats> inputs(layout.num_partitions());
  for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
    inputs[p].vertex_bytes = layout.Size(p) * sizeof(WccAlgorithm::VertexState);
    inputs[p].avoided_bytes_per_iteration = p == 0 ? 1 : 0;
  }
  store.Replan(inputs);
  EXPECT_EQ(store.residency_plan().resident_count(), 1u);
  EXPECT_EQ(store.replans(), 1u);

  while (driver.RunIteration(algo).updates_generated > 0) {
  }
  std::vector<VertexId> got(info.num_vertices);
  driver.VertexMap(
      [&](VertexId v, WccAlgorithm::VertexState& s) { got[v] = s.label; });
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_EQ(got[v], expected[v]) << "vertex " << v;
  }
}

TEST(HybridStoreTest, AutomaticReplanKeepsBfsCorrectAtHalfBudget) {
  // BFS's update volume moves with the frontier, so the per-iteration
  // re-plan migrates pins mid-run; correctness must survive the migrations.
  EdgeList edges = TestGraph(43, 10);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 8);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<uint32_t> expected = ReferenceBfsLevels(g, 0);

  RuntimeHarness<BfsAlgorithm> h(2);
  uint64_t full = FullPinBytes<BfsAlgorithm>(h.pool, edges, layout);
  DeviceStoreOptions opts = SmallHybridOpts(full / 2);
  ASSERT_TRUE(opts.replan_between_iterations);
  auto got = h.RunDevice(BfsAlgorithm(0), edges, layout, opts);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_EQ(got[v].level, expected[v]) << "vertex " << v;
  }
  EXPECT_GT(h.stats.avoided_spill_bytes, 0u);
}

TEST(HybridStoreTest, EdgePinningServesRepeatScansFromRamIdentically) {
  // With pin_edges and a budget that pins everything, iteration 1 captures
  // every partition's edge stream into the PinnedEdgeCache and every later
  // scatter is served from RAM — with results identical to the streamed
  // run, since the cache re-chunks at the same I/O-unit granularity.
  EdgeList edges = TestGraph(53);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  RuntimeHarness<WccAlgorithm> h(2);
  DeviceStoreOptions opts = SmallHybridOpts(uint64_t{1} << 30);  // pins everything
  opts.pin_edges = true;
  auto got = h.RunDevice(WccAlgorithm{}, edges, layout, opts);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_EQ(got[v].label, expected[v]) << "vertex " << v;
  }
  EXPECT_GT(h.stats.pinned_edge_bytes, 0u);       // all partitions cached
  EXPECT_GT(h.stats.edge_reads_avoided_bytes, 0u);  // iterations 2+ hit RAM
  EXPECT_EQ(h.stats.update_file_bytes, 0u);
}

TEST(HybridStoreTest, HysteresisZeroKeepsLegacyFullReplanBehavior) {
  // The fig31 baseline: hysteresis 0 must still converge correctly through
  // stop-the-world full re-plans at a drifting half budget.
  EdgeList edges = TestGraph(59, 10);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 8);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<uint32_t> expected = ReferenceBfsLevels(g, 0);

  RuntimeHarness<BfsAlgorithm> h(2);
  uint64_t full = FullPinBytes<BfsAlgorithm>(h.pool, edges, layout);
  DeviceStoreOptions opts = SmallHybridOpts(full / 2);
  opts.residency_hysteresis = 0;
  auto got = h.RunDevice(BfsAlgorithm(0), edges, layout, opts);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_EQ(got[v].level, expected[v]) << "vertex " << v;
  }
}

TEST(HybridStoreTest, CheckpointRoundtripsAcrossHybridAndDeviceStores) {
  EdgeList edges = TestGraph(47);
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(info.num_vertices, 4);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);
  RuntimeHarness<WccAlgorithm> h(2);
  SimDevice ckpt("ckpt", DeviceProfile::Instant());

  // Hybrid (half budget) -> checkpoint -> device store.
  {
    SimDevice dev("d1", DeviceProfile::Instant());
    WriteEdgeFile(dev, "input", edges);
    uint64_t full = FullPinBytes<WccAlgorithm>(h.pool, edges, layout);
    DeviceStreamStore<WccAlgorithm> store(h.pool, layout, SmallHybridOpts(full / 2), dev, dev,
                                          dev, "input");
    StreamingPhaseDriver<WccAlgorithm, DeviceStreamStore<WccAlgorithm>> driver(store, {});
    WccAlgorithm algo;
    driver.Run(algo);
    driver.SaveVertexStates(ckpt, "hybrid.ckpt");
  }
  {
    SimDevice dev("d2", DeviceProfile::Instant());
    WriteEdgeFile(dev, "input", edges);
    DeviceStreamStore<WccAlgorithm> store(h.pool, layout, SmallDeviceOpts(true), dev, dev, dev,
                                          "input");
    StreamingPhaseDriver<WccAlgorithm, DeviceStreamStore<WccAlgorithm>> driver(store, {});
    driver.LoadVertexStates(ckpt, "hybrid.ckpt");
    driver.VertexMap([&](VertexId v, WccAlgorithm::VertexState& s) {
      ASSERT_EQ(s.label, expected[v]) << "device restore, vertex " << v;
    });
    // And back the other way: device -> checkpoint -> hybrid.
    driver.SaveVertexStates(ckpt, "device.ckpt");
  }
  {
    SimDevice dev("d3", DeviceProfile::Instant());
    WriteEdgeFile(dev, "input", edges);
    DeviceStreamStore<WccAlgorithm> store(h.pool, layout, SmallHybridOpts(uint64_t{1} << 30),
                                          dev, dev, dev, "input");
    StreamingPhaseDriver<WccAlgorithm, DeviceStreamStore<WccAlgorithm>> driver(store, {});
    driver.LoadVertexStates(ckpt, "device.ckpt");
    driver.VertexMap([&](VertexId v, WccAlgorithm::VertexState& s) {
      ASSERT_EQ(s.label, expected[v]) << "hybrid restore, vertex " << v;
    });
  }
}

// ---------------------------------------------------------------------------
// StreamWriter::Close error propagation (the spill/checkpoint write path).

// A device whose appends start failing on command; exercises error flow from
// the I/O thread back to the submitting thread.
class FailingDevice : public SimDevice {
 public:
  FailingDevice() : SimDevice("failing", DeviceProfile::Instant()) {}

  uint64_t Append(FileId f, std::span<const std::byte> data) override {
    if (fail_appends) {
      throw std::runtime_error("injected append failure");
    }
    return SimDevice::Append(f, data);
  }

  // Set by the test thread, read on the device's I/O thread.
  std::atomic<bool> fail_appends{false};
};

TEST(StreamWriterCloseTest, ClosePropagatesAsyncWriteErrors) {
  FailingDevice dev;
  FileId f = dev.Create("out");
  StreamWriter writer(dev, f, 64);
  std::vector<std::byte> payload(256);
  writer.Append(payload);  // several async flushes
  dev.fail_appends = true;
  writer.Append(payload);
  EXPECT_THROW(writer.Close(), std::runtime_error);
  // After a throwing Close the retained error is cleared; destruction is
  // quiet.
}

TEST(StreamWriterCloseTest, CloseSucceedsQuietlyOnHealthyDevice) {
  SimDevice dev("d", DeviceProfile::Instant());
  FileId f = dev.Create("out");
  StreamWriter writer(dev, f, 64);
  std::vector<std::byte> payload(1000);
  writer.Append(payload);
  EXPECT_NO_THROW(writer.Close());
  EXPECT_EQ(dev.FileSize(f), 1000u);
}

// ---- Selective scheduling ---------------------------------------------------

// The same algorithm with its Active hook hidden, so the driver streams every
// partition every iteration, as it did before selective scheduling.
template <typename Algo>
struct HideActive : Algo {
  using Algo::Algo;
  void Active() const = delete;
};
static_assert(HasActive<WccAlgorithm> && !HasActive<HideActive<WccAlgorithm>>);
static_assert(HasActive<SccAlgorithm> && HasActive<HyperAnfAlgorithm>);
static_assert(!HasActive<PageRankAlgorithm>);

// The three shapes the skip runs in: the in-memory engine, the device engine
// at pin budget 0 with file-resident vertices (the paper's §3 engine), and
// the hybrid engine at half the full pin budget with re-planning on.
enum class Shape { kMemory, kDevice, kHybrid };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kMemory:
      return "in-memory";
    case Shape::kDevice:
      return "device, pin budget 0";
    case Shape::kHybrid:
      return "hybrid, half pin budget";
  }
  return "?";
}

// Builds an engine of `shape` for Algo over `edges` (8 partitions) and
// returns body(engine).
template <typename Algo, typename Body>
auto WithEngine(Shape shape, const EdgeList& edges, Body&& body) {
  GraphInfo info = ScanEdges(edges);
  if (shape == Shape::kMemory) {
    InMemoryConfig cfg;
    cfg.threads = 2;
    cfg.num_partitions = 8;
    InMemoryEngine<Algo> engine(cfg, edges, info.num_vertices);
    return body(engine);
  }
  HybridConfig cfg;
  cfg.threads = 2;
  cfg.io_unit_bytes = 16 * 1024;
  cfg.num_partitions = 8;
  cfg.allow_update_memory_opt = false;
  if (shape == Shape::kHybrid) {
    ThreadPool pool(1);
    cfg.memory_budget_bytes =
        FullPinBytes<Algo>(pool, edges, PartitionLayout(info.num_vertices, 8)) / 2;
  }
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridEngine<Algo> engine(cfg, dev, dev, dev, "input", info);
  return body(engine);
}

// Runs `run` (a runner taking the engine's algorithm type) on every shape,
// with and without Algo's Active hook, and expects identical results and
// iteration counts. Returns {edges streamed with, without} summed over the
// shapes.
template <typename Algo, typename Run>
std::pair<uint64_t, uint64_t> ExpectSkipKeepsResults(const EdgeList& edges, Run&& run) {
  uint64_t with_streamed = 0;
  uint64_t without_streamed = 0;
  for (Shape shape : {Shape::kMemory, Shape::kDevice, Shape::kHybrid}) {
    SCOPED_TRACE(ShapeName(shape));
    auto with = WithEngine<Algo>(shape, edges, [&](auto& engine) {
      return run(engine, std::type_identity<Algo>{});
    });
    auto without = WithEngine<HideActive<Algo>>(shape, edges, [&](auto& engine) {
      return run(engine, std::type_identity<HideActive<Algo>>{});
    });
    EXPECT_TRUE(with.first == without.first);
    EXPECT_EQ(with.second.iterations, without.second.iterations);
    EXPECT_EQ(without.second.edges_streamed, edges.size() * without.second.iterations);
    EXPECT_LE(with.second.edges_streamed, without.second.edges_streamed);
    with_streamed += with.second.edges_streamed;
    without_streamed += without.second.edges_streamed;
  }
  return {with_streamed, without_streamed};
}

TEST(SelectiveSchedulingTest, SkippedPartitionsLeaveResultsBitIdentical) {
  EdgeList edges = TestGraph(61, 10);
  auto [wcc_with, wcc_without] =
      ExpectSkipKeepsResults<WccAlgorithm>(edges, [](auto& engine, auto algo) {
        WccResult r = RunWcc<typename decltype(algo)::type>(engine);
        return std::make_pair(r.labels, r.stats);
      });
  EXPECT_LT(wcc_with, wcc_without) << "WCC's converged partitions must stop streaming";
  ExpectSkipKeepsResults<BfsAlgorithm>(edges, [](auto& engine, auto algo) {
    BfsResult r = RunBfs<typename decltype(algo)::type>(engine, 0);
    return std::make_pair(r.levels, r.stats);
  });
  ExpectSkipKeepsResults<SsspAlgorithm>(edges, [](auto& engine, auto algo) {
    SsspResult r = RunSssp<typename decltype(algo)::type>(engine, 0);
    return std::make_pair(r.dist, r.stats);
  });
  ExpectSkipKeepsResults<HyperAnfAlgorithm>(edges, [](auto& engine, auto algo) {
    HyperAnfResult r = RunHyperAnf<typename decltype(algo)::type>(engine);
    return std::make_pair(r.neighborhood_function, r.stats);
  });

  RmatParams directed;
  directed.scale = 10;
  directed.edge_factor = 4;
  directed.undirected = false;
  directed.seed = 67;
  ExpectSkipKeepsResults<SccAlgorithm>(
      MakeSccEdgeList(GenerateRmat(directed)), [](auto& engine, auto algo) {
        SccResult r = RunScc<typename decltype(algo)::type>(engine);
        return std::make_pair(r.scc, r.stats);
      });
}

TEST(SelectiveSchedulingTest, PageRankStillStreamsEveryEdgeEveryIteration) {
  EdgeList edges = TestGraph(71);
  for (Shape shape : {Shape::kMemory, Shape::kDevice, Shape::kHybrid}) {
    SCOPED_TRACE(ShapeName(shape));
    RunStats stats = WithEngine<PageRankAlgorithm>(shape, edges, [&](auto& engine) {
      return RunPageRank(engine, 4).stats;
    });
    EXPECT_GT(stats.iterations, 1u);
    EXPECT_EQ(stats.edges_streamed, edges.size() * stats.iterations);
  }
}

// Run()'s loop rebuilt from the driver's public pieces, the way an external
// tracer does it: a partition PartitionNeedsScatter rejects is a plain
// `continue`. Counts the partitions promoted during an iteration that
// skipped them.
template <typename Algo>
RunStats RunByPieces(HybridEngine<Algo>& engine, Algo& algo, uint64_t* skipped_promotions) {
  auto& driver = engine.driver();
  auto& store = engine.store();
  const uint32_t k = driver.layout().num_partitions();
  driver.InitVertices(algo);
  for (;;) {
    driver.BeginIterationScatter(algo);
    std::vector<bool> pinned_before = store.residency_plan().resident;
    std::vector<uint32_t> skipped;
    for (uint32_t p = 0; p < k; ++p) {
      if (!driver.PartitionNeedsScatter(p)) {
        skipped.push_back(p);
        continue;
      }
      driver.BeginScatterPartition(p);
      store.ForEachEdgeChunk(p, [&](const Edge* es, uint64_t n) { driver.ScatterChunk(algo, es, n); });
      driver.EndScatterPartition(algo);
    }
    IterationStats st = driver.FinishIterationScatter(algo);
    for (uint32_t p : skipped) {
      *skipped_promotions += !pinned_before[p] && store.residency_plan().resident[p] ? 1 : 0;
    }
    if (st.updates_generated == 0) {
      break;
    }
  }
  driver.FinalizeStats();
  return driver.stats();
}

TEST(SelectiveSchedulingTest, SkippedPartitionsMigrateInsideTheDriverPieces) {
  // A skipped partition's staged promotion must land inside the pieces
  // (the next BeginScatterPartition or FinishIterationScatter), or a loop
  // that `continue`s past it would migrate differently from Run().
  EdgeList edges = TestGraph(73, 11);
  GraphInfo info = ScanEdges(edges);
  HybridConfig cfg;
  cfg.threads = 2;
  cfg.io_unit_bytes = 16 * 1024;
  cfg.num_partitions = 16;
  cfg.allow_update_memory_opt = false;
  cfg.residency_hysteresis = 1;
  ASSERT_TRUE(cfg.replan_between_iterations);
  {
    ThreadPool pool(1);
    cfg.memory_budget_bytes =
        FullPinBytes<BfsAlgorithm>(pool, edges, PartitionLayout(info.num_vertices, 16)) / 4;
  }
  auto levels = [](auto& engine) {
    std::vector<uint32_t> out(engine.num_vertices());
    engine.VertexMap([&out](VertexId v, BfsAlgorithm::VertexState& s) { out[v] = s.level; });
    return out;
  };

  SimDevice run_dev("run", DeviceProfile::Instant());
  WriteEdgeFile(run_dev, "input", edges);
  HybridEngine<BfsAlgorithm> run_engine(cfg, run_dev, run_dev, run_dev, "input", info);
  BfsAlgorithm run_algo(0);
  RunStats by_run = run_engine.Run(run_algo);

  SimDevice pieces_dev("pieces", DeviceProfile::Instant());
  WriteEdgeFile(pieces_dev, "input", edges);
  HybridEngine<BfsAlgorithm> pieces_engine(cfg, pieces_dev, pieces_dev, pieces_dev, "input",
                                           info);
  BfsAlgorithm pieces_algo(0);
  uint64_t skipped_promotions = 0;
  RunStats by_pieces = RunByPieces(pieces_engine, pieces_algo, &skipped_promotions);

  EXPECT_EQ(levels(run_engine), levels(pieces_engine));
  EXPECT_EQ(by_run.iterations, by_pieces.iterations);
  EXPECT_EQ(by_run.bytes_read, by_pieces.bytes_read);
  EXPECT_EQ(by_run.bytes_written, by_pieces.bytes_written);
  EXPECT_EQ(by_run.update_file_bytes, by_pieces.update_file_bytes);
  EXPECT_EQ(by_run.promotions, by_pieces.promotions);
  EXPECT_EQ(by_run.evictions, by_pieces.evictions);
  ReferenceGraph g(edges, info.num_vertices);
  EXPECT_EQ(levels(run_engine), ReferenceBfsLevels(g, 0));
  EXPECT_GT(skipped_promotions, 0u) << "no promotion landed in a skipped partition; the "
                                       "input no longer exercises the guard";
}


// ---- Narrow edge records ------------------------------------------------------

// The same algorithm declaring that it reads edge weights, so every store
// keeps whole 12-byte Edges for it.
template <typename Algo>
struct ReadWeights : Algo {
  using Algo::Algo;
  static constexpr bool kReadsEdgeWeight = true;
};
static_assert(!ReadsEdgeWeight<WccAlgorithm> && ReadsEdgeWeight<ReadWeights<WccAlgorithm>>);
static_assert(std::is_same_v<MemoryStreamStore<BfsAlgorithm>::EdgeRecord, EdgePair>);

// One weight-trait run: the algorithm's results, the record its store keeps
// and the edge-device bytes its scans read (0 in memory).
template <typename Values>
struct TraitRun {
  Values values;
  RunStats stats;
  size_t record_bytes = 0;
  uint64_t scan_bytes = 0;
};

// Runs `run(engine, type_identity<A>)` -> (values, stats) on an engine of
// `shape` (8 partitions, one thread, so floating-point sums gather in the
// same order every run) whose edges sit on a device of their own, so the
// bytes that device reads after setup are edge scans and nothing else.
template <typename Algo, typename Run>
auto RunWeightShape(Shape shape, const EdgeList& edges, uint64_t pin_budget, Run&& run) {
  GraphInfo info = ScanEdges(edges);
  using Values = decltype(run(std::declval<InMemoryEngine<Algo>&>(),
                              std::type_identity<Algo>{}).first);
  TraitRun<Values> out;
  if (shape == Shape::kMemory) {
    InMemoryConfig cfg;
    cfg.threads = 1;
    cfg.num_partitions = 8;
    InMemoryEngine<Algo> engine(cfg, edges, info.num_vertices);
    std::tie(out.values, out.stats) = run(engine, std::type_identity<Algo>{});
    out.record_bytes = engine.store().edge_record_bytes();
    return out;
  }
  HybridConfig cfg;
  cfg.threads = 1;
  cfg.io_unit_bytes = 16 * 1024;
  cfg.num_partitions = 8;
  cfg.allow_update_memory_opt = false;
  cfg.memory_budget_bytes = pin_budget;
  SimDevice edge_dev("edges", DeviceProfile::Instant());
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(edge_dev, "input", edges);
  HybridEngine<Algo> engine(cfg, edge_dev, dev, dev, "input", info);
  const uint64_t setup_reads = edge_dev.stats().bytes_read;
  std::tie(out.values, out.stats) = run(engine, std::type_identity<Algo>{});
  out.record_bytes = engine.store().edge_record_bytes();
  out.scan_bytes = edge_dev.stats().bytes_read - setup_reads;
  return out;
}

// Runs a weight-free Algo beside its ReadWeights twin in memory, on the
// device at pin budget 0 and hybrid at half the full pin budget, over an
// input with random weights: the twin streams 12-byte Edges, Algo 8-byte
// pairs that reach Scatter with weight 0. Results, iterations, update-file
// bytes and promotions must be identical; only the edge bytes differ.
template <typename Algo, typename Run>
void ExpectWeightFreeTwinsAgree(const EdgeList& edges, Run&& run) {
  static_assert(!ReadsEdgeWeight<Algo>);
  GraphInfo info = ScanEdges(edges);
  ThreadPool probe(1);
  const uint64_t half_pin =
      FullPinBytes<Algo>(probe, edges, PartitionLayout(info.num_vertices, 8)) / 2;
  for (Shape shape : {Shape::kMemory, Shape::kDevice, Shape::kHybrid}) {
    SCOPED_TRACE(ShapeName(shape));
    const uint64_t budget = shape == Shape::kHybrid ? half_pin : 0;
    auto pairs = RunWeightShape<Algo>(shape, edges, budget, run);
    auto whole = RunWeightShape<ReadWeights<Algo>>(shape, edges, budget, run);
    EXPECT_TRUE(pairs.values == whole.values);
    EXPECT_EQ(pairs.stats.iterations, whole.stats.iterations);
    EXPECT_EQ(pairs.stats.edges_streamed, whole.stats.edges_streamed);
    EXPECT_EQ(pairs.stats.update_file_bytes, whole.stats.update_file_bytes);
    EXPECT_EQ(pairs.stats.promotions, whole.stats.promotions);
    EXPECT_EQ(pairs.record_bytes, sizeof(EdgePair));
    EXPECT_EQ(whole.record_bytes, sizeof(Edge));
    if (shape != Shape::kMemory) {
      ASSERT_GT(pairs.stats.edges_streamed, 0u);
      EXPECT_EQ(pairs.scan_bytes, pairs.stats.edges_streamed * sizeof(EdgePair));
      EXPECT_EQ(whole.scan_bytes, whole.stats.edges_streamed * sizeof(Edge));
    }
  }
}

TEST(EdgeWeightTraitTest, WeightFreeAlgorithmsMatchTheirWeightReadingTwins) {
  EdgeList edges = TestGraph(73, 10);
  for (uint64_t i = 0; i < edges.size(); ++i) {
    edges[i].weight = static_cast<float>(SplitMix64(i) >> 40) / static_cast<float>(1 << 24);
  }
  ExpectWeightFreeTwinsAgree<WccAlgorithm>(edges, [](auto& engine, auto algo) {
    WccResult r = RunWcc<typename decltype(algo)::type>(engine);
    return std::make_pair(r.labels, r.stats);
  });
  ExpectWeightFreeTwinsAgree<BfsAlgorithm>(edges, [](auto& engine, auto algo) {
    BfsResult r = RunBfs<typename decltype(algo)::type>(engine, 0);
    return std::make_pair(r.levels, r.stats);
  });
  ExpectWeightFreeTwinsAgree<PageRankAlgorithm>(edges, [](auto& engine, auto algo) {
    PageRankResult r = RunPageRank<typename decltype(algo)::type>(engine, 4);
    return std::make_pair(r.ranks, r.stats);
  });
  ExpectWeightFreeTwinsAgree<BpAlgorithm>(edges, [](auto& engine, auto algo) {
    BpResult r = RunBp<typename decltype(algo)::type>(engine, 4);
    return std::make_pair(r.belief1, r.stats);
  });
  ExpectWeightFreeTwinsAgree<ConductanceAlgorithm>(edges, [](auto& engine, auto algo) {
    ConductanceResult r = RunConductance<typename decltype(algo)::type>(engine);
    return std::make_pair(std::vector<uint64_t>{r.cross_edges, r.volume_s, r.volume_rest},
                          r.stats);
  });
  ExpectWeightFreeTwinsAgree<HyperAnfAlgorithm>(edges, [](auto& engine, auto algo) {
    HyperAnfResult r = RunHyperAnf<typename decltype(algo)::type>(engine);
    return std::make_pair(r.neighborhood_function, r.stats);
  });
  ExpectWeightFreeTwinsAgree<KCoreAlgorithm>(edges, [](auto& engine, auto algo) {
    KCoreResult r = RunKCore<typename decltype(algo)::type>(engine, 4);
    return std::make_pair(r.in_core, r.stats);
  });
  ExpectWeightFreeTwinsAgree<MisAlgorithm>(edges, [](auto& engine, auto algo) {
    MisResult r = RunMis<typename decltype(algo)::type>(engine);
    return std::make_pair(r.in_set, r.stats);
  });
}

}  // namespace
}  // namespace xstream
