// Tests for the streaming-partitioner subsystem: mapping invariants,
// determinism, quality metrics, the mapping-aware engines, and end-to-end
// algorithm equivalence across partitioning strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/algorithms.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"
#include "core/semi_streaming.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/transforms.h"
#include "partitioning/partitioner.h"
#include "partitioning/quality.h"
#include "storage/sim_device.h"

namespace xstream {
namespace {

// Permuted-id RMAT: strips the generator's hub-at-low-id numbering so no
// strategy free-rides on it (see PermuteVertexIds).
EdgeList TestRmat(uint64_t seed = 11) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  GraphInfo info = ScanEdges(edges);
  return PermuteVertexIds(edges, info.num_vertices, seed + 2);
}

std::shared_ptr<VertexMapping> BuildMapping(const std::string& name, const EdgeList& edges,
                                            uint64_t n, uint32_t k,
                                            const PartitionerOptions& options = {}) {
  auto partitioner = MakePartitioner(name, options);
  return std::make_shared<VertexMapping>(
      partitioner->Partition(MakeEdgeStream(edges), n, k));
}

TEST(PartitionerTest, AllStrategiesProduceValidBalancedMappings) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  uint32_t k = 8;
  uint64_t ideal = (info.num_vertices + k - 1) / k;
  for (const auto& name : KnownPartitioners()) {
    auto mapping = BuildMapping(name, edges, info.num_vertices, k);
    CheckMapping(*mapping);  // disjoint, exhaustive, inverse relabeling
    EXPECT_EQ(mapping->num_partitions, k) << name;
    PartitionLayout layout(mapping);
    // Greedy and 2ps enforce the slack cap exactly; hash is only balanced in
    // expectation, so it gets a statistical tolerance.
    double tolerance = name == "hash" ? 1.3 : 1.05;
    uint64_t total = 0;
    for (uint32_t p = 0; p < k; ++p) {
      total += layout.Size(p);
      EXPECT_LE(layout.Size(p),
                static_cast<uint64_t>(tolerance * static_cast<double>(ideal)) + 1)
          << name << " partition " << p;
    }
    EXPECT_EQ(total, info.num_vertices) << name;
  }
}

TEST(PartitionerTest, DeterministicUnderFixedSeed) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  for (const auto& name : KnownPartitioners()) {
    PartitionerOptions options;
    options.seed = 42;
    auto a = BuildMapping(name, edges, info.num_vertices, 8, options);
    auto b = BuildMapping(name, edges, info.num_vertices, 8, options);
    EXPECT_EQ(a->partition_of, b->partition_of) << name;
    EXPECT_EQ(a->dense_of, b->dense_of) << name;
    EXPECT_EQ(a->original_of, b->original_of) << name;
    EXPECT_EQ(a->part_begin, b->part_begin) << name;
  }
}

TEST(PartitionerTest, HashSeedChangesAssignment) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  PartitionerOptions s1;
  s1.seed = 1;
  PartitionerOptions s2;
  s2.seed = 2;
  auto a = BuildMapping("hash", edges, info.num_vertices, 8, s1);
  auto b = BuildMapping("hash", edges, info.num_vertices, 8, s2);
  EXPECT_NE(a->partition_of, b->partition_of);
}

TEST(PartitionerTest, RangeMappingIsIdentityRelabeling) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  auto mapping = BuildMapping("range", edges, info.num_vertices, 8);
  PartitionLayout mapped(mapping);
  PartitionLayout plain(info.num_vertices, 8);
  for (VertexId v = 0; v < info.num_vertices; ++v) {
    EXPECT_EQ(mapped.PartitionOf(v), plain.PartitionOf(v));
    EXPECT_EQ(mapped.DenseId(v), v);
    EXPECT_EQ(mapped.OriginalId(v), v);
  }
  for (uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(mapped.Begin(p), plain.Begin(p));
    EXPECT_EQ(mapped.End(p), plain.End(p));
  }
}

TEST(PartitionQualityTest, SinglePartitionHasNoCut) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  PartitionQuality q = EvaluatePartitionQuality(PartitionLayout(info.num_vertices, 1), edges);
  EXPECT_EQ(q.cut_edges, 0u);
  EXPECT_DOUBLE_EQ(q.replication_factor, 1.0);
  EXPECT_DOUBLE_EQ(q.vertex_balance, 1.0);
}

TEST(PartitionQualityTest, LocalityAwareStrategiesBeatHashOnStructure) {
  // A grid is all community structure: clustering-based assignment must cut
  // far fewer edges than hashing; on permuted-id RMAT greedy must beat the
  // range baseline (which degenerates to quasi-random under permuted ids).
  EdgeList grid = GenerateGrid(48, 48, 3);
  GraphInfo ginfo = ScanEdges(grid);
  grid = PermuteVertexIds(grid, ginfo.num_vertices, 5);
  auto hash_q = EvaluatePartitionQuality(
      PartitionLayout(BuildMapping("hash", grid, ginfo.num_vertices, 8)), grid);
  auto two_phase_q = EvaluatePartitionQuality(
      PartitionLayout(BuildMapping("2ps", grid, ginfo.num_vertices, 8)), grid);
  EXPECT_LT(two_phase_q.CutFraction(), 0.5 * hash_q.CutFraction());
  EXPECT_LT(two_phase_q.replication_factor, hash_q.replication_factor);

  EdgeList rmat = TestRmat();
  GraphInfo rinfo = ScanEdges(rmat);
  auto range_q = EvaluatePartitionQuality(
      PartitionLayout(BuildMapping("range", rmat, rinfo.num_vertices, 8)), rmat);
  auto greedy_q = EvaluatePartitionQuality(
      PartitionLayout(BuildMapping("greedy", rmat, rinfo.num_vertices, 8)), rmat);
  EXPECT_LT(greedy_q.cut_edges, range_q.cut_edges);
}

TEST(PartitionQualityTest, SemiStreamingRunnersAgreeWithDirectEvaluation) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  PartitionLayout layout(BuildMapping("greedy", edges, info.num_vertices, 8));
  PartitionQuality direct = EvaluatePartitionQuality(layout, edges);

  // Flat edge file through the semi-streaming engine.
  SimDevice dev("q", DeviceProfile::Instant());
  WriteEdgeFile(dev, "flat", edges);
  PartitionQualityPass flat_pass(layout);
  RunSemiStreaming(flat_pass, dev, "flat", info.num_vertices, 1, 16 * 1024);
  PartitionQuality flat = flat_pass.Result();

  // Partitioned store (grouped by source partition like the engines').
  std::vector<std::string> files;
  for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
    files.push_back("part." + std::to_string(p));
    FileId f = dev.Create(files.back());
    for (const Edge& e : edges) {
      if (layout.PartitionOf(e.src) == p) {
        dev.Append(f, std::span<const std::byte>(
                          reinterpret_cast<const std::byte*>(&e), sizeof(Edge)));
      }
    }
  }
  PartitionQualityPass part_pass(layout);
  RunSemiStreamingPartitioned(part_pass, dev, layout, files, 1, 16 * 1024);
  PartitionQuality parted = part_pass.Result();

  for (const PartitionQuality& q : {flat, parted}) {
    EXPECT_EQ(q.edges, direct.edges);
    EXPECT_EQ(q.cut_edges, direct.cut_edges);
    EXPECT_DOUBLE_EQ(q.replication_factor, direct.replication_factor);
    EXPECT_DOUBLE_EQ(q.edge_balance, direct.edge_balance);
  }
}

// ---- End-to-end equivalence: every strategy must compute the same answers.

TEST(PartitionedEngineTest, InMemoryResultsIdenticalAcrossStrategies) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);

  ReferenceGraph ref(edges, info.num_vertices);
  std::vector<uint32_t> ref_levels = ReferenceBfsLevels(ref, 3);

  std::vector<float> base_ranks;
  for (const auto& name : KnownPartitioners()) {
    auto partitioner = MakePartitioner(name);
    InMemoryConfig config;
    config.threads = 2;
    config.cache_bytes = 64 * 1024;  // force several partitions
    config.partitioner = partitioner.get();

    InMemoryEngine<BfsAlgorithm> bfs_engine(config, edges, info.num_vertices);
    BfsResult bfs = RunBfs(bfs_engine, 3);
    EXPECT_EQ(bfs.levels, ref_levels) << name;

    InMemoryEngine<PageRankAlgorithm> pr_engine(config, edges, info.num_vertices);
    PageRankResult pr = RunPageRank(pr_engine, 4);
    if (base_ranks.empty()) {
      base_ranks = pr.ranks;
    } else {
      ASSERT_EQ(pr.ranks.size(), base_ranks.size()) << name;
      for (size_t v = 0; v < base_ranks.size(); ++v) {
        EXPECT_NEAR(pr.ranks[v], base_ranks[v], 1e-5f) << name << " vertex " << v;
      }
    }
  }
}

TEST(PartitionedEngineTest, OutOfCoreResultsIdenticalAcrossStrategies) {
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  ReferenceGraph ref(edges, info.num_vertices);
  std::vector<uint32_t> ref_levels = ReferenceBfsLevels(ref, 3);

  for (const auto& name : KnownPartitioners()) {
    auto partitioner = MakePartitioner(name);
    SimDevice dev("d", DeviceProfile::Instant());
    WriteEdgeFile(dev, "input", edges);
    HybridConfig config;
    config.threads = 2;
    config.streaming_budget_bytes = 1ull << 20;
    config.io_unit_bytes = 16 * 1024;
    config.num_partitions = 4;
    config.allow_vertex_memory_opt = false;  // file-resident vertex states
    config.allow_update_memory_opt = false;
    config.partitioner = partitioner.get();
    HybridEngine<BfsAlgorithm> engine(config, dev, dev, dev, "input", info);
    ASSERT_FALSE(engine.vertices_in_memory());
    BfsResult bfs = RunBfs(engine, 3);
    EXPECT_EQ(bfs.levels, ref_levels) << name;
  }
}

TEST(PartitionedEngineTest, AbsorptionPreservesResultsAndCutsUpdateTraffic) {
  // Absorption only engages when scatter output overflows the stream buffer
  // mid-partition, so this graph's per-iteration update volume (~256 KB)
  // must exceed the 64 KB buffer (io_unit * partitions) several times over.
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 16;
  params.undirected = true;
  params.seed = 17;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, 18);
  GraphInfo info = ScanEdges(edges);
  edges = PermuteVertexIds(edges, info.num_vertices, 19);
  auto partitioner = MakePartitioner("greedy");

  RunStats stats[2];
  std::vector<VertexId> labels[2];
  for (int absorb = 0; absorb < 2; ++absorb) {
    SimDevice dev("d", DeviceProfile::Instant());
    WriteEdgeFile(dev, "input", edges);
    HybridConfig config;
    config.threads = 2;
    config.streaming_budget_bytes = 1ull << 20;
    config.io_unit_bytes = 16 * 1024;
    config.num_partitions = 4;
    config.allow_vertex_memory_opt = false;
    config.allow_update_memory_opt = false;
    config.absorb_local_updates = absorb == 1;
    config.partitioner = partitioner.get();
    HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
    WccResult r = RunWcc(engine);
    labels[absorb] = r.labels;
    stats[absorb] = r.stats;
  }
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(stats[0].updates_absorbed, 0u);
  EXPECT_GT(stats[1].updates_absorbed, 0u);
  EXPECT_LT(stats[1].update_file_bytes, stats[0].update_file_bytes);
}

TEST(PartitionedEngineTest, CliStyleStateAccessorsTranslateIds) {
  // State(v) must refer to the same vertex regardless of the mapping.
  EdgeList edges = TestRmat();
  GraphInfo info = ScanEdges(edges);
  auto partitioner = MakePartitioner("2ps");
  InMemoryConfig config;
  config.threads = 1;
  config.cache_bytes = 64 * 1024;
  config.partitioner = partitioner.get();
  InMemoryEngine<BfsAlgorithm> engine(config, edges, info.num_vertices);
  BfsResult r = RunBfs(engine, 3);
  for (VertexId v = 0; v < info.num_vertices; v += 37) {
    EXPECT_EQ(engine.State(v).level, r.levels[v]);
  }
}

}  // namespace
}  // namespace xstream
