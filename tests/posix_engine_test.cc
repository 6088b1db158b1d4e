// End-to-end out-of-core engine runs against a real filesystem
// (PosixDevice): the integration path the examples use.
#include <gtest/gtest.h>

#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "core/hybrid_engine.h"
#include "core/semi_streaming.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "storage/posix_device.h"

namespace xstream {
namespace {

EdgeList TestGraph(uint64_t seed) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  return edges;
}

TEST(PosixEngineTest, WccOnRealFiles) {
  EdgeList edges = TestGraph(3);
  GraphInfo info = ScanEdges(edges);
  ScratchDir scratch("xs-engine");
  PosixDevice dev("disk", scratch.path());
  WriteEdgeFile(dev, "input", edges);

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 20;
  config.io_unit_bytes = 64 << 10;
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  WccResult r = RunWcc(engine);
  EXPECT_EQ(r.labels, ReferenceWcc(edges, info.num_vertices));
  EXPECT_GT(dev.stats().bytes_read, 0u);
}

TEST(PosixEngineTest, WccWithFileResidentVerticesAndSpills) {
  EdgeList edges = TestGraph(5);
  GraphInfo info = ScanEdges(edges);
  ScratchDir scratch("xs-engine");
  PosixDevice dev("disk", scratch.path());
  WriteEdgeFile(dev, "input", edges);

  HybridConfig config;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 18;
  config.io_unit_bytes = 16 << 10;
  config.num_partitions = 8;
  config.allow_vertex_memory_opt = false;
  config.allow_update_memory_opt = false;
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  EXPECT_FALSE(engine.vertices_in_memory());
  WccResult r = RunWcc(engine);
  EXPECT_EQ(r.labels, ReferenceWcc(edges, info.num_vertices));
}

TEST(PosixEngineTest, SplitDevicesForEdgesAndUpdates) {
  // The Fig 15 "independent disks" layout against two real directories.
  EdgeList edges = TestGraph(7);
  GraphInfo info = ScanEdges(edges);
  ScratchDir scratch_a("xs-edges");
  ScratchDir scratch_b("xs-updates");
  PosixDevice edges_dev("edges-disk", scratch_a.path());
  PosixDevice updates_dev("updates-disk", scratch_b.path());
  WriteEdgeFile(edges_dev, "input", edges);

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 19;
  config.io_unit_bytes = 32 << 10;
  config.allow_update_memory_opt = false;  // force traffic onto updates_dev
  HybridEngine<WccAlgorithm> engine(config, edges_dev, updates_dev, edges_dev, "input",
                                    info);
  WccResult r = RunWcc(engine);
  EXPECT_EQ(r.labels, ReferenceWcc(edges, info.num_vertices));
  EXPECT_GT(updates_dev.stats().bytes_written, 0u);
}

TEST(PosixEngineTest, PageRankOnRealFiles) {
  EdgeList edges = TestGraph(9);
  GraphInfo info = ScanEdges(edges);
  ScratchDir scratch("xs-engine");
  PosixDevice dev("disk", scratch.path());
  WriteEdgeFile(dev, "input", edges);

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 20;
  config.io_unit_bytes = 64 << 10;
  HybridEngine<PageRankAlgorithm> engine(config, dev, dev, dev, "input", info);
  PageRankResult r = RunPageRank(engine, 5);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferencePageRank(g, 5);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    ASSERT_NEAR(r.ranks[v], expected[v], 1e-4) << v;
  }
}

TEST(PosixEngineTest, DirectIoFallsBackGracefully) {
  // O_DIRECT may or may not be available on the test filesystem; either way
  // the engine must produce correct results.
  EdgeList edges = TestGraph(11);
  GraphInfo info = ScanEdges(edges);
  ScratchDir scratch("xs-engine");
  PosixDevice dev("disk", scratch.path(), /*try_direct=*/true);
  WriteEdgeFile(dev, "input", edges);

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 20;
  config.io_unit_bytes = 64 << 10;
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  WccResult r = RunWcc(engine);
  EXPECT_EQ(r.labels, ReferenceWcc(edges, info.num_vertices));
}

TEST(PosixEngineTest, SemiStreamingFromRealFile) {
  EdgeList edges = TestGraph(13);
  GraphInfo info = ScanEdges(edges);
  ScratchDir scratch("xs-engine");
  PosixDevice dev("disk", scratch.path());
  WriteEdgeFile(dev, "input", edges);
  SemiStreamingConnectivity algo;
  RunSemiStreaming(algo, dev, "input", info.num_vertices, 64, 32 << 10);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);
  for (VertexId v = 0; v < info.num_vertices; ++v) {
    EXPECT_EQ(algo.Component(v), expected[v]);
  }
}

}  // namespace
}  // namespace xstream
