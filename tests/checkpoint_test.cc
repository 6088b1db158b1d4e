// Checkpoint/restore of vertex state on both engines.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "partitioning/partitioner.h"
#include "storage/sim_device.h"

namespace xstream {
namespace {

EdgeList TestGraph(uint64_t seed) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  return GenerateRmat(params);
}

// A checkpoint load rewrites every vertex state behind the driver's back, so
// it must make every partition eligible for the next scatter again. Here
// the engine first runs BFS from root A to convergence, which leaves no
// partition holding an active vertex; it then loads BFS from root B after
// two iterations and resumes. Were the activity flags kept, the resumed
// scatter would skip every partition and stop at once on the checkpoint.
template <typename MakeEngine>
void ExpectResumeAfterConvergedRunMatchesStraightRun(MakeEngine&& make) {
  constexpr VertexId kRootA = 0;
  constexpr VertexId kRootB = 3;
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  {
    auto engine = make();
    BfsAlgorithm algo(kRootB);
    engine->InitVertices(algo);
    engine->RunIteration(algo);
    engine->RunIteration(algo);
    engine->SaveVertexStates(ckpt, "bfs_b.ckpt");
  }
  auto straight = make();
  BfsResult expected = RunBfs(*straight, kRootB);
  ASSERT_GT(expected.stats.iterations, 3u) << "root B's search must outlast the checkpoint";

  auto engine = make();
  BfsAlgorithm from_a(kRootA);
  engine->Run(from_a);
  engine->LoadVertexStates(ckpt, "bfs_b.ckpt");
  BfsAlgorithm from_b(kRootB);
  while (engine->RunIteration(from_b).updates_generated > 0) {
  }
  std::vector<uint32_t> levels(engine->num_vertices());
  engine->VertexMap([&levels](VertexId v, BfsAlgorithm::VertexState& s) { levels[v] = s.level; });
  EXPECT_EQ(levels, expected.levels);
}

TEST(CheckpointTest, ResumeAfterConvergedRunRescansRestoredFrontierInMemory) {
  EdgeList edges = TestGraph(13);
  GraphInfo info = ScanEdges(edges);
  InMemoryConfig config;
  config.threads = 2;
  config.num_partitions = 8;
  ExpectResumeAfterConvergedRunMatchesStraightRun([&] {
    return std::make_unique<InMemoryEngine<BfsAlgorithm>>(config, edges, info.num_vertices);
  });
}

TEST(CheckpointTest, ResumeAfterConvergedRunRescansRestoredFrontierOnDevice) {
  EdgeList edges = TestGraph(13);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig config;
  config.threads = 2;
  config.io_unit_bytes = 8 << 10;
  config.num_partitions = 8;
  config.allow_vertex_memory_opt = false;
  int engines = 0;
  ExpectResumeAfterConvergedRunMatchesStraightRun([&] {
    config.file_prefix = "xs" + std::to_string(engines++);
    return std::make_unique<HybridEngine<BfsAlgorithm>>(config, dev, dev, dev, "input", info);
  });
}

TEST(CheckpointTest, InMemorySaveRestoreRoundtrip) {
  EdgeList edges = TestGraph(3);
  GraphInfo info = ScanEdges(edges);
  SimDevice ckpt("ckpt", DeviceProfile::Instant());

  InMemoryConfig config;
  config.threads = 2;
  InMemoryEngine<WccAlgorithm> engine(config, edges, info.num_vertices);
  WccResult done = RunWcc(engine);
  engine.SaveVertexStates(ckpt, "wcc.ckpt");

  // A fresh engine restores the converged labels without recomputation.
  InMemoryEngine<WccAlgorithm> fresh(config, edges, info.num_vertices);
  fresh.LoadVertexStates(ckpt, "wcc.ckpt");
  std::vector<VertexId> restored(info.num_vertices);
  fresh.VertexFold(0, [&restored](int acc, VertexId v, const WccAlgorithm::VertexState& s) {
    restored[v] = s.label;
    return acc;
  });
  EXPECT_EQ(restored, done.labels);
}

TEST(CheckpointTest, ResumedRunReachesSameFixpoint) {
  EdgeList edges = TestGraph(5);
  GraphInfo info = ScanEdges(edges);
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  InMemoryConfig config;
  config.threads = 2;

  // Interrupted run: only 2 iterations, then checkpoint.
  WccAlgorithm algo;
  InMemoryEngine<WccAlgorithm> first(config, edges, info.num_vertices);
  first.InitVertices(algo);
  first.RunIteration(algo);
  first.RunIteration(algo);
  first.SaveVertexStates(ckpt, "partial.ckpt");

  // Resume in a new engine and run to convergence.
  InMemoryEngine<WccAlgorithm> resumed(config, edges, info.num_vertices);
  resumed.LoadVertexStates(ckpt, "partial.ckpt");
  WccAlgorithm algo2;
  while (resumed.RunIteration(algo2).updates_generated > 0) {
  }
  std::vector<VertexId> labels(info.num_vertices);
  resumed.VertexFold(0, [&labels](int acc, VertexId v, const WccAlgorithm::VertexState& s) {
    labels[v] = s.label;
    return acc;
  });

  // Reference: uninterrupted run.
  InMemoryEngine<WccAlgorithm> straight(config, edges, info.num_vertices);
  EXPECT_EQ(labels, RunWcc(straight).labels);
}

TEST(CheckpointTest, OutOfCoreMemoryResidentVertices) {
  EdgeList edges = TestGraph(7);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.io_unit_bytes = 8 << 10;
  HybridEngine<PageRankAlgorithm> engine(config, dev, dev, dev, "input", info);
  ASSERT_TRUE(engine.vertices_in_memory());
  PageRankResult done = RunPageRank(engine, 3);
  engine.SaveVertexStates(ckpt, "pr.ckpt");

  HybridEngine<PageRankAlgorithm> fresh(config, dev, dev, dev, "input", info);
  fresh.LoadVertexStates(ckpt, "pr.ckpt");
  std::vector<float> restored(info.num_vertices);
  fresh.VertexFold(0, [&restored](int acc, VertexId v,
                                  const PageRankAlgorithm::VertexState& s) {
    restored[v] = s.rank;
    return acc;
  });
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_FLOAT_EQ(restored[v], done.ranks[v]) << v;
  }
}

TEST(CheckpointTest, OutOfCoreFileResidentVertices) {
  EdgeList edges = TestGraph(9);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);

  HybridConfig config;
  config.threads = 2;
  config.io_unit_bytes = 8 << 10;
  config.num_partitions = 8;
  config.allow_vertex_memory_opt = false;
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  ASSERT_FALSE(engine.vertices_in_memory());
  WccResult done = RunWcc(engine);
  engine.SaveVertexStates(ckpt, "wcc.ckpt");

  HybridEngine<WccAlgorithm> fresh(config, dev, dev, dev, "input", info);
  fresh.LoadVertexStates(ckpt, "wcc.ckpt");
  std::vector<VertexId> restored(info.num_vertices);
  fresh.VertexFold(0, [&restored](int acc, VertexId v, const WccAlgorithm::VertexState& s) {
    restored[v] = s.label;
    return acc;
  });
  EXPECT_EQ(restored, done.labels);
}

// Checkpoints carry the active vertex mapping: restoring under the same
// partitioner (same seed => same deterministic mapping) works, restoring
// under a different one fails loudly instead of scrambling states.
TEST(CheckpointTest, MappedCheckpointRestoresUnderSameMapping) {
  EdgeList edges = TestGraph(13);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);

  auto partitioner = MakePartitioner("greedy");
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.io_unit_bytes = 8 << 10;
  config.num_partitions = 4;
  config.partitioner = partitioner.get();
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  WccResult done = RunWcc(engine);
  engine.SaveVertexStates(ckpt, "wcc.ckpt");

  auto same = MakePartitioner("greedy");
  HybridConfig config2 = config;
  config2.partitioner = same.get();
  HybridEngine<WccAlgorithm> fresh(config2, dev, dev, dev, "input", info);
  fresh.LoadVertexStates(ckpt, "wcc.ckpt");
  std::vector<VertexId> restored(info.num_vertices);
  fresh.VertexMap([&restored](VertexId v, const WccAlgorithm::VertexState& s) {
    restored[v] = s.label;
  });
  EXPECT_EQ(restored, done.labels);
}

TEST(CheckpointTest, MappedCheckpointRejectsDifferentPartitioner) {
  EdgeList edges = TestGraph(15);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);

  auto greedy = MakePartitioner("greedy");
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 1;
  config.io_unit_bytes = 8 << 10;
  config.num_partitions = 4;
  config.partitioner = greedy.get();
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  RunWcc(engine);
  engine.SaveVertexStates(ckpt, "wcc.ckpt");

  // Same family of layouts (mapped) but a different assignment.
  auto hash = MakePartitioner("hash");
  HybridConfig hash_config = config;
  hash_config.partitioner = hash.get();
  HybridEngine<WccAlgorithm> other(hash_config, dev, dev, dev, "input", info);
  EXPECT_DEATH(other.LoadVertexStates(ckpt, "wcc.ckpt"), "different vertex mapping");

  // Range layout (no mapping at all) is also a mismatch.
  HybridConfig range_config = config;
  range_config.partitioner = nullptr;
  HybridEngine<WccAlgorithm> range_engine(range_config, dev, dev, dev, "input", info);
  EXPECT_DEATH(range_engine.LoadVertexStates(ckpt, "wcc.ckpt"),
               "restore with the same --partitioner");
}

TEST(CheckpointTest, RangeCheckpointPortableAcrossPartitionCounts) {
  // Range layouts' dense order is the identity for every partition count,
  // so those checkpoints restore across counts (and across engines).
  EdgeList edges = TestGraph(17);
  GraphInfo info = ScanEdges(edges);
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  InMemoryConfig config;
  config.threads = 2;
  config.num_partitions = 8;
  InMemoryEngine<WccAlgorithm> engine(config, edges, info.num_vertices);
  WccResult done = RunWcc(engine);
  engine.SaveVertexStates(ckpt, "wcc.ckpt");

  InMemoryConfig other = config;
  other.num_partitions = 2;
  InMemoryEngine<WccAlgorithm> fresh(other, edges, info.num_vertices);
  fresh.LoadVertexStates(ckpt, "wcc.ckpt");
  std::vector<VertexId> restored(info.num_vertices);
  fresh.VertexFold(0, [&restored](int acc, VertexId v, const WccAlgorithm::VertexState& s) {
    restored[v] = s.label;
    return acc;
  });
  EXPECT_EQ(restored, done.labels);
}

TEST(CheckpointTest, MismatchedCheckpointAborts) {
  EdgeList edges = TestGraph(11);
  GraphInfo info = ScanEdges(edges);
  SimDevice ckpt("ckpt", DeviceProfile::Instant());
  FileId f = ckpt.Create("bad.ckpt");
  std::vector<std::byte> junk(13);
  ckpt.Write(f, 0, junk);
  InMemoryConfig config;
  config.threads = 1;
  InMemoryEngine<WccAlgorithm> engine(config, edges, info.num_vertices);
  EXPECT_DEATH(engine.LoadVertexStates(ckpt, "bad.ckpt"), "checkpoint does not match");
}

}  // namespace
}  // namespace xstream
