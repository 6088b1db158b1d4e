// Randomized regression sweeps: the engine/reference equivalences must hold
// for arbitrary seeds, not just the hand-picked ones in engine_test.cc.
// Each TEST_P instance runs a fresh random graph end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "algorithms/kcores.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "storage/sim_device.h"

namespace xstream {
namespace {

EdgeList SeededGraph(uint64_t seed) {
  RmatParams params;
  params.scale = 8 + (seed % 3);  // vary the size too
  params.edge_factor = 4 + (seed % 9);
  params.undirected = true;
  params.seed = seed * 2654435761u + 1;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 100);
  return edges;
}

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, WccBothEnginesMatchUnionFind) {
  uint64_t seed = GetParam();
  EdgeList edges = SeededGraph(seed);
  GraphInfo info = ScanEdges(edges);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  InMemoryConfig im;
  im.threads = 2;
  im.cache_bytes = 64 * 1024;
  InMemoryEngine<WccAlgorithm> a(im, edges, info.num_vertices);
  EXPECT_EQ(RunWcc(a).labels, expected);

  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig oc;
  oc.allow_vertex_memory_opt = true;
  oc.threads = 2;
  oc.streaming_budget_bytes = 1 << 19;
  oc.io_unit_bytes = 8 << 10;
  HybridEngine<WccAlgorithm> b(oc, dev, dev, dev, "input", info);
  EXPECT_EQ(RunWcc(b).labels, expected);
}

TEST_P(SeedSweep, BfsMatchesReference) {
  uint64_t seed = GetParam();
  EdgeList edges = SeededGraph(seed + 1000);
  GraphInfo info = ScanEdges(edges);
  ReferenceGraph g(edges, info.num_vertices);
  InMemoryConfig im;
  im.threads = 2;
  InMemoryEngine<BfsAlgorithm> engine(im, edges, info.num_vertices);
  EXPECT_EQ(RunBfs(engine, 0).levels, ReferenceBfsLevels(g, 0));
}

TEST_P(SeedSweep, SsspMatchesReference) {
  uint64_t seed = GetParam();
  EdgeList edges = SeededGraph(seed + 2000);
  GraphInfo info = ScanEdges(edges);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferenceSssp(g, 0);
  InMemoryConfig im;
  im.threads = 2;
  InMemoryEngine<SsspAlgorithm> engine(im, edges, info.num_vertices);
  SsspResult r = RunSssp(engine, 0);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    if (std::isinf(expected[v])) {
      ASSERT_TRUE(std::isinf(r.dist[v])) << v;
    } else {
      ASSERT_NEAR(r.dist[v], expected[v], 1e-3) << v;
    }
  }
}

TEST_P(SeedSweep, McstMatchesKruskal) {
  uint64_t seed = GetParam();
  EdgeList edges = SeededGraph(seed + 3000);
  GraphInfo info = ScanEdges(edges);
  InMemoryConfig im;
  im.threads = 2;
  InMemoryEngine<McstAlgorithm> engine(im, edges, info.num_vertices);
  McstResult r = RunMcst(engine);
  double expected = ReferenceMstWeight(edges, info.num_vertices);
  EXPECT_NEAR(r.total_weight, expected, 1e-2 + 1e-4 * expected);
}

TEST_P(SeedSweep, MisIsValid) {
  uint64_t seed = GetParam();
  EdgeList edges = SeededGraph(seed + 4000);
  GraphInfo info = ScanEdges(edges);
  InMemoryConfig im;
  im.threads = 2;
  InMemoryEngine<MisAlgorithm> engine(im, edges, info.num_vertices);
  MisResult r = RunMis(engine, seed);
  EXPECT_TRUE(IsMaximalIndependentSet(edges, info.num_vertices, r.in_set));
}

TEST_P(SeedSweep, KCoreMatchesPeeling) {
  uint64_t seed = GetParam();
  EdgeList edges = SeededGraph(seed + 5000);
  GraphInfo info = ScanEdges(edges);
  uint32_t k = 3 + static_cast<uint32_t>(seed % 6);
  InMemoryConfig im;
  im.threads = 2;
  InMemoryEngine<KCoreAlgorithm> engine(im, edges, info.num_vertices);
  KCoreResult r = RunKCore(engine, k);
  EXPECT_EQ(r.in_core, ReferenceKCore(edges, info.num_vertices, k)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range<uint64_t>(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace xstream
