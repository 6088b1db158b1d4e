// Tests for text I/O, edge-list transforms and the k-core algorithm.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "algorithms/kcores.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/text_io.h"
#include "graph/transforms.h"
#include "storage/posix_device.h"
#include "storage/sim_device.h"

namespace xstream {
namespace {

// ---------------------------------------------------------------- text I/O

TEST(TextIoTest, ParsesPlainPairs) {
  EdgeList edges = ParseTextEdges("0 1\n1 2\n2 0\n");
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[0].dst, 1u);
  EXPECT_GE(edges[0].weight, 0.0f);  // synthesized weight
  EXPECT_LT(edges[0].weight, 1.0f);
}

TEST(TextIoTest, ParsesWeights) {
  EdgeList edges = ParseTextEdges("3 4 0.5\n4 5 1.25\n");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_FLOAT_EQ(edges[0].weight, 0.5f);
  EXPECT_FLOAT_EQ(edges[1].weight, 1.25f);
}

TEST(TextIoTest, SkipsCommentsAndBlanks) {
  EdgeList edges = ParseTextEdges("# header\n% matrix market ish\n\n  \n0 1\n// c++ style\n1 2\n");
  EXPECT_EQ(edges.size(), 2u);
}

TEST(TextIoTest, SymmetrizeOption) {
  TextReadOptions opts;
  opts.symmetrize = true;
  EdgeList edges = ParseTextEdges("0 1 2.0\n", opts);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[1].src, 1u);
  EXPECT_EQ(edges[1].dst, 0u);
  EXPECT_FLOAT_EQ(edges[1].weight, 2.0f);
}

TEST(TextIoTest, FixedWeightOption) {
  TextReadOptions opts;
  opts.random_weights_if_missing = false;
  EdgeList edges = ParseTextEdges("0 1\n", opts);
  EXPECT_FLOAT_EQ(edges[0].weight, 1.0f);
}

TEST(TextIoTest, SynthesizedWeightsAreDeterministic) {
  EdgeList a = ParseTextEdges("7 9\n");
  EdgeList b = ParseTextEdges("7 9\n");
  EXPECT_FLOAT_EQ(a[0].weight, b[0].weight);
}

TEST(TextIoTest, MalformedLineAborts) {
  EXPECT_DEATH(ParseTextEdges("0 1\nnot numbers\n"), "line 2");
}

TEST(TextIoTest, FileRoundtrip) {
  ScratchDir scratch("xs-textio");
  std::string path = scratch.path() + "/graph.txt";
  EdgeList edges = GeneratePath(50, 3);
  WriteTextEdgeList(path, edges);
  EdgeList back = ReadTextEdgeList(path);
  ASSERT_EQ(back.size(), edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(back[i].src, edges[i].src);
    EXPECT_EQ(back[i].dst, edges[i].dst);
    EXPECT_NEAR(back[i].weight, edges[i].weight, 1e-5);
  }
}

TEST(TextIoTest, MissingFileAborts) {
  EXPECT_DEATH(ReadTextEdgeList("/nonexistent/graph.txt"), "cannot open");
}

// ---------------------------------------------------------------- transforms

TEST(TransformsTest, RemoveSelfLoops) {
  EdgeList edges{{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 1, 1.0f}, {1, 2, 1.0f}};
  EdgeList out = RemoveSelfLoops(edges);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dst, 1u);
  EXPECT_EQ(out[1].dst, 2u);
}

TEST(TransformsTest, DeduplicateKeepsFirstRecord) {
  EdgeList edges{{0, 1, 0.1f}, {2, 3, 0.2f}, {0, 1, 0.9f}, {0, 2, 0.3f}, {0, 1, 0.5f}};
  EdgeList out = DeduplicateEdges(edges);
  ASSERT_EQ(out.size(), 3u);
  // (0,1) keeps the first record's weight.
  for (const Edge& e : out) {
    if (e.src == 0 && e.dst == 1) {
      EXPECT_FLOAT_EQ(e.weight, 0.1f);
    }
  }
}

TEST(TransformsTest, DeduplicateNoopsOnCleanInput) {
  EdgeList edges = GeneratePath(100, 5);
  EXPECT_EQ(DeduplicateEdges(edges).size(), edges.size());
}

TEST(TransformsTest, CompactRenumbersDensely) {
  EdgeList sparse{{100, 5000, 1.0f}, {5000, 9999999, 2.0f}, {100, 9999999, 3.0f}};
  CompactedGraph g = CompactVertexIds(sparse);
  EXPECT_EQ(g.num_vertices, 3u);
  EXPECT_EQ(g.edges[0].src, 0u);   // 100 -> 0 (first appearance)
  EXPECT_EQ(g.edges[0].dst, 1u);   // 5000 -> 1
  EXPECT_EQ(g.edges[1].dst, 2u);   // 9999999 -> 2
  EXPECT_EQ(g.new_to_old[2], 9999999u);
  EXPECT_EQ(g.old_to_new[100], 0u);
  // Unused ids map to kNoVertex.
  EXPECT_EQ(g.old_to_new[101], kNoVertex);
}

TEST(TransformsTest, CompactPreservesStructure) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 4;
  params.undirected = true;
  params.seed = 5;
  EdgeList edges = GenerateRmat(params);
  CompactedGraph g = CompactVertexIds(edges);
  // Component structure must be isomorphic: count components both ways.
  GraphInfo before = ScanEdges(edges);
  auto labels_before = ReferenceWcc(edges, before.num_vertices);
  auto labels_after = ReferenceWcc(g.edges, g.num_vertices);
  std::set<VertexId> comps_before;
  std::set<VertexId> comps_after;
  // Only count components containing at least one edge endpoint (compaction
  // drops isolated vertices).
  std::vector<uint8_t> touched(before.num_vertices, 0);
  for (const Edge& e : edges) {
    touched[e.src] = touched[e.dst] = 1;
  }
  for (uint64_t v = 0; v < before.num_vertices; ++v) {
    if (touched[v]) {
      comps_before.insert(labels_before[v]);
    }
  }
  for (uint64_t v = 0; v < g.num_vertices; ++v) {
    comps_after.insert(labels_after[v]);
  }
  EXPECT_EQ(comps_before.size(), comps_after.size());
}

TEST(TransformsTest, DegreeSummary) {
  EdgeList edges{{0, 1, 1.0f}, {0, 2, 1.0f}, {1, 2, 1.0f}};
  DegreeSummary s = ComputeDegrees(edges, 3);
  EXPECT_EQ(s.out_degree[0], 2u);
  EXPECT_EQ(s.in_degree[2], 2u);
  EXPECT_EQ(s.max_out_degree, 2u);
  EXPECT_EQ(s.max_in_degree, 2u);
  EXPECT_DOUBLE_EQ(s.average_degree, 1.0);
}

// ---------------------------------------------------------------- k-core

TEST(KCoreTest, MatchesReferencePeeling) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = 7;
  EdgeList edges = GenerateRmat(params);
  GraphInfo info = ScanEdges(edges);
  for (uint32_t k : {2u, 4u, 8u, 16u}) {
    InMemoryConfig config;
    config.threads = 2;
    InMemoryEngine<KCoreAlgorithm> engine(config, edges, info.num_vertices);
    KCoreResult r = RunKCore(engine, k);
    EXPECT_EQ(r.in_core, ReferenceKCore(edges, info.num_vertices, k)) << "k=" << k;
  }
}

TEST(KCoreTest, GridHasNoThreeCore) {
  // Interior grid vertices have degree 4 but peeling k=3 unravels from the
  // corners (degree 2), taking the whole grid with it.
  EdgeList edges = GenerateGrid(8, 8, 9);
  InMemoryConfig config;
  config.threads = 2;
  InMemoryEngine<KCoreAlgorithm> engine(config, edges, 64);
  KCoreResult r = RunKCore(engine, 3);
  EXPECT_EQ(r.core_size, 0u);
  EXPECT_EQ(r.in_core, ReferenceKCore(edges, 64, 3));
}

TEST(KCoreTest, CliqueSurvivesItsOwnDegree) {
  EdgeList edges;
  for (VertexId i = 0; i < 8; ++i) {
    for (VertexId j = 0; j < 8; ++j) {
      if (i != j) {
        edges.push_back(Edge{i, j, 1.0f});
      }
    }
  }
  // Attach a pendant vertex that must be peeled.
  edges.push_back(Edge{0, 8, 1.0f});
  edges.push_back(Edge{8, 0, 1.0f});
  InMemoryConfig config;
  config.threads = 2;
  InMemoryEngine<KCoreAlgorithm> engine(config, edges, 9);
  KCoreResult r = RunKCore(engine, 7);
  EXPECT_EQ(r.core_size, 8u);
  EXPECT_EQ(r.in_core[8], 0u);
}

TEST(KCoreTest, OutOfCoreMatchesInMemory) {
  RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = 11;
  EdgeList edges = GenerateRmat(params);
  GraphInfo info = ScanEdges(edges);
  InMemoryConfig im;
  im.threads = 2;
  InMemoryEngine<KCoreAlgorithm> a(im, edges, info.num_vertices);
  KCoreResult ra = RunKCore(a, 6);

  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig oc;
  oc.allow_vertex_memory_opt = true;
  oc.threads = 2;
  oc.io_unit_bytes = 8 << 10;
  HybridEngine<KCoreAlgorithm> b(oc, dev, dev, dev, "input", info);
  KCoreResult rb = RunKCore(b, 6);
  EXPECT_EQ(ra.in_core, rb.in_core);
}

}  // namespace
}  // namespace xstream
