// Integration tests: both engines against the sequential reference oracles
// for the core algorithms, across graph families and configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "algorithms/algorithms.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "storage/sim_device.h"
#include "util/rng.h"

namespace xstream {
namespace {

InMemoryConfig SmallInMemConfig(int threads = 2, uint32_t partitions = 0) {
  InMemoryConfig config;
  config.threads = threads;
  config.cache_bytes = 64 * 1024;  // force several partitions on small graphs
  config.num_partitions = partitions;
  return config;
}

// Fixture owning an out-of-core engine over a SimDevice.
template <typename Algo>
struct OocHarness {
  explicit OocHarness(const EdgeList& edges, uint64_t threads = 2,
                      uint64_t budget = 1ull << 20, bool allow_mem_opts = true,
                      uint32_t partitions = 0, bool absorb_local_updates = true) {
    dev = std::make_unique<SimDevice>("d", DeviceProfile::Instant());
    WriteEdgeFile(*dev, "input", edges);
    GraphInfo info = ScanEdges(edges);
    HybridConfig config;
    config.threads = static_cast<int>(threads);
    config.streaming_budget_bytes = budget;
    config.io_unit_bytes = 16 * 1024;
    config.num_partitions = partitions;
    config.allow_vertex_memory_opt = allow_mem_opts;
    config.allow_update_memory_opt = allow_mem_opts;
    config.absorb_local_updates = absorb_local_updates;
    engine = std::make_unique<HybridEngine<Algo>>(config, *dev, *dev, *dev, "input", info);
  }

  std::unique_ptr<SimDevice> dev;
  std::unique_ptr<HybridEngine<Algo>> engine;
};

EdgeList TestGraph(uint64_t seed = 5) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  return edges;
}

// ---------------------------------------------------------------- WCC

TEST(InMemEngineTest, WccMatchesUnionFind) {
  EdgeList edges = TestGraph();
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<WccAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  WccResult result = RunWcc(engine);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);
  EXPECT_EQ(result.labels, expected);
}

TEST(InMemEngineTest, WccSingleThreadMatches) {
  EdgeList edges = TestGraph(7);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<WccAlgorithm> engine(SmallInMemConfig(1), edges, info.num_vertices);
  WccResult result = RunWcc(engine);
  EXPECT_EQ(result.labels, ReferenceWcc(edges, info.num_vertices));
}

TEST(InMemEngineTest, WccOnPathGraphTakesDiameterIterations) {
  EdgeList edges = GeneratePath(64, 3);
  InMemoryEngine<WccAlgorithm> engine(SmallInMemConfig(), edges, 64);
  WccResult result = RunWcc(engine);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(result.labels[v], 0u);
  }
  // Label 0 must travel 63 hops; plus the final empty iteration.
  EXPECT_GE(result.stats.iterations, 63u);
  EXPECT_EQ(result.num_components, 1u);
}

TEST(OocEngineTest, WccMatchesUnionFind) {
  EdgeList edges = TestGraph(11);
  GraphInfo info = ScanEdges(edges);
  OocHarness<WccAlgorithm> h(edges);
  WccResult result = RunWcc(*h.engine);
  EXPECT_EQ(result.labels, ReferenceWcc(edges, info.num_vertices));
}

TEST(OocEngineTest, WccWithFileResidentVertices) {
  EdgeList edges = TestGraph(13);
  GraphInfo info = ScanEdges(edges);
  // Disable both memory optimizations and force several partitions: vertex
  // files, update spills and multi-partition gathers all get exercised.
  OocHarness<WccAlgorithm> h(edges, 2, 1ull << 17, /*allow_mem_opts=*/false,
                             /*partitions=*/8);
  EXPECT_FALSE(h.engine->vertices_in_memory());
  EXPECT_GT(h.engine->num_partitions(), 1u);
  WccResult result = RunWcc(*h.engine);
  EXPECT_EQ(result.labels, ReferenceWcc(edges, info.num_vertices));
}

TEST(OocEngineTest, WccSingleThread) {
  EdgeList edges = TestGraph(17);
  GraphInfo info = ScanEdges(edges);
  OocHarness<WccAlgorithm> h(edges, 1);
  WccResult result = RunWcc(*h.engine);
  EXPECT_EQ(result.labels, ReferenceWcc(edges, info.num_vertices));
}

// ---------------------------------------------------------------- BFS

TEST(InMemEngineTest, BfsLevelsMatchReference) {
  EdgeList edges = TestGraph(19);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<BfsAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  BfsResult result = RunBfs(engine, 0);
  ReferenceGraph g(edges, info.num_vertices);
  EXPECT_EQ(result.levels, ReferenceBfsLevels(g, 0));
}

TEST(OocEngineTest, BfsLevelsMatchReference) {
  EdgeList edges = TestGraph(23);
  GraphInfo info = ScanEdges(edges);
  OocHarness<BfsAlgorithm> h(edges);
  BfsResult result = RunBfs(*h.engine, 0);
  ReferenceGraph g(edges, info.num_vertices);
  EXPECT_EQ(result.levels, ReferenceBfsLevels(g, 0));
}

TEST(InMemEngineTest, BfsOnGridHasGridLevels) {
  EdgeList edges = GenerateGrid(8, 8, 1);
  InMemoryEngine<BfsAlgorithm> engine(SmallInMemConfig(), edges, 64);
  BfsResult result = RunBfs(engine, 0);
  // Manhattan distance from corner 0.
  for (uint32_t r = 0; r < 8; ++r) {
    for (uint32_t c = 0; c < 8; ++c) {
      EXPECT_EQ(result.levels[r * 8 + c], r + c);
    }
  }
}

// ---------------------------------------------------------------- SSSP

TEST(InMemEngineTest, SsspMatchesReference) {
  EdgeList edges = TestGraph(29);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<SsspAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  SsspResult result = RunSssp(engine, 0);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferenceSssp(g, 0);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(result.dist[v])) << "vertex " << v;
    } else {
      EXPECT_NEAR(result.dist[v], expected[v], 1e-3) << "vertex " << v;
    }
  }
}

TEST(OocEngineTest, SsspMatchesReference) {
  EdgeList edges = TestGraph(31);
  GraphInfo info = ScanEdges(edges);
  OocHarness<SsspAlgorithm> h(edges);
  SsspResult result = RunSssp(*h.engine, 0);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferenceSssp(g, 0);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    if (!std::isinf(expected[v])) {
      EXPECT_NEAR(result.dist[v], expected[v], 1e-3) << "vertex " << v;
    }
  }
}

// ---------------------------------------------------------------- PageRank

TEST(InMemEngineTest, PageRankMatchesReference) {
  EdgeList edges = TestGraph(37);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<PageRankAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  PageRankResult result = RunPageRank(engine, 5);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferencePageRank(g, 5);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_NEAR(result.ranks[v], expected[v], 1e-4) << "vertex " << v;
  }
}

TEST(OocEngineTest, PageRankMatchesReference) {
  EdgeList edges = TestGraph(41);
  GraphInfo info = ScanEdges(edges);
  OocHarness<PageRankAlgorithm> h(edges);
  PageRankResult result = RunPageRank(*h.engine, 5);
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferencePageRank(g, 5);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_NEAR(result.ranks[v], expected[v], 1e-4) << "vertex " << v;
  }
}

TEST(InMemEngineTest, PageRankMassIsConservedApproximately) {
  EdgeList edges = TestGraph(43);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<PageRankAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  PageRankResult result = RunPageRank(engine, 3);
  double total = 0;
  for (float r : result.ranks) {
    total += r;
  }
  // Dangling vertices leak mass; with RMAT degree 16 the leak is small.
  EXPECT_GT(total, 0.5);
  EXPECT_LT(total, 1.5);
}

// ---------------------------------------------------------------- SpMV

TEST(InMemEngineTest, SpmvMatchesReference) {
  EdgeList edges = TestGraph(47);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<SpmvAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  SpmvResult result = RunSpmv(engine, 9);
  // Rebuild x deterministically the same way the algorithm does.
  SpmvAlgorithm algo(9);
  std::vector<double> x(info.num_vertices);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    SpmvAlgorithm::VertexState s;
    algo.Init(static_cast<VertexId>(v), s);
    x[v] = s.x;
  }
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferenceSpmv(g, x);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_NEAR(result.y[v], expected[v], 1e-2) << "vertex " << v;
  }
  EXPECT_EQ(result.stats.iterations, 1u);
}

TEST(OocEngineTest, SpmvMatchesReference) {
  EdgeList edges = TestGraph(53);
  GraphInfo info = ScanEdges(edges);
  OocHarness<SpmvAlgorithm> h(edges);
  SpmvResult result = RunSpmv(*h.engine, 9);
  SpmvAlgorithm algo(9);
  std::vector<double> x(info.num_vertices);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    SpmvAlgorithm::VertexState s;
    algo.Init(static_cast<VertexId>(v), s);
    x[v] = s.x;
  }
  ReferenceGraph g(edges, info.num_vertices);
  std::vector<double> expected = ReferenceSpmv(g, x);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_NEAR(result.y[v], expected[v], 1e-2) << "vertex " << v;
  }
}

// ---------------------------------------------------------------- MIS

TEST(InMemEngineTest, MisIsMaximalIndependent) {
  EdgeList edges = TestGraph(59);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<MisAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  MisResult result = RunMis(engine);
  EXPECT_TRUE(IsMaximalIndependentSet(edges, info.num_vertices, result.in_set));
  EXPECT_GT(result.set_size, 0u);
}

TEST(OocEngineTest, MisIsMaximalIndependent) {
  EdgeList edges = TestGraph(61);
  GraphInfo info = ScanEdges(edges);
  OocHarness<MisAlgorithm> h(edges);
  MisResult result = RunMis(*h.engine);
  EXPECT_TRUE(IsMaximalIndependentSet(edges, info.num_vertices, result.in_set));
}

TEST(InMemEngineTest, MisOnStarPicksLeavesOrCenter) {
  EdgeList edges = GenerateStar(100);
  InMemoryEngine<MisAlgorithm> engine(SmallInMemConfig(), edges, 100);
  MisResult result = RunMis(engine);
  EXPECT_TRUE(IsMaximalIndependentSet(edges, 100, result.in_set));
  // Either {center} or all 99 leaves.
  EXPECT_TRUE(result.set_size == 1 || result.set_size == 99) << result.set_size;
}

// ---------------------------------------------------------------- Conductance

TEST(InMemEngineTest, ConductanceMatchesReference) {
  EdgeList edges = TestGraph(67);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<ConductanceAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  ConductanceResult result = RunConductance(engine, 7);
  ConductanceAlgorithm algo(7);
  std::vector<uint8_t> side(info.num_vertices);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    side[v] = algo.SideOf(static_cast<VertexId>(v));
  }
  // Count by destination side, matching the gather-side accounting.
  uint64_t cross = 0, vol_s = 0, vol_rest = 0;
  for (const Edge& e : edges) {
    if (side[e.dst]) {
      ++vol_s;
    } else {
      ++vol_rest;
    }
    if (side[e.src] != side[e.dst]) {
      ++cross;
    }
  }
  EXPECT_EQ(result.cross_edges, cross);
  EXPECT_EQ(result.volume_s, vol_s);
  EXPECT_EQ(result.volume_rest, vol_rest);
}

// ---------------------------------------------------------------- SCC

TEST(InMemEngineTest, SccMatchesTarjan) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 4;
  params.undirected = false;  // directed, as SCC requires
  params.seed = 71;
  EdgeList directed = GenerateRmat(params);
  GraphInfo info = ScanEdges(directed);
  EdgeList flagged = MakeSccEdgeList(directed);

  InMemoryEngine<SccAlgorithm> engine(SmallInMemConfig(), flagged, info.num_vertices);
  SccResult result = RunScc(engine);

  ReferenceGraph g(directed, info.num_vertices);
  std::vector<uint32_t> expected = ReferenceScc(g);
  // Same partition: scc[u] == scc[v] iff expected[u] == expected[v].
  std::map<uint32_t, uint32_t> fwd;
  std::map<uint32_t, uint32_t> rev;
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    auto [it1, fresh1] = fwd.try_emplace(result.scc[v], expected[v]);
    EXPECT_EQ(it1->second, expected[v]) << "vertex " << v;
    auto [it2, fresh2] = rev.try_emplace(expected[v], result.scc[v]);
    EXPECT_EQ(it2->second, result.scc[v]) << "vertex " << v;
  }
}

TEST(OocEngineTest, SccMatchesTarjanOnCycleChain) {
  // Three 4-cycles chained by one-way bridges: 3 SCCs of size 4.
  EdgeList directed;
  for (VertexId base : {0u, 4u, 8u}) {
    for (VertexId i = 0; i < 4; ++i) {
      directed.push_back(Edge{base + i, base + (i + 1) % 4, 1.0f});
    }
  }
  directed.push_back(Edge{0, 4, 1.0f});
  directed.push_back(Edge{4, 8, 1.0f});
  EdgeList flagged = MakeSccEdgeList(directed);
  OocHarness<SccAlgorithm> h(flagged);
  SccResult result = RunScc(*h.engine);
  EXPECT_EQ(result.num_sccs, 3u);
  for (VertexId base : {0u, 4u, 8u}) {
    for (VertexId i = 1; i < 4; ++i) {
      EXPECT_EQ(result.scc[base + i], result.scc[base]);
    }
  }
}

// ---------------------------------------------------------------- MCST

TEST(InMemEngineTest, McstMatchesKruskal) {
  EdgeList edges = TestGraph(73);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<McstAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  McstResult result = RunMcst(engine);
  double expected = ReferenceMstWeight(edges, info.num_vertices);
  EXPECT_NEAR(result.total_weight, expected, 1e-2);
}

TEST(OocEngineTest, McstMatchesKruskal) {
  EdgeList edges = TestGraph(79);
  GraphInfo info = ScanEdges(edges);
  OocHarness<McstAlgorithm> h(edges);
  McstResult result = RunMcst(*h.engine);
  EXPECT_NEAR(result.total_weight, ReferenceMstWeight(edges, info.num_vertices), 1e-2);
}

TEST(InMemEngineTest, McstOnGridSpansAllVertices) {
  EdgeList edges = GenerateGrid(10, 10, 83);
  InMemoryEngine<McstAlgorithm> engine(SmallInMemConfig(), edges, 100);
  McstResult result = RunMcst(engine);
  EXPECT_EQ(result.tree_edges, 99u);  // connected: V-1 tree edges
  EXPECT_NEAR(result.total_weight, ReferenceMstWeight(edges, 100), 1e-3);
}

// ---------------------------------------------------------------- ALS

TEST(InMemEngineTest, AlsReducesRmse) {
  EdgeList ratings = GenerateBipartite(200, 40, 2000, 89);
  GraphInfo info = ScanEdges(ratings);
  InMemoryEngine<AlsAlgorithm> engine(SmallInMemConfig(), ratings, info.num_vertices);
  AlsResult result = RunAls(engine, 200, 5);
  EXPECT_GT(result.ratings, 0u);
  // Ratings are uniform in [1,5]; factorizing to RMSE < the prior stddev
  // (~1.15) demonstrates the solver works.
  EXPECT_LT(result.rmse, 1.2);
}

TEST(OocEngineTest, AlsMatchesInMemoryRmse) {
  EdgeList ratings = GenerateBipartite(100, 20, 800, 97);
  GraphInfo info = ScanEdges(ratings);
  InMemoryEngine<AlsAlgorithm> inmem(SmallInMemConfig(), ratings, info.num_vertices);
  AlsResult expected = RunAls(inmem, 100, 3);
  OocHarness<AlsAlgorithm> h(ratings);
  AlsResult result = RunAls(*h.engine, 100, 3);
  EXPECT_NEAR(result.rmse, expected.rmse, 0.05);
}

// ---------------------------------------------------------------- BP

TEST(InMemEngineTest, BpProducesNormalizedBeliefs) {
  EdgeList edges = TestGraph(101);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<BpAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  BpResult result = RunBp(engine, 5);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_GE(result.belief1[v], 0.0f);
    EXPECT_LE(result.belief1[v], 1.0f);
  }
  EXPECT_EQ(result.stats.iterations, 5u);
}

TEST(OocEngineTest, BpMatchesInMemory) {
  EdgeList edges = TestGraph(103);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<BpAlgorithm> inmem(SmallInMemConfig(), edges, info.num_vertices);
  BpResult expected = RunBp(inmem, 4);
  OocHarness<BpAlgorithm> h(edges);
  BpResult result = RunBp(*h.engine, 4);
  for (uint64_t v = 0; v < info.num_vertices; ++v) {
    EXPECT_NEAR(result.belief1[v], expected.belief1[v], 1e-3) << "vertex " << v;
  }
}

// ---------------------------------------------------------------- HyperANF

TEST(InMemEngineTest, HyperAnfStepsTrackDiameter) {
  EdgeList edges = GeneratePath(40, 107);
  InMemoryEngine<HyperAnfAlgorithm> engine(SmallInMemConfig(), edges, 40);
  HyperAnfResult result = RunHyperAnf(engine);
  uint32_t diameter = 39;
  EXPECT_LE(result.steps, diameter);
  EXPECT_GE(result.steps, diameter / 2);  // registers may saturate early
  // N(t) is monotone non-decreasing.
  for (size_t t = 1; t < result.neighborhood_function.size(); ++t) {
    EXPECT_GE(result.neighborhood_function[t], result.neighborhood_function[t - 1] * 0.999);
  }
}

TEST(InMemEngineTest, HyperAnfFinalEstimateNearReachablePairs) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = 109;
  EdgeList edges = GenerateRmat(params);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<HyperAnfAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  HyperAnfResult result = RunHyperAnf(engine);
  // Exact pair count from WCC component sizes (per-component n_c^2, counting
  // only vertices that appear in edges... all vertices are counted).
  std::vector<VertexId> labels = ReferenceWcc(edges, info.num_vertices);
  std::map<VertexId, uint64_t> sizes;
  for (VertexId l : labels) {
    ++sizes[l];
  }
  double exact = 0;
  for (auto [l, n] : sizes) {
    exact += static_cast<double>(n) * static_cast<double>(n);
  }
  double estimate = result.neighborhood_function.back();
  EXPECT_GT(estimate, exact * 0.5);
  EXPECT_LT(estimate, exact * 1.5);
}

// ---------------------------------------------------------------- engine mechanics

TEST(InMemEngineTest, ForcedPartitionCountsAllAgree) {
  EdgeList edges = TestGraph(113);
  GraphInfo info = ScanEdges(edges);
  std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);
  for (uint32_t k : {1u, 2u, 16u, 128u}) {
    InMemoryEngine<WccAlgorithm> engine(SmallInMemConfig(2, k), edges, info.num_vertices);
    EXPECT_EQ(engine.num_partitions(), k);
    WccResult result = RunWcc(engine);
    EXPECT_EQ(result.labels, expected) << "k=" << k;
  }
}

TEST(InMemEngineTest, StatsTrackWastedEdges) {
  EdgeList edges = TestGraph(127);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<WccAlgorithm> engine(SmallInMemConfig(), edges, info.num_vertices);
  WccResult result = RunWcc(engine);
  // Partitions left without an active vertex stream nothing (WCC's Active
  // hook), so fewer than |E| x iterations edges stream; every streamed edge
  // still either emits or is wasted.
  EXPECT_LT(result.stats.edges_streamed, edges.size() * result.stats.iterations);
  EXPECT_EQ(result.stats.wasted_edges + result.stats.updates_generated,
            result.stats.edges_streamed);
  EXPECT_GT(result.stats.WastedEdgePercent(), 0.0);
}

TEST(OocEngineTest, UpdateMemoryOptimizationSkipsSpills) {
  EdgeList edges = TestGraph(131);
  OocHarness<WccAlgorithm> with_opt(edges, 2, 64ull << 20, true);
  WccResult r1 = RunWcc(*with_opt.engine);
  // With a generous budget nothing should be written to update files.
  DeviceStats s = with_opt.dev->stats();
  // Writes happen for input + partitioned edge files only; compare against a
  // no-optimization run which must write update files too. Local-update
  // absorption is pinned off here: it would let the unoptimized run gather
  // its spills in place and write *less* than this baseline, which is the
  // point of the partitioning subsystem but not of this §3.2 comparison.
  OocHarness<WccAlgorithm> no_opt(edges, 2, 64ull << 20, false, 0, false);
  no_opt.engine->stats();  // silence unused warnings
  WccResult r2 = RunWcc(*no_opt.engine);
  EXPECT_EQ(r1.labels, r2.labels);
  EXPECT_LT(s.bytes_written, no_opt.dev->stats().bytes_written);
}

TEST(OocEngineTest, IngestEdgesExtendsGraph) {
  // Start with two components, ingest a bridge, recompute WCC.
  EdgeList part1 = GeneratePath(50, 3);  // vertices 0..49
  EdgeList part2;
  for (const Edge& e : GeneratePath(50, 4)) {
    part2.push_back(Edge{e.src + 50, e.dst + 50, e.weight});
  }
  EdgeList both = part1;
  both.insert(both.end(), part2.begin(), part2.end());

  auto dev = std::make_unique<SimDevice>("d", DeviceProfile::Instant());
  WriteEdgeFile(*dev, "input", both);
  GraphInfo info;
  info.num_vertices = 100;
  info.num_edges = both.size();
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 20;
  config.io_unit_bytes = 16 * 1024;
  HybridEngine<WccAlgorithm> engine(config, *dev, *dev, *dev, "input", info);

  WccResult before = RunWcc(engine);
  EXPECT_EQ(before.num_components, 2u);

  engine.ResetStats();
  engine.IngestEdges({Edge{49, 50, 0.5f}, Edge{50, 49, 0.5f}});
  WccResult after = RunWcc(engine);
  EXPECT_EQ(after.num_components, 1u);
}

TEST(InMemEngineTest, DeterministicAcrossRuns) {
  EdgeList edges = TestGraph(137);
  GraphInfo info = ScanEdges(edges);
  InMemoryEngine<WccAlgorithm> e1(SmallInMemConfig(2), edges, info.num_vertices);
  InMemoryEngine<WccAlgorithm> e2(SmallInMemConfig(4), edges, info.num_vertices);
  EXPECT_EQ(RunWcc(e1).labels, RunWcc(e2).labels);
}

// ---------------------------------------------------------------- work items

// A hub graph whose range partition 0 of 8 holds ~78% of the edge records
// (symmetric, so WCC and BFS see an undirected graph): 150K random pairs
// inside partition 0's vertices plus 50K pairs over the whole graph. At 4
// threads each of partition 0's four setup slices holds more than one
// scatter item, so several threads scatter its edges at once.
EdgeList HubGraph(uint32_t num_vertices) {
  EdgeList edges;
  Rng rng(41);
  auto add_pair = [&](VertexId a, VertexId b) {
    // Integer weights: every path length is exact in float and double.
    float w = 1.0f + static_cast<float>(rng.NextBounded(8));
    edges.push_back(Edge{a, b, w});
    edges.push_back(Edge{b, a, w});
  };
  const uint32_t hub = num_vertices / 8;
  for (int i = 0; i < 150'000; ++i) {
    add_pair(static_cast<VertexId>(rng.NextBounded(hub)),
             static_cast<VertexId>(rng.NextBounded(hub)));
  }
  for (int i = 0; i < 50'000; ++i) {
    add_pair(static_cast<VertexId>(rng.NextBounded(num_vertices)),
             static_cast<VertexId>(rng.NextBounded(num_vertices)));
  }
  PermuteEdges(edges, 43);
  return edges;
}

// The relative bound the repository benchmark's oracle holds PageRank to:
// float sums run in a thread-dependent order.
constexpr double kPageRankTolerance = 1e-3;

TEST(InMemEngineTest, HubPartitionResultsMatchReferenceWithAndWithoutStealing) {
  const uint32_t n = 1 << 14;
  EdgeList edges = HubGraph(n);
  const uint64_t hub_edges = static_cast<uint64_t>(std::count_if(
      edges.begin(), edges.end(), [&](const Edge& e) { return e.src < n / 8; }));
  ASSERT_GT(hub_edges, edges.size() / 2);
  ASSERT_GT(hub_edges, 4 * kScatterItemEdges);
  ReferenceGraph g(edges, n);
  std::vector<VertexId> wcc = ReferenceWcc(edges, n);
  std::vector<uint32_t> bfs = ReferenceBfsLevels(g, 0);
  std::vector<double> sssp = ReferenceSssp(g, 0);
  std::vector<double> ranks = ReferencePageRank(g, 5);
  for (bool stealing : {true, false}) {
    SCOPED_TRACE(stealing ? "stealing" : "static");
    InMemoryConfig config = SmallInMemConfig(4, 8);
    config.enable_work_stealing = stealing;
    {
      InMemoryEngine<WccAlgorithm> engine(config, edges, n);
      ASSERT_EQ(engine.num_partitions(), 8u);
      EXPECT_EQ(RunWcc(engine).labels, wcc);
    }
    {
      InMemoryEngine<BfsAlgorithm> engine(config, edges, n);
      EXPECT_EQ(RunBfs(engine, 0).levels, bfs);
    }
    {
      InMemoryEngine<SsspAlgorithm> engine(config, edges, n);
      SsspResult result = RunSssp(engine, 0);
      for (VertexId v = 0; v < n; ++v) {
        if (std::isinf(sssp[v])) {
          EXPECT_TRUE(std::isinf(result.dist[v])) << "vertex " << v;
        } else {
          EXPECT_EQ(result.dist[v], sssp[v]) << "vertex " << v;
        }
      }
    }
    {
      InMemoryEngine<PageRankAlgorithm> engine(config, edges, n);
      PageRankResult result = RunPageRank(engine, 5);
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_NEAR(result.ranks[v], ranks[v], kPageRankTolerance * ranks[v]) << "vertex " << v;
      }
    }
  }
}

TEST(InMemEngineTest, HubPartitionWccLabelsIdenticalAtOneAndFourThreads) {
  const uint32_t n = 1 << 14;
  EdgeList edges = HubGraph(n);
  InMemoryEngine<WccAlgorithm> one(SmallInMemConfig(1, 8), edges, n);
  InMemoryEngine<WccAlgorithm> four(SmallInMemConfig(4, 8), edges, n);
  EXPECT_EQ(RunWcc(one).labels, RunWcc(four).labels);
}

TEST(OocEngineTest, AutoPartitionCountRespectsBudgetInequality) {
  EdgeList edges = TestGraph(139);
  GraphInfo info = ScanEdges(edges);
  OocHarness<WccAlgorithm> h(edges, 2, 1ull << 18, false);
  uint32_t k = h.engine->num_partitions();
  uint64_t n_bytes = info.num_vertices * sizeof(WccAlgorithm::VertexState);
  EXPECT_LE(n_bytes / k + 5ull * (16 * 1024) * k, 1ull << 18);
}

}  // namespace
}  // namespace xstream
