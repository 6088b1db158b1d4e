// Quickstart: the smallest complete X-Stream program.
//
// Generates a scale-free graph as an *unordered* edge list, runs weakly
// connected components on the in-memory engine, and prints what the engine
// did. Demonstrates the three core API pieces:
//   1. an edge list (no sorting, no indexing — X-Stream's whole point),
//   2. an engine configured for the host (partitions auto-sized to cache),
//   3. an algorithm in the edge-centric scatter-gather model.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--scale=18] [--threads=4]
#include <cstdio>

#include "algorithms/wcc.h"
#include "core/inmem_engine.h"
#include "graph/generators.h"
#include "util/format.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);

  // 1. An unordered edge list. Any EdgeList works; RMAT here for a
  //    realistic skewed-degree graph. Undirected => both directions stored.
  RmatParams params;
  params.scale = static_cast<uint32_t>(opts.GetUint("scale", 16));
  params.edge_factor = 16;
  params.undirected = true;
  params.seed = 42;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, 7);  // prove the input order is irrelevant
  GraphInfo info = ScanEdges(edges);
  std::printf("graph: %s vertices, %s edge records (unordered)\n",
              HumanCount(info.num_vertices).c_str(), HumanCount(info.num_edges).c_str());

  // 2. The in-memory engine. Partition count and shuffler fanout are chosen
  //    automatically from the CPU cache size (paper §4).
  InMemoryConfig config;
  config.threads = static_cast<int>(opts.GetInt("threads", 0));  // 0 = all cores
  InMemoryEngine<WccAlgorithm> engine(config, edges, info.num_vertices);
  std::printf("engine: %u streaming partitions, shuffle fanout %u\n",
              engine.num_partitions(), engine.shuffle_fanout());

  // 3. Run an algorithm. RunWcc drives scatter-gather iterations until no
  //    updates flow, then extracts per-vertex component labels.
  WccResult result = RunWcc(engine);

  std::printf("result: %llu weakly connected components\n",
              static_cast<unsigned long long>(result.num_components));
  std::printf("run: %llu iterations, %s edges streamed, %.0f%% of them 'wasted' "
              "(no update sent), %llu steals\n",
              static_cast<unsigned long long>(result.stats.iterations),
              HumanCount(result.stats.edges_streamed).c_str(),
              result.stats.WastedEdgePercent(),
              static_cast<unsigned long long>(result.stats.steals));
  std::printf("time: %s total (%s of it partitioning the unordered input)\n",
              HumanDuration(result.stats.WallSeconds()).c_str(),
              HumanDuration(result.stats.setup_seconds).c_str());
  return 0;
}
