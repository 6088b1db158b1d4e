// Web ranking out of core: PageRank over a web-crawl-like graph that does
// not fit the memory budget, processed from storage the X-Stream way.
//
// This is the paper's motivating scenario (ranking web pages from a cheap
// single server): the unordered crawl edge list lands on disk, gets
// partitioned in one streaming pass (no sort), and PageRank runs with
// sequential I/O in both directions. The example runs against real files
// (PosixDevice) in a scratch directory, prints the per-device traffic, and
// reports the top-ranked pages.
//
//   ./build/examples/web_ranking [--scale=18] [--iters=5] [--budget-mb=16]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "algorithms/pagerank.h"
#include "core/hybrid_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "storage/posix_device.h"
#include "util/format.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);

  // A web-crawl stand-in: directed scale-free RMAT graph (sk-2005-like).
  RmatParams params;
  params.scale = static_cast<uint32_t>(opts.GetUint("scale", 18));
  params.edge_factor = 16;
  params.undirected = false;
  params.seed = 2005;
  EdgeList crawl = GenerateRmat(params);
  PermuteEdges(crawl, 3);
  GraphInfo info = ScanEdges(crawl);
  std::printf("crawl: %s pages, %s links\n", HumanCount(info.num_vertices).c_str(),
              HumanCount(info.num_edges).c_str());

  // Real files in a scratch directory.
  ScratchDir scratch("xstream-web-ranking");
  PosixDevice disk("disk", scratch.path());
  WriteEdgeFile(disk, "crawl.edges", crawl);
  {  // free the in-memory copy: from here on the graph lives on disk
    EdgeList().swap(crawl);
  }

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = static_cast<int>(opts.GetInt("threads", 0));
  config.streaming_budget_bytes = opts.GetUint("budget-mb", 16) << 20;
  config.io_unit_bytes = 1 << 20;
  HybridEngine<PageRankAlgorithm> engine(config, disk, disk, disk, "crawl.edges", info);
  std::printf("engine: %u streaming partitions, vertices %s\n", engine.num_partitions(),
              engine.vertices_in_memory() ? "memory-resident" : "on disk");

  uint64_t iters = opts.GetUint("iters", 5);
  PageRankResult result = RunPageRank(engine, iters);

  DeviceStats io = disk.stats();
  std::printf("run: %llu iterations, %s read / %s written to %s\n",
              static_cast<unsigned long long>(result.stats.iterations),
              HumanBytes(io.bytes_read).c_str(), HumanBytes(io.bytes_written).c_str(),
              scratch.path().c_str());
  std::printf("time: %s (wall)\n", HumanDuration(result.stats.WallSeconds()).c_str());

  // Top 10 pages.
  std::vector<VertexId> order(result.ranks.size());
  for (VertexId v = 0; v < order.size(); ++v) {
    order[v] = v;
  }
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](VertexId a, VertexId b) { return result.ranks[a] > result.ranks[b]; });
  std::printf("top pages by rank:\n");
  for (int i = 0; i < 10; ++i) {
    std::printf("  #%2d page %-10u rank %.3e\n", i + 1, order[static_cast<size_t>(i)],
                result.ranks[order[static_cast<size_t>(i)]]);
  }
  return 0;
}
