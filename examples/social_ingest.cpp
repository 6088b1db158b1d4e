// Streaming ingest of a growing social graph (the Fig 17 / Kineograph
// scenario): edges arrive in batches, each batch is absorbed by one
// in-memory shuffle and appended to the partitioned store, and connected
// components are recomputed over the accumulated graph after every batch —
// no global re-sort or re-index, because X-Stream never needed one.
//
//   ./build/examples/social_ingest [--scale=17] [--batches=8]
#include <cstdio>

#include "algorithms/wcc.h"
#include "core/hybrid_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "storage/posix_device.h"
#include "util/format.h"
#include "util/options.h"

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);

  RmatParams params;
  params.scale = static_cast<uint32_t>(opts.GetUint("scale", 17));
  params.edge_factor = 16;
  params.undirected = true;  // friendships
  params.seed = 77;
  EdgeList full = GenerateRmat(params);
  PermuteEdges(full, 8);  // arrival order is arbitrary
  GraphInfo info = ScanEdges(full);
  int batches = static_cast<int>(opts.GetInt("batches", 8));
  std::printf("social graph: %s users, %s friendship records arriving in %d batches\n",
              HumanCount(info.num_vertices).c_str(), HumanCount(full.size()).c_str(),
              batches);

  ScratchDir scratch("xstream-social");
  PosixDevice disk("disk", scratch.path());
  WriteEdgeFile(disk, "social.edges", {});  // start empty

  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = static_cast<int>(opts.GetInt("threads", 0));
  config.streaming_budget_bytes = opts.GetUint("budget-mb", 16) << 20;
  config.io_unit_bytes = 1 << 20;
  GraphInfo empty = info;  // vertex universe known up front
  empty.num_edges = 0;
  HybridEngine<WccAlgorithm> engine(config, disk, disk, disk, "social.edges", empty);

  uint64_t per_batch = full.size() / static_cast<uint64_t>(batches);
  for (int b = 0; b < batches; ++b) {
    uint64_t begin = static_cast<uint64_t>(b) * per_batch;
    uint64_t end = (b + 1 == batches) ? full.size() : begin + per_batch;
    EdgeList batch(full.begin() + static_cast<long>(begin),
                   full.begin() + static_cast<long>(end));

    engine.ResetStats();
    engine.IngestEdges(batch);
    double ingest = engine.stats().setup_seconds;

    engine.ResetStats();
    WccResult r = RunWcc(engine);
    std::printf("batch %d: +%s edges ingested in %s; WCC over %s edges -> %llu components "
                "in %s (%llu iterations)\n",
                b + 1, HumanCount(end - begin).c_str(), HumanDuration(ingest).c_str(),
                HumanCount(end).c_str(),
                static_cast<unsigned long long>(r.num_components),
                HumanDuration(r.stats.WallSeconds()).c_str(),
                static_cast<unsigned long long>(r.stats.iterations));
  }
  return 0;
}
