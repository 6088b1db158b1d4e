// Fig 25: effect of the multi-stage shuffler's stage count with a large
// partition count. Expectation: a single-stage shuffle over many partitions
// thrashes the cache (one output cursor per partition); too many stages add
// copying; the optimum sits at 2-3 stages. Normalized to the 1-stage run.
// Scatter's bucketed appends do the first stage, so k stages mean k-1
// shuffle passes between scatter and gather.
#include "algorithms/algorithms.h"
#include "bench_common.h"
#include "core/inmem_engine.h"

namespace xstream {
namespace {

// Fanout that produces exactly `stages` shuffle steps for `partitions`.
uint32_t FanoutForStages(uint32_t partitions, int stages) {
  uint32_t bits = CeilLog2(partitions);
  uint32_t per_stage = (bits + static_cast<uint32_t>(stages) - 1) / static_cast<uint32_t>(stages);
  return uint32_t{1} << std::max(1u, per_stage);
}

template <typename Algo, typename Run>
double RunWithFanout(const EdgeList& edges, uint64_t n, int threads, uint32_t partitions,
                     uint32_t fanout, Run&& run) {
  InMemoryConfig config;
  config.threads = threads;
  config.num_partitions = partitions;
  config.shuffle_fanout = fanout;
  InMemoryEngine<Algo> engine(config, edges, n);
  WallTimer timer;
  run(engine);
  return timer.Seconds() + engine.stats().setup_seconds;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 25", "Multistage shuffler: stages vs runtime",
              "1 stage is sub-optimal at high partition counts; 2-3 stages "
              "win; more stages add copying");

  // The single-stage penalty only appears when the number of *active*
  // output cursors exceeds the cachelines the CPU can keep resident (paper
  // §4.2: 1M partitions on a scale-25 graph). Scaled down: 2^17 partitions
  // on a scale-17 graph.
  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", 17));
  uint32_t partitions = static_cast<uint32_t>(opts.GetUint("partitions", 1u << 17));
  EdgeList edges = MakeRmat(scale, 16, true, 9);
  GraphInfo info = ScanEdges(edges);
  std::printf("RMAT scale %u, %u partitions\n", scale, partitions);

  std::vector<double> base(4, 0.0);
  Table table({"Stages", "Fanout", "BFS", "SpMV", "Pagerank", "WCC"});
  for (int stages : {1, 2, 3, 4, 5}) {
    uint32_t fanout = FanoutForStages(partitions, stages);
    double bfs = RunWithFanout<BfsAlgorithm>(edges, info.num_vertices, threads, partitions,
                                             fanout, [](auto& e) { RunBfs(e, 0); });
    double spmv = RunWithFanout<SpmvAlgorithm>(edges, info.num_vertices, threads, partitions,
                                               fanout, [](auto& e) { RunSpmv(e); });
    double pr = RunWithFanout<PageRankAlgorithm>(edges, info.num_vertices, threads,
                                                 partitions, fanout,
                                                 [](auto& e) { RunPageRank(e, 5); });
    double wcc = RunWithFanout<WccAlgorithm>(edges, info.num_vertices, threads, partitions,
                                             fanout, [](auto& e) { RunWcc(e); });
    if (stages == 1) {
      base = {bfs, spmv, pr, wcc};
    }
    table.AddRow({std::to_string(stages), std::to_string(fanout),
                  FormatDouble(bfs / base[0], 2), FormatDouble(spmv / base[1], 2),
                  FormatDouble(pr / base[2], 2), FormatDouble(wcc / base[3], 2)});
  }
  table.Print();
  std::printf("(values normalized to the single-stage shuffler)\n\n");
  return 0;
}
