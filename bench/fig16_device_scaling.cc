// Fig 16: scaling across storage devices — WCC and SpMV runtime as the graph
// doubles, moving from memory to SSD to magnetic disk when it outgrows each
// medium. Expectation: near-straight log-log growth within a medium, with
// 'bumps' at each medium transition.
#include "algorithms/algorithms.h"
#include "bench_common.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"

namespace xstream {
namespace {

template <typename Algo, typename Run>
double InMem(const EdgeList& edges, uint64_t n, int threads, Run&& run) {
  InMemoryConfig config;
  config.threads = threads;
  InMemoryEngine<Algo> engine(config, edges, n);
  WallTimer timer;
  run(engine);
  return timer.Seconds() + engine.stats().setup_seconds;
}

template <typename Algo, typename Run>
double OnDevice(const DeviceProfile& profile, const EdgeList& edges, uint64_t n, int threads,
                uint64_t budget, Run&& run) {
  SimRaidPair pair = SimRaidPair::Make(profile.name, profile);
  WriteEdgeFile(*pair.raid, "input", edges);
  GraphInfo info = ScanEdges(edges);
  info.num_vertices = n;
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = threads;
  config.streaming_budget_bytes = budget;
  config.io_unit_bytes = 256 << 10;
  HybridEngine<Algo> engine(config, *pair.raid, *pair.raid, *pair.raid, "input", info);
  run(engine);
  engine.FinalizeStats();
  return engine.stats().RuntimeSeconds();
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 16", "Scaling across storage devices",
              "runtime doubles with graph size within a medium; jumps ('bumps') "
              "when spilling from memory to SSD to disk");

  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t lo = static_cast<uint32_t>(opts.GetUint("min-scale", 10));
  uint32_t mem_limit = static_cast<uint32_t>(opts.GetUint("mem-limit-scale", 13));
  uint32_t ssd_limit = static_cast<uint32_t>(opts.GetUint("ssd-limit-scale", 15));
  uint32_t hi = static_cast<uint32_t>(opts.GetUint("max-scale", 17));
  uint64_t budget = opts.GetUint("budget-mb", 4) << 20;

  Table table({"Scale", "Medium", "WCC (s)", "SpMV (s)"});
  for (uint32_t scale = lo; scale <= hi; ++scale) {
    EdgeList edges = MakeRmat(scale, 16, true, 3);
    GraphInfo info = ScanEdges(edges);
    double wcc;
    double spmv;
    const char* medium;
    if (scale <= mem_limit) {
      medium = "memory";
      wcc = InMem<WccAlgorithm>(edges, info.num_vertices, threads,
                                [](auto& e) { RunWcc(e); });
      spmv = InMem<SpmvAlgorithm>(edges, info.num_vertices, threads,
                                  [](auto& e) { RunSpmv(e); });
    } else if (scale <= ssd_limit) {
      medium = "ssd";
      wcc = OnDevice<WccAlgorithm>(DeviceProfile::Ssd(), edges, info.num_vertices, threads,
                                   budget, [](auto& e) { RunWcc(e); });
      spmv = OnDevice<SpmvAlgorithm>(DeviceProfile::Ssd(), edges, info.num_vertices, threads,
                                     budget, [](auto& e) { RunSpmv(e); });
    } else {
      medium = "disk";
      wcc = OnDevice<WccAlgorithm>(DeviceProfile::Hdd(), edges, info.num_vertices, threads,
                                   budget, [](auto& e) { RunWcc(e); });
      spmv = OnDevice<SpmvAlgorithm>(DeviceProfile::Hdd(), edges, info.num_vertices, threads,
                                     budget, [](auto& e) { RunSpmv(e); });
    }
    table.AddRow({std::to_string(scale), medium, FormatDouble(wcc, 3),
                  FormatDouble(spmv, 3)});
  }
  table.Print();
  std::printf("(paper runs scale 20-32 across 64GB RAM / 400GB SSD / 6TB disk; the medium "
              "cutoffs here are scaled down with the graphs)\n\n");
  return 0;
}
