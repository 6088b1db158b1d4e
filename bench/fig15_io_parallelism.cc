// Fig 15: scaling with I/O devices — one disk vs independent disks (edges
// and updates on separate devices) vs RAID-0. Expectation: independent
// disks cut runtime up to ~30% vs one disk; RAID-0 cuts it to ~50-60%.
#include "algorithms/algorithms.h"
#include "bench_common.h"
#include "core/hybrid_engine.h"

namespace xstream {
namespace {

struct Devices {
  std::unique_ptr<SimDevice> a;
  std::unique_ptr<SimDevice> b;
  std::unique_ptr<RaidDevice> raid;
  StorageDevice* edges = nullptr;
  StorageDevice* updates = nullptr;
};

Devices MakeDevices(const std::string& mode, const DeviceProfile& profile) {
  Devices d;
  d.a = std::make_unique<SimDevice>("a", profile);
  d.b = std::make_unique<SimDevice>("b", profile);
  if (mode == "one") {
    d.edges = d.a.get();
    d.updates = d.a.get();
  } else if (mode == "indep") {
    d.edges = d.a.get();
    d.updates = d.b.get();
  } else {
    d.raid = std::make_unique<RaidDevice>("raid",
                                          std::vector<StorageDevice*>{d.a.get(), d.b.get()});
    d.edges = d.raid.get();
    d.updates = d.raid.get();
  }
  return d;
}

template <typename Algo, typename Run>
double RunOn(const std::string& mode, const DeviceProfile& profile, const EdgeList& edges,
             uint64_t n, int threads, uint64_t budget, Run&& run) {
  Devices d = MakeDevices(mode, profile);
  WriteEdgeFile(*d.edges, "input", edges);
  GraphInfo info = ScanEdges(edges);
  info.num_vertices = n;
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = threads;
  config.streaming_budget_bytes = budget;
  config.io_unit_bytes = 256 << 10;
  HybridEngine<Algo> engine(config, *d.edges, *d.updates, *d.edges, "input", info);
  run(engine);
  engine.FinalizeStats();
  return engine.stats().RuntimeSeconds();
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 15", "I/O device parallelism",
              "normalized runtime: independent disks <= one disk; RAID-0 ~0.5-0.6 "
              "of one disk");

  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", 14));
  uint64_t budget = opts.GetUint("budget-mb", 4) << 20;
  EdgeList edges = MakeRmat(scale, 16, true, 2);
  GraphInfo info = ScanEdges(edges);

  Table table({"Workload", "one disk", "indep. disks", "RAID-0"});
  for (const char* medium : {"HDD", "SSD"}) {
    DeviceProfile profile =
        std::string(medium) == "SSD" ? DeviceProfile::Ssd() : DeviceProfile::Hdd();
    struct Work {
      const char* name;
      std::function<double(const std::string&)> run;
    };
    auto spmv = [&](const std::string& mode) {
      return RunOn<SpmvAlgorithm>(mode, profile, edges, info.num_vertices, threads, budget,
                                  [](auto& e) { RunSpmv(e); });
    };
    auto wcc = [&](const std::string& mode) {
      return RunOn<WccAlgorithm>(mode, profile, edges, info.num_vertices, threads, budget,
                                 [](auto& e) { RunWcc(e); });
    };
    auto pagerank = [&](const std::string& mode) {
      return RunOn<PageRankAlgorithm>(mode, profile, edges, info.num_vertices, threads,
                                      budget, [](auto& e) { RunPageRank(e, 5); });
    };
    auto bfs = [&](const std::string& mode) {
      return RunOn<BfsAlgorithm>(mode, profile, edges, info.num_vertices, threads, budget,
                                 [](auto& e) { RunBfs(e, 0); });
    };
    std::vector<Work> works = {{"SpMV", spmv}, {"WCC", wcc}, {"Pagerank", pagerank},
                               {"BFS", bfs}};
    for (auto& w : works) {
      double one = w.run("one");
      double indep = w.run("indep");
      double raid = w.run("raid");
      table.AddRow({std::string(medium) + ":" + w.name, "1.00",
                    FormatDouble(indep / one, 2), FormatDouble(raid / one, 2)});
    }
  }
  table.Print();
  std::printf("(values are runtime normalized to the one-disk configuration)\n\n");
  return 0;
}
