// Fig 22: comparison with the GraphChi-like PSW engine on the SSD model,
// with a constrained memory budget: Twitter* Pagerank, Netflix* ALS, RMAT
// WCC, Twitter* belief propagation.
//
// Expectation: X-Stream needs no pre-sort and fewer partitions than the PSW
// engine needs shards; for most workloads X-Stream finishes before the PSW
// engine finishes pre-sorting, and is faster even excluding pre-sort. The
// PSW re-sort (in-memory sort by destination on every shard load) is a
// visible fraction of its runtime.
#include "algorithms/algorithms.h"
#include "baselines/graphchi_like.h"
#include "baselines/psw_programs.h"
#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "graph/datasets.h"

namespace xstream {
namespace {

struct Row {
  std::string workload;
  uint32_t xs_partitions = 0;
  double xs_runtime = 0.0;
  uint32_t psw_shards = 0;
  double psw_presort = 0.0;
  double psw_runtime = 0.0;
  double psw_resort = 0.0;
};

template <typename Algo, typename RunXs>
double XStreamRun(const EdgeList& edges, uint64_t n, int threads, uint64_t budget,
                  uint32_t* partitions, RunXs&& run) {
  SimRaidPair pair = SimRaidPair::Make("xs-ssd", DeviceProfile::Ssd());
  WriteEdgeFile(*pair.raid, "input", edges);
  GraphInfo info = ScanEdges(edges);
  info.num_vertices = n;
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = threads;
  config.streaming_budget_bytes = budget;
  // The I/O unit scales down with the constrained budget (the §3.4
  // inequality needs 5*S*K to fit alongside a partition's vertex state).
  config.io_unit_bytes = 32 << 10;
  HybridEngine<Algo> engine(config, *pair.raid, *pair.raid, *pair.raid, "input", info);
  *partitions = engine.num_partitions();
  run(engine);
  engine.FinalizeStats();
  return engine.stats().RuntimeSeconds();
}

template <typename Program, typename RunPsw>
void PswRun(const EdgeList& edges, uint64_t n, int threads, uint64_t budget, Program& program,
            Row* row, RunPsw&& run) {
  SimRaidPair pair = SimRaidPair::Make("psw-ssd", DeviceProfile::Ssd());
  PswConfig config;
  config.threads = threads;
  config.memory_budget_bytes = budget;
  WallTimer timer;
  PswEngine<Program> engine(config, *pair.raid, edges, n, program);
  double presort_wall = engine.stats().pre_sort_seconds;
  double presort_io = pair.raid->stats().busy_seconds;
  pair.a->ResetStats();
  pair.b->ResetStats();
  run(engine);
  double run_io = pair.raid->stats().busy_seconds;
  double run_wall = engine.stats().compute_seconds;
  row->psw_shards = engine.num_shards();
  row->psw_presort = std::max(presort_wall, presort_io);
  row->psw_runtime = std::max(run_wall, run_io);
  row->psw_resort = engine.stats().re_sort_seconds;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 22", "GraphChi-like PSW comparison on the SSD model",
              "X-Stream: no pre-sort, fewer partitions, shorter runtime; PSW "
              "pays pre-sort plus a per-load re-sort");

  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  int shift = static_cast<int>(opts.GetInt("scale-shift", 0));
  // The paper constrains both systems to 8GB against billion-edge graphs —
  // a tight budget relative to the data. Scaled proportionally here: tight
  // enough that the PSW engine needs tens of shards.
  uint64_t budget = opts.GetUint("budget-mb", 2) << 20;

  std::vector<Row> rows;

  {  // Twitter* Pagerank (5 iterations).
    Row row;
    row.workload = "Twitter* pagerank";
    EdgeList edges = GenerateDataset(*FindDataset("Twitter*"), shift);
    GraphInfo info = ScanEdges(edges);
    row.xs_runtime = XStreamRun<PageRankAlgorithm>(
        edges, info.num_vertices, threads, budget, &row.xs_partitions,
        [](auto& e) { RunPageRank(e, 5); });
    PswPageRank program(info.num_vertices);
    PswRun(edges, info.num_vertices, threads, budget, program, &row,
           [&program](auto& e) { e.RunIterations(program, 5); });
    rows.push_back(row);
  }
  {  // Netflix* ALS (5 iterations).
    Row row;
    row.workload = "Netflix* ALS";
    DatasetSpec spec = *FindDataset("Netflix*");
    EdgeList edges = GenerateDataset(spec, shift);
    GraphInfo info = ScanEdges(edges);
    uint32_t users = uint32_t{1} << (spec.scale + static_cast<uint32_t>(shift));
    row.xs_runtime = XStreamRun<AlsAlgorithm>(
        edges, info.num_vertices, threads, budget, &row.xs_partitions,
        [users](auto& e) { RunAls(e, users, 5); });
    PswAls program;
    PswRun(edges, info.num_vertices, threads, budget, program, &row,
           [&program](auto& e) { e.RunIterations(program, 5); });
    rows.push_back(row);
  }
  {  // RMAT WCC (paper: RMAT scale 27; scaled down).
    Row row;
    uint32_t scale = static_cast<uint32_t>(opts.GetUint("rmat-scale", 15));
    row.workload = "RMAT" + std::to_string(scale) + " WCC";
    EdgeList edges = MakeRmat(scale, 16, true, 7);
    GraphInfo info = ScanEdges(edges);
    row.xs_runtime =
        XStreamRun<WccAlgorithm>(edges, info.num_vertices, threads, budget,
                                 &row.xs_partitions, [](auto& e) { RunWcc(e); });
    PswWcc program;
    PswRun(edges, info.num_vertices, threads, budget, program, &row,
           [&program](auto& e) { e.RunUntilConverged(program); });
    rows.push_back(row);
  }
  {  // Twitter* belief propagation (5 iterations).
    Row row;
    row.workload = "Twitter* belief prop.";
    EdgeList edges = GenerateDataset(*FindDataset("Twitter*"), shift);
    GraphInfo info = ScanEdges(edges);
    row.xs_runtime = XStreamRun<BpAlgorithm>(edges, info.num_vertices, threads, budget,
                                             &row.xs_partitions,
                                             [](auto& e) { RunBp(e, 5); });
    PswBp program;
    PswRun(edges, info.num_vertices, threads, budget, program, &row,
           [&program](auto& e) { e.RunIterations(program, 5); });
    rows.push_back(row);
  }

  Table table({"Workload", "System (parts)", "Pre-sort (s)", "Runtime (s)", "Re-sort (s)"});
  for (const Row& row : rows) {
    table.AddRow({row.workload, "X-Stream (" + std::to_string(row.xs_partitions) + ")",
                  "none", FormatDouble(row.xs_runtime, 3), "-"});
    table.AddRow({"", "Graphchi-like (" + std::to_string(row.psw_shards) + ")",
                  FormatDouble(row.psw_presort, 3), FormatDouble(row.psw_runtime, 3),
                  FormatDouble(row.psw_resort, 3)});
  }
  table.Print();
  std::printf("(re-sort time is included in the PSW runtime, as in the paper)\n\n");
  return 0;
}
