// Fig 17: recomputing WCC while the Twitter graph streams in, batch by
// batch. Each ingested batch is partitioned (in-memory shuffle + appends)
// and WCC is recomputed over the accumulated graph. Expectation:
// recomputation time grows roughly linearly with the accumulated edge
// count, and stays well below a from-scratch full-graph run until the end.
#include "algorithms/wcc.h"
#include "bench_common.h"
#include "core/hybrid_engine.h"
#include "graph/datasets.h"

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 17", "WCC recomputation under edge ingest (Twitter*)",
              "recompute time grows with accumulated graph size; each "
              "recompute is cheaper than the final full-graph run");

  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  int shift = static_cast<int>(opts.GetInt("scale-shift", 0));
  int batches = static_cast<int>(opts.GetInt("batches", 6));
  uint64_t budget = opts.GetUint("budget-mb", 4) << 20;

  DatasetSpec spec = *FindDataset("Twitter*");
  EdgeList raw = GenerateDataset(spec, shift);
  EdgeList sym = Symmetrize(raw);  // WCC needs undirected semantics
  PermuteEdges(sym, 4);
  GraphInfo info = ScanEdges(sym);

  SimRaidPair ssd = SimRaidPair::Make("ssd", DeviceProfile::Ssd());
  // Start from an empty edge file; vertices are known up front.
  WriteEdgeFile(*ssd.raid, "input", {});
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = threads;
  config.streaming_budget_bytes = budget;
  config.io_unit_bytes = 256 << 10;
  HybridEngine<WccAlgorithm> engine(config, *ssd.raid, *ssd.raid, *ssd.raid, "input", info);

  uint64_t per_batch = sym.size() / static_cast<uint64_t>(batches);
  Table table({"Accumulated edges", "Ingest (s)", "Recompute WCC (s)", "Components"});
  for (int b = 0; b < batches; ++b) {
    uint64_t begin = static_cast<uint64_t>(b) * per_batch;
    uint64_t end = (b + 1 == batches) ? sym.size() : begin + per_batch;
    EdgeList batch(sym.begin() + static_cast<long>(begin), sym.begin() + static_cast<long>(end));

    engine.ResetStats();
    engine.IngestEdges(batch);
    engine.FinalizeStats();
    double ingest = engine.stats().RuntimeSeconds();

    engine.ResetStats();
    WccResult r = RunWcc(engine);
    table.AddRow({HumanCount(end), FormatDouble(ingest, 3),
                  FormatDouble(r.stats.RuntimeSeconds(), 3),
                  std::to_string(r.num_components)});
  }
  table.Print();
  std::printf("(paper: final 330M-edge batch recomputes in <7min vs ~20min for the full "
              "1.9B-edge graph from scratch)\n\n");
  return 0;
}
