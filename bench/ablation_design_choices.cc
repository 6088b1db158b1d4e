// Ablations of X-Stream's design choices (DESIGN.md §5) beyond the paper's
// own sweeps (Fig 24 partitions, Fig 25 shuffle stages):
//   1. Work stealing (§4.1): on a skewed graph, static round-robin
//      assignment leaves threads idle while one thread gathers the hub
//      partition (scatter's items are bounded edge runs, so they deal out
//      evenly either way).
//   2. The §3.2 memory optimizations: disabling the update short-circuit
//      and the memory-resident vertex array adds storage traffic.
//   3. The §3.3 TRIM discipline: deferring update-file truncation raises
//      peak device occupancy.
#include "algorithms/algorithms.h"
#include "bench_common.h"
#include "core/inmem_engine.h"
#include "core/hybrid_engine.h"

namespace xstream {
namespace {

double InMemWcc(const EdgeList& edges, uint64_t n, int threads, bool stealing,
                uint64_t* steals) {
  InMemoryConfig config;
  config.threads = threads;
  config.num_partitions = 64;  // enough partitions for imbalance to matter
  config.enable_work_stealing = stealing;
  InMemoryEngine<WccAlgorithm> engine(config, edges, n);
  WallTimer timer;
  WccResult r = RunWcc(engine);
  *steals = r.stats.steals;
  return timer.Seconds();
}

struct OocOutcome {
  double runtime;
  uint64_t bytes_moved;
  uint64_t peak_update_bytes;
};

OocOutcome OocWcc(const EdgeList& edges, int threads, bool vertex_opt, bool update_opt,
                  bool eager_truncate, uint64_t budget = 8 << 20,
                  size_t io_unit = 256 << 10) {
  SimRaidPair pair = SimRaidPair::Make("ssd", DeviceProfile::Ssd());
  WriteEdgeFile(*pair.raid, "input", edges);
  GraphInfo info = ScanEdges(edges);
  HybridConfig config;
  config.threads = threads;
  config.streaming_budget_bytes = budget;
  config.io_unit_bytes = io_unit;
  config.allow_vertex_memory_opt = vertex_opt;
  config.allow_update_memory_opt = update_opt;
  config.eager_update_truncate = eager_truncate;
  HybridEngine<WccAlgorithm> engine(config, *pair.raid, *pair.raid, *pair.raid, "input",
                                    info);
  WccResult r = RunWcc(engine);
  return OocOutcome{r.stats.RuntimeSeconds(), r.stats.bytes_read + r.stats.bytes_written,
                    r.stats.peak_update_bytes};
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Ablations", "Design-choice ablations (work stealing, §3.2 opts, TRIM)",
              "each mechanism, turned off, costs runtime, bytes, or peak storage");

  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", 16));

  {  // 1. Work stealing on a skewed (hub-heavy) graph.
    RmatParams params;  // RMAT's a-heavy corner concentrates edges
    params.scale = scale;
    params.edge_factor = 16;
    params.a = 0.7;
    params.b = 0.1;
    params.c = 0.1;
    params.undirected = true;
    params.seed = 12;
    EdgeList skewed = GenerateRmat(params);
    GraphInfo info = ScanEdges(skewed);
    uint64_t steals = 0;
    double with = InMemWcc(skewed, info.num_vertices, threads, true, &steals);
    uint64_t no_steals = 0;
    double without = InMemWcc(skewed, info.num_vertices, threads, false, &no_steals);
    Table t({"Work stealing", "WCC (s)", "steals"});
    t.AddRow({"enabled", FormatDouble(with, 3), std::to_string(steals)});
    t.AddRow({"disabled (static)", FormatDouble(without, 3), std::to_string(no_steals)});
    t.Print();
    std::printf("\n");
  }

  EdgeList edges = MakeRmat(scale, 16, true, 13);
  {  // 2. §3.2 memory optimizations. The update short-circuit needs a
     // stream buffer that can hold a full scatter phase, so this row runs
     // with a budget sized like the paper's (memory >> one phase's updates).
    uint64_t big = 256ull << 20;
    size_t unit = 32 << 20;
    OocOutcome both = OocWcc(edges, threads, true, true, true, big, unit);
    OocOutcome no_upd = OocWcc(edges, threads, true, false, true, big, unit);
    OocOutcome none = OocWcc(edges, threads, false, false, true, big, unit);
    Table t({"§3.2 optimizations", "Runtime (s)", "Bytes moved"});
    t.AddRow({"vertex-mem + update-mem", FormatDouble(both.runtime, 3),
              HumanBytes(both.bytes_moved)});
    t.AddRow({"vertex-mem only", FormatDouble(no_upd.runtime, 3),
              HumanBytes(no_upd.bytes_moved)});
    t.AddRow({"neither", FormatDouble(none.runtime, 3), HumanBytes(none.bytes_moved)});
    t.Print();
    std::printf("\n");
  }

  {  // 3. TRIM discipline (peak update-file occupancy).
    OocOutcome eager = OocWcc(edges, threads, true, false, true);
    OocOutcome lazy = OocWcc(edges, threads, true, false, false);
    Table t({"Update truncation", "Runtime (s)", "Peak update bytes"});
    t.AddRow({"eager (per stream, §3.3)", FormatDouble(eager.runtime, 3),
              HumanBytes(eager.peak_update_bytes)});
    t.AddRow({"deferred to phase end", FormatDouble(lazy.runtime, 3),
              HumanBytes(lazy.peak_update_bytes)});
    t.Print();
    std::printf("\n");
  }
  return 0;
}
