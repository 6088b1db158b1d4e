// Fig 27 (extension beyond the paper): streaming partitioners vs the §2.2
// range baseline. Expectation: on power-law (RMAT) inputs the one-pass
// greedy partitioner — and on community-structured road-network stand-ins
// the two-phase (2PS-style) partitioner — cut the edge cut, the replication
// factor, and the out-of-core scatter->gather traffic (update-file bytes,
// via local-update absorption), at identical algorithm results. Hash is the
// locality-free control; range degenerates to quasi-random once vertex ids
// are permuted (which this bench does, so no strategy free-rides on
// generator numbering).
#include "bench_common.h"
#include "algorithms/algorithms.h"
#include "core/hybrid_engine.h"
#include "graph/transforms.h"
#include "partitioning/partitioner.h"
#include "partitioning/quality.h"

namespace xstream {
namespace {

struct BenchResult {
  PartitionQuality quality;
  uint64_t update_file_bytes = 0;
  uint64_t updates_absorbed = 0;
  double sim_seconds = 0.0;
  double top_rank = 0.0;  // result fingerprint: must match across strategies
};

BenchResult RunOne(const std::string& name, const EdgeList& edges, const GraphInfo& info,
                   int threads, uint32_t partitions, size_t io_unit_bytes,
                   uint64_t iterations, uint64_t seed) {
  PartitionerOptions options;
  options.seed = seed;
  auto partitioner = MakePartitioner(name, options);

  SimDevice dev("d", DeviceProfile::Ssd());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig config;
  config.threads = threads;
  config.streaming_budget_bytes = 64ull << 20;  // only k matters: it is forced
  config.io_unit_bytes = io_unit_bytes;
  config.num_partitions = partitions;
  config.allow_vertex_memory_opt = false;  // file-resident vertex states
  config.allow_update_memory_opt = false;
  config.partitioner = partitioner.get();
  HybridEngine<PageRankAlgorithm> engine(config, dev, dev, dev, "input", info);

  BenchResult r;
  r.quality = EvaluatePartitionQuality(engine.layout(), edges);
  PageRankResult pr = RunPageRank(engine, iterations);
  r.update_file_bytes = engine.stats().update_file_bytes;
  r.updates_absorbed = engine.stats().updates_absorbed;
  r.sim_seconds = engine.stats().RuntimeSeconds();
  for (float rank : pr.ranks) {
    r.top_rank = std::max(r.top_rank, static_cast<double>(rank));
  }
  return r;
}

void RunGraph(const char* label, const char* key, BenchJson& json, const EdgeList& edges,
              int threads, uint32_t partitions, size_t io_unit_bytes, uint64_t iterations,
              uint64_t seed) {
  GraphInfo info = ScanEdges(edges);
  std::printf("%s: %s vertices, %s edge records, %u partitions\n", label,
              HumanCount(info.num_vertices).c_str(), HumanCount(info.num_edges).c_str(),
              partitions);
  Table table({"Partitioner", "Edge cut", "Repl", "Edge bal", "Update MB", "Absorbed",
               "Runtime (s)"});
  uint64_t range_bytes = 0;
  uint64_t best_bytes = UINT64_MAX;
  std::string best_name;
  double fingerprint = 0.0;
  bool results_match = true;
  for (const auto& name : KnownPartitioners()) {
    BenchResult r =
        RunOne(name, edges, info, threads, partitions, io_unit_bytes, iterations, seed);
    if (name == "range") {
      range_bytes = r.update_file_bytes;
      fingerprint = r.top_rank;
    } else if (std::abs(r.top_rank - fingerprint) > 1e-4 * std::abs(fingerprint)) {
      // Tolerance covers float-summation reordering across mappings; real
      // divergence (a broken partitioner) is orders of magnitude larger.
      results_match = false;
    }
    if ((name == "greedy" || name == "2ps") && r.update_file_bytes < best_bytes) {
      best_bytes = r.update_file_bytes;
      best_name = name;
    }
    table.AddRow({name, FormatDouble(100.0 * r.quality.CutFraction(), 1) + "%",
                  FormatDouble(r.quality.replication_factor, 2),
                  FormatDouble(r.quality.edge_balance, 2),
                  FormatDouble(static_cast<double>(r.update_file_bytes) / (1 << 20), 2),
                  HumanCount(r.updates_absorbed), FormatDouble(r.sim_seconds, 3)});
    std::string mkey = std::string(key) + "." + name;
    json.Exact(mkey + ".update_file_bytes", static_cast<double>(r.update_file_bytes));
    json.Exact(mkey + ".updates_absorbed", static_cast<double>(r.updates_absorbed));
    json.Ratio(mkey + ".cut_fraction", r.quality.CutFraction());
    json.Ratio(mkey + ".replication", r.quality.replication_factor);
    json.Info(mkey + ".runtime_seconds", r.sim_seconds);
  }
  table.Print();
  if (range_bytes > 0 && best_bytes != UINT64_MAX) {
    double saved = 100.0 * (1.0 - static_cast<double>(best_bytes) /
                                      static_cast<double>(range_bytes));
    std::printf("%s vs range: %.1f%% %s update-file traffic; results %s\n\n", best_name.c_str(),
                std::abs(saved), saved >= 0 ? "less" : "MORE",
                results_match ? "identical" : "DIVERGED");
  }
  json.Exact(std::string(key) + ".results_match", results_match ? 1 : 0);
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 27", "Streaming partitioners vs the range baseline (out-of-core)",
              "greedy/2ps cut update-file traffic versus range at identical "
              "results; 2ps dominates on road networks, greedy on RMAT");

  bool smoke = opts.GetBool("smoke", false);
  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", smoke ? 11 : 14));
  uint32_t grid_side = static_cast<uint32_t>(opts.GetUint("grid-side", smoke ? 64 : 256));
  uint32_t partitions = static_cast<uint32_t>(opts.GetUint("partitions", 8));
  size_t io_unit = static_cast<size_t>(opts.GetUint("io-unit-kb", 16)) << 10;
  uint64_t iterations = opts.GetUint("iterations", smoke ? 3 : 5);
  uint64_t seed = opts.GetUint("seed", 1);

  BenchJson json(opts, "fig27");

  // Permuted vertex ids throughout: the standard control so the range
  // baseline reflects an arbitrary input numbering, not the generator's.
  EdgeList rmat = MakeRmat(scale, 16, true, seed + 1);
  GraphInfo rinfo = ScanEdges(rmat);
  rmat = PermuteVertexIds(rmat, rinfo.num_vertices, seed + 2);
  RunGraph("rmat (power-law)", "rmat", json, rmat, threads, partitions, io_unit, iterations,
           seed);

  EdgeList grid = GenerateGrid(grid_side, grid_side, seed + 3);
  GraphInfo ginfo = ScanEdges(grid);
  grid = PermuteVertexIds(grid, ginfo.num_vertices, seed + 4);
  RunGraph("grid (road-network stand-in)", "grid", json, grid, threads, partitions, io_unit,
           iterations, seed);
  return json.Write() ? 0 : 1;
}
