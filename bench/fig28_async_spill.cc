// Fig 28 (extension beyond the paper): synchronous vs asynchronous update
// spill on the out-of-core engine.
//
// The §3.3 design overlaps update-file writes with scatter compute. The
// unified phase runtime routes spill writes through the update device's
// IoExecutor with double-buffered shuffle destinations, so the shuffle of
// spill batch k+1 runs while the write of batch k is in flight; the sync
// baseline (`async_spill = false`) makes every spill wait for its own
// write. Expectation: async spill matches or beats sync throughput, and
// its spill-wait time — the scatter stalls attributable to update writes —
// collapses.
//
// Device: a SimDevice (SSD profile) whose modeled service time is also
// spent in *wall* time, so the compute/write overlap is measurable and
// reproducible on any host — a laptop's page cache absorbs buffered writes
// at memcpy speed, which would bury the effect in scheduling noise.
//
// Runs PageRank with file-resident vertices and the update-memory
// optimization disabled so every iteration spills.
#include "bench_common.h"

#include "algorithms/pagerank.h"
#include "core/hybrid_engine.h"
#include "graph/transforms.h"

namespace xstream {
namespace {

// The wall-clock SSD model lives in bench_common.h (WallClockSimDevice):
// modeled service time is spent in wall time, exactly what the §3.3 overlap
// hides — or, in sync-spill mode, fails to hide.

struct BenchResult {
  double wall_seconds = 0.0;       // best-of-reps iteration wall time
  double spill_wait_seconds = 0.0; // from the best rep
  uint64_t update_file_mb = 0;
  uint64_t async_mb = 0;
  double edges_per_second = 0.0;
  double top_rank = 0.0;  // result fingerprint: must match across modes
};

BenchResult RunOne(bool async_spill, const EdgeList& edges, const GraphInfo& info,
                   int threads, uint32_t partitions, size_t io_unit_bytes,
                   uint64_t iterations, int reps) {
  BenchResult best;
  best.wall_seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    // Independent devices for edges and updates (the Fig 15 configuration):
    // with one shared disk the FIFO I/O thread would re-serialize the spill
    // writes against the edge prefetch reads — one disk head — and overlap
    // could not create bandwidth.
    WallClockSimDevice edge_dev("edges", DeviceProfile::Ssd());
    WallClockSimDevice update_dev("updates", DeviceProfile::Ssd());
    WallClockSimDevice vertex_dev("vertices", DeviceProfile::Ssd());
    WriteEdgeFile(edge_dev, "fig28.input", edges);
    HybridConfig config;
    config.threads = threads;
    config.streaming_budget_bytes = 64ull << 20;  // only k matters: it is forced
    config.io_unit_bytes = io_unit_bytes;
    config.num_partitions = partitions;
    config.allow_vertex_memory_opt = false;  // file-resident vertex states
    config.allow_update_memory_opt = false;  // every iteration spills
    config.absorb_local_updates = false;     // pure spill traffic, no shortcut
    config.async_spill = async_spill;
    config.file_prefix = "fig28";
    HybridEngine<PageRankAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                           "fig28.input", info);

    PageRankAlgorithm algo(info.num_vertices, iterations);
    WallTimer timer;
    RunStats stats = engine.Run(algo, iterations);
    double wall = timer.Seconds();
    if (wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.spill_wait_seconds = stats.spill_wait_seconds;
      best.update_file_mb = stats.update_file_bytes >> 20;
      best.async_mb = stats.async_spill_bytes >> 20;
      best.edges_per_second = static_cast<double>(stats.edges_streamed) / wall;
    }
    best.top_rank = engine.VertexFold(0.0, [](double acc, VertexId,
                                              const PageRankAlgorithm::VertexState& s) {
      return std::max(acc, static_cast<double>(s.rank));
    });
  }
  return best;
}

void RunGraph(const char* label, const char* key, BenchJson& json, const EdgeList& edges,
              int threads, uint32_t partitions, size_t io_unit_bytes, uint64_t iterations,
              int reps, bool* async_wins) {
  GraphInfo info = ScanEdges(edges);
  std::printf("%s: %s vertices, %s edge records, %u partitions, %llu iterations\n", label,
              HumanCount(info.num_vertices).c_str(), HumanCount(info.num_edges).c_str(),
              partitions, static_cast<unsigned long long>(iterations));
  Table table({"Spill mode", "Wall (s)", "Spill wait (s)", "Update MB", "Async MB",
               "ME/s"});
  BenchResult sync_r =
      RunOne(false, edges, info, threads, partitions, io_unit_bytes, iterations, reps);
  BenchResult async_r =
      RunOne(true, edges, info, threads, partitions, io_unit_bytes, iterations, reps);
  auto add_row = [&table](const char* name, const BenchResult& r) {
    table.AddRow({name, FormatDouble(r.wall_seconds, 3), FormatDouble(r.spill_wait_seconds, 3),
                  FormatDouble(static_cast<double>(r.update_file_mb), 0),
                  FormatDouble(static_cast<double>(r.async_mb), 0),
                  FormatDouble(r.edges_per_second / 1e6, 1)});
  };
  add_row("sync", sync_r);
  add_row("async", async_r);
  table.Print();
  double speedup = sync_r.wall_seconds / async_r.wall_seconds;
  bool match = std::abs(sync_r.top_rank - async_r.top_rank) <=
               1e-4 * std::abs(sync_r.top_rank);
  std::printf("async vs sync: %.2fx wall, spill wait %.3fs -> %.3fs; results %s\n\n", speedup,
              sync_r.spill_wait_seconds, async_r.spill_wait_seconds,
              match ? "identical" : "DIVERGED");
  if (async_wins != nullptr) {
    *async_wins = async_r.edges_per_second >= sync_r.edges_per_second;
  }
  // Update-file traffic is deterministic (routed records x record size, no
  // absorption, fixed seed) and must not depend on the spill mode; the
  // result fingerprint match is the §3.3 "overlap changes nothing" claim.
  // Wall-derived numbers are machine load, recorded for trending only.
  json.Exact(std::string(key) + ".sync_update_mb", static_cast<double>(sync_r.update_file_mb));
  json.Exact(std::string(key) + ".async_update_mb",
             static_cast<double>(async_r.update_file_mb));
  json.Exact(std::string(key) + ".results_match", match ? 1.0 : 0.0);
  json.Info(std::string(key) + ".async_speedup", speedup);
  json.Info(std::string(key) + ".sync_spill_wait_s", sync_r.spill_wait_seconds);
  json.Info(std::string(key) + ".async_spill_wait_s", async_r.spill_wait_seconds);
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 28", "Sync vs async update spill (out-of-core, SSD model in wall time)",
              "async spill >= sync throughput: shuffle of batch k+1 overlaps "
              "the update-file write of batch k (§3.3)");

  bool smoke = opts.GetBool("smoke", false);
  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", smoke ? 12 : 16));
  uint32_t grid_side = static_cast<uint32_t>(opts.GetUint("grid-side", smoke ? 128 : 512));
  uint32_t partitions = static_cast<uint32_t>(opts.GetUint("partitions", 8));
  size_t io_unit = static_cast<size_t>(opts.GetUint("io-unit-kb", smoke ? 16 : 64)) << 10;
  uint64_t iterations = opts.GetUint("iterations", 3);
  int reps = static_cast<int>(opts.GetInt("reps", smoke ? 1 : 3));
  uint64_t seed = opts.GetUint("seed", 1);

  BenchJson json(opts, "fig28");
  EdgeList rmat = MakeRmat(scale, 16, true, seed + 1);
  GraphInfo rinfo = ScanEdges(rmat);
  rmat = PermuteVertexIds(rmat, rinfo.num_vertices, seed + 2);
  RunGraph("rmat (power-law)", "rmat", json, rmat, threads, partitions, io_unit, iterations,
           reps, nullptr);

  bool async_wins = false;
  EdgeList grid = GenerateGrid(grid_side, grid_side, seed + 3);
  GraphInfo ginfo = ScanEdges(grid);
  grid = PermuteVertexIds(grid, ginfo.num_vertices, seed + 4);
  RunGraph("grid (road-network stand-in)", "grid", json, grid, threads, partitions, io_unit,
           iterations, reps, &async_wins);
  std::printf("acceptance: async >= sync on grid: %s\n", async_wins ? "yes" : "NO");
  json.Write();
  return async_wins ? 0 : 1;
}
