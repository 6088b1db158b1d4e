// Fig 31 (extension beyond the paper): incremental residency — delta
// eviction/promotion with hysteresis, and pinned edge streams.
//
// PR 3's hybrid engine re-planned the pin set between iterations with a
// stop-the-world full re-plan: every partition the new plan flipped moved
// its state immediately, so a drifting workload (an SSSP/BFS frontier
// sweeping through partitions, with Bellman-Ford correction waves bouncing
// volumes up and down) thrashed vertex state between RAM and the vertex
// files. The incremental planner (ResidencyPlanner::PlanDelta) migrates
// only partitions whose win/loss survived `--residency-hysteresis`
// consecutive iterations, one partition at a time at scatter boundaries.
//
// Part A measures that: SSSP over a weighted grid at a partial pin budget,
// full re-plan (hysteresis 0) vs incremental (hysteresis 1 and 2). The
// migration byte volume must be strictly lower under the hysteresis delta,
// with bit-identical distances throughout.
//
// Part B measures edge pinning: PR 3's "fully resident" partitions still
// streamed their edges from the edge device every scatter. With --pin-edges
// a pinned partition captures its edge chunks into a PinnedEdgeCache on the
// first scan and serves every later scan from RAM — so at a full budget the
// edge device reads each partition's edges at most once after setup (BFS
// scans a partition only once it holds a frontier vertex), and the hybrid
// engine's results are bit-identical to the in-memory engine's.
#include "bench_common.h"

#include "algorithms/bfs.h"
#include "algorithms/sssp.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/transforms.h"

namespace xstream {
namespace {

struct MigrationPoint {
  std::string label;
  uint64_t migration_bytes = 0;
  uint64_t evictions = 0;
  uint64_t promotions = 0;
  uint64_t replans = 0;
  uint64_t iterations = 0;
  std::vector<float> dist;
};

HybridConfig BaseConfig(int threads, size_t io_unit_bytes, uint32_t partitions) {
  HybridConfig config;
  config.threads = threads;
  config.io_unit_bytes = io_unit_bytes;
  config.num_partitions = partitions;
  config.file_prefix = "fig31";
  return config;
}

MigrationPoint RunSsspAt(const EdgeList& edges, const GraphInfo& info, HybridConfig config,
                         uint64_t budget, uint32_t hysteresis, const std::string& label) {
  SimDevice edge_dev("edges", DeviceProfile::Instant());
  SimDevice update_dev("updates", DeviceProfile::Instant());
  SimDevice vertex_dev("vertices", DeviceProfile::Instant());
  WriteEdgeFile(edge_dev, "fig31.input", edges);
  config.memory_budget_bytes = budget;
  config.residency_hysteresis = hysteresis;
  HybridEngine<SsspAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                     "fig31.input", info);
  SsspResult r = RunSssp(engine, 0);
  MigrationPoint point;
  point.label = label;
  point.migration_bytes = r.stats.migration_bytes;
  point.evictions = r.stats.evictions;
  point.promotions = r.stats.promotions;
  point.replans = engine.replans();
  point.iterations = r.stats.iterations;
  point.dist = std::move(r.dist);
  return point;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 31",
              "Incremental residency: delta migrations with hysteresis + pinned edge streams",
              "hysteresis cuts migration bytes vs the full re-plan baseline on a drifting "
              "frontier; at full budget with --pin-edges the edge device reads each "
              "partition's edges at most once after setup and results match the in-memory "
              "engine bit for bit");

  bool smoke = opts.GetBool("smoke", false);
  int threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  uint32_t partitions = static_cast<uint32_t>(opts.GetUint("partitions", 8));
  size_t io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", smoke ? 4 : 16)) << 10;
  uint64_t seed = opts.GetUint("seed", 1);
  uint32_t side = static_cast<uint32_t>(opts.GetUint("side", smoke ? 48 : 96));
  uint64_t budget_pct = opts.GetUint("budget-pct", 40);
  uint32_t hysteresis = static_cast<uint32_t>(opts.GetUint("hysteresis", 2));

  bool ok = true;

  // ---- Part A: migration volume under a drifting SSSP frontier -----------
  EdgeList grid = GenerateGrid(side, side, seed);
  GraphInfo ginfo = ScanEdges(grid);
  std::printf("part A: sssp over a %ux%u weighted grid (%s vertices, %s edge records), "
              "%u partitions, pin budget = %llu%% of the vertex-state bytes\n",
              side, side, HumanCount(ginfo.num_vertices).c_str(),
              HumanCount(ginfo.num_edges).c_str(), partitions,
              static_cast<unsigned long long>(budget_pct));

  HybridConfig config = BaseConfig(threads, io_unit_bytes, partitions);
  // The budget must *bind* at the observed costs for residency to drift: an
  // SSSP iteration's observed pin cost is roughly the vertex states (the
  // frontier's update volume is small), so a fraction of the total vertex
  // bytes keeps the marginal partitions competing every re-plan. A fraction
  // of FullPinBytes — dominated by worst-case update buffers — would fit
  // every partition at observed costs and nothing would ever migrate.
  uint64_t budget =
      ginfo.num_vertices * sizeof(SsspAlgorithm::VertexState) * budget_pct / 100;

  MigrationPoint baseline =
      RunSsspAt(grid, ginfo, config, budget, 0, "full re-plan (hysteresis 0)");
  // Hysteresis 1 migrates on the first disagreeing plan — the same
  // decisions as the full re-plan, only applied at partition boundaries —
  // so it is shown for reference; the strict migration reduction is the
  // k >= 2 damping's claim.
  std::vector<MigrationPoint> incremental;
  for (uint32_t k = 1; k <= hysteresis; ++k) {
    incremental.push_back(
        RunSsspAt(grid, ginfo, config, budget, k, "delta, hysteresis " + std::to_string(k)));
  }

  std::vector<float> mem_dist;
  {
    InMemoryConfig mconfig;
    mconfig.threads = threads;
    InMemoryEngine<SsspAlgorithm> mem(mconfig, grid, ginfo.num_vertices);
    mem_dist = RunSssp(mem, 0).dist;
  }

  Table table({"Re-plan mode", "Iters", "Re-plans", "Promote", "Evict", "Migrated KB",
               "vs full re-plan"});
  auto add_row = [&table, &baseline](const MigrationPoint& p) {
    table.AddRow({p.label, std::to_string(p.iterations), std::to_string(p.replans),
                  std::to_string(p.promotions), std::to_string(p.evictions),
                  std::to_string(p.migration_bytes >> 10),
                  baseline.migration_bytes > 0
                      ? FormatDouble(100.0 * static_cast<double>(p.migration_bytes) /
                                         static_cast<double>(baseline.migration_bytes),
                                     1) + "%"
                      : "-"});
  };
  add_row(baseline);
  for (const MigrationPoint& p : incremental) {
    add_row(p);
  }
  table.Print();

  if (baseline.dist != mem_dist) {
    std::printf("FAIL: full re-plan distances diverge from the in-memory engine\n");
    ok = false;
  }
  for (const MigrationPoint& p : incremental) {
    if (p.dist != baseline.dist) {
      std::printf("FAIL: %s distances diverge from the full re-plan baseline\n",
                  p.label.c_str());
      ok = false;
    }
  }
  if (baseline.migration_bytes == 0) {
    std::printf("FAIL: the baseline never migrated — no drift to measure\n");
    ok = false;
  }
  for (size_t i = 0; i < incremental.size(); ++i) {
    uint32_t k = static_cast<uint32_t>(i) + 1;
    const MigrationPoint& p = incremental[i];
    if (k >= 2 && p.migration_bytes >= baseline.migration_bytes) {
      std::printf("FAIL: %s migrated %llu bytes, not strictly below the full re-plan's %llu\n",
                  p.label.c_str(), static_cast<unsigned long long>(p.migration_bytes),
                  static_cast<unsigned long long>(baseline.migration_bytes));
      ok = false;
    }
  }

  // ---- Part B: pinned edge streams at full budget -------------------------
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", smoke ? 11 : 14));
  EdgeList rmat = MakeRmat(scale, smoke ? 8 : 16, true, seed + 1);
  GraphInfo rinfo = ScanEdges(rmat);
  std::printf("\npart B: bfs over rmat scale %u (%s vertices, %s edge records), "
              "full pin budget, --pin-edges\n",
              scale, HumanCount(rinfo.num_vertices).c_str(),
              HumanCount(rinfo.num_edges).c_str());

  SimDevice edge_dev("edges", DeviceProfile::Instant());
  SimDevice update_dev("updates", DeviceProfile::Instant());
  SimDevice vertex_dev("vertices", DeviceProfile::Instant());
  WriteEdgeFile(edge_dev, "fig31.input", rmat);
  HybridConfig bconfig = BaseConfig(threads, io_unit_bytes, partitions);
  bconfig.pin_edges = true;
  {
    // Probe the full pin cost (now including edge streams) over the same
    // input, then rebuild the measured engine with that budget.
    SimDevice probe_dev("probe", DeviceProfile::Instant());
    WriteEdgeFile(probe_dev, "fig31.input", rmat);
    HybridConfig pconfig = bconfig;
    pconfig.memory_budget_bytes = 0;
    HybridEngine<BfsAlgorithm> probe(pconfig, probe_dev, probe_dev, probe_dev,
                                     "fig31.input", rinfo);
    bconfig.memory_budget_bytes = probe.FullPinBytes();
  }
  HybridEngine<BfsAlgorithm> engine(bconfig, edge_dev, update_dev, vertex_dev,
                                    "fig31.input", rinfo);
  const uint64_t setup_reads = edge_dev.stats().bytes_read;

  // Selective scheduling scans only partitions holding a frontier vertex;
  // record which ones each iteration scans (the choice is fixed before its
  // scatter starts).
  BfsAlgorithm algo(0);
  engine.InitVertices(algo);
  const uint32_t k = engine.num_partitions();
  std::vector<uint8_t> scanned(k, 0);
  uint64_t iterations = 0;
  for (;;) {
    for (uint32_t p = 0; p < k; ++p) {
      scanned[p] |= engine.driver().PartitionNeedsScatter(p) ? 1 : 0;
    }
    ++iterations;
    if (engine.RunIteration(algo).updates_generated == 0) {
      break;
    }
  }
  engine.FinalizeStats();
  uint64_t final_reads = edge_dev.stats().bytes_read;
  uint64_t scanned_edge_bytes = 0;
  for (uint32_t p = 0; p < k; ++p) {
    scanned_edge_bytes += scanned[p] ? engine.store().src_edge_counts()[p] *
                                           engine.store().edge_record_bytes()
                                     : 0;
  }
  // Reads past one capture per scanned partition (0 when every later scan
  // is served from the pinned cache).
  const int64_t repeat_reads = static_cast<int64_t>(final_reads - setup_reads) -
                               static_cast<int64_t>(scanned_edge_bytes);
  const RunStats& stats = engine.stats();

  std::vector<uint32_t> hybrid_levels(rinfo.num_vertices);
  engine.VertexMap([&hybrid_levels](VertexId v, const BfsAlgorithm::VertexState& s) {
    hybrid_levels[v] = s.level;
  });
  std::vector<uint32_t> mem_levels;
  {
    InMemoryConfig mconfig;
    mconfig.threads = threads;
    InMemoryEngine<BfsAlgorithm> mem(mconfig, rmat, rinfo.num_vertices);
    mem_levels = RunBfs(mem, 0).levels;
  }

  std::printf("%llu iterations; edge-device reads: %s at setup, %s at the end, %s of edges "
              "in the partitions scanned (%s served from the pinned cache, %s cached)\n",
              static_cast<unsigned long long>(iterations), HumanBytes(setup_reads).c_str(),
              HumanBytes(final_reads).c_str(), HumanBytes(scanned_edge_bytes).c_str(),
              HumanBytes(stats.edge_reads_avoided_bytes).c_str(),
              HumanBytes(stats.pinned_edge_bytes).c_str());

  if (iterations < 3) {
    std::printf("FAIL: run too short (%llu iterations) to observe cached scans\n",
                static_cast<unsigned long long>(iterations));
    ok = false;
  }
  if (repeat_reads != 0) {
    std::printf("FAIL: after setup the edge device read %lld bytes beyond one scan of each "
                "scanned partition\n",
                static_cast<long long>(repeat_reads));
    ok = false;
  }
  if (stats.update_file_bytes != 0) {
    std::printf("FAIL: full budget still wrote update files\n");
    ok = false;
  }
  if (stats.edge_reads_avoided_bytes == 0) {
    std::printf("FAIL: no edge reads were served from the pinned cache\n");
    ok = false;
  }
  if (hybrid_levels != mem_levels) {
    std::printf("FAIL: hybrid levels diverge from the in-memory engine\n");
    ok = false;
  }

  std::printf("\nacceptance: identical results, migration bytes strictly below the full "
              "re-plan baseline, each partition's edges read at most once after setup at "
              "full budget: %s\n",
              ok ? "yes" : "NO");

  BenchJson json(opts, "fig31");
  json.Exact("a.baseline.migration_bytes", static_cast<double>(baseline.migration_bytes));
  json.Exact("a.baseline.iterations", static_cast<double>(baseline.iterations));
  for (size_t i = 0; i < incremental.size(); ++i) {
    std::string mkey = "a.hysteresis_" + std::to_string(i + 1);
    json.Exact(mkey + ".migration_bytes",
               static_cast<double>(incremental[i].migration_bytes));
    json.Exact(mkey + ".promotions", static_cast<double>(incremental[i].promotions));
    json.Exact(mkey + ".evictions", static_cast<double>(incremental[i].evictions));
  }
  json.Exact("b.iterations", static_cast<double>(iterations));
  json.Exact("b.edge_device_read_bytes", static_cast<double>(final_reads));
  json.Exact("b.repeat_scan_read_bytes", static_cast<double>(repeat_reads));
  json.Exact("b.update_file_bytes", static_cast<double>(stats.update_file_bytes));
  json.Ratio("b.edge_reads_avoided_bytes",
             static_cast<double>(stats.edge_reads_avoided_bytes));
  json.Ratio("b.pinned_edge_bytes", static_cast<double>(stats.pinned_edge_bytes));
  json.Exact("acceptance", ok ? 1 : 0);
  if (!json.Write()) {
    return 1;
  }
  return ok ? 0 : 1;
}
