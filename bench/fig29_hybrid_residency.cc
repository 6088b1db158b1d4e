// Fig 29 (extension beyond the paper): the hybrid engine's residency sweep.
//
// X-Stream offers an in-memory fast path and an out-of-core slow path with
// nothing in between; the hybrid engine (core/hybrid_engine.h) interpolates
// by pinning the residency planner's choice of partitions in RAM under
// `--memory-budget`. Sweeping the budget from 0 to the full pin cost should
// trace a monotone (within noise) runtime curve from out-of-core speed to
// memory speed: at budget 0 the engine *is* the out-of-core device path
// (results bit-for-bit identical), at full budget vertex and update traffic
// never touch the devices and only the edge stream remains, and every
// intermediate budget reports avoided_spill_bytes > 0.
//
// Devices: three independent WallClockSimDevices (SSD model spent in wall
// time, as in fig28) so avoided device traffic shows up as wall-clock
// improvement on any host. Vertex states stay in files at every budget —
// residency is the planner's job here, not the §3.2 shortcut's — so the
// budget-0 point is the out-of-core baseline the other budgets are timed
// against.
//
// Algorithm: WCC to convergence — its fixpoint is order-independent, so
// results must be bit-for-bit identical across every budget and the
// in-memory engine.
#include "bench_common.h"

#include "algorithms/wcc.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/transforms.h"

namespace xstream {
namespace {

struct SweepPoint {
  std::string label;
  uint64_t budget = 0;
  double wall_seconds = 0.0;
  uint64_t resident_partitions = 0;
  uint64_t avoided_mb = 0;
  uint64_t update_file_mb = 0;
  std::vector<VertexId> labels;
  uint64_t num_components = 0;
};

struct BenchSetup {
  EdgeList edges;
  GraphInfo info;
  int threads = 0;
  uint32_t partitions = 8;
  size_t io_unit_bytes = 0;
  int reps = 1;
};

SweepPoint RunHybridAt(const BenchSetup& s, uint64_t budget, const std::string& label) {
  SweepPoint point;
  point.label = label;
  point.budget = budget;
  point.wall_seconds = 1e100;
  for (int rep = 0; rep < s.reps; ++rep) {
    WallClockSimDevice edge_dev("edges", DeviceProfile::Ssd());
    WallClockSimDevice update_dev("updates", DeviceProfile::Ssd());
    WallClockSimDevice vertex_dev("vertices", DeviceProfile::Ssd());
    WriteEdgeFile(edge_dev, "fig29.input", s.edges);
    HybridConfig config;
    config.threads = s.threads;
    config.io_unit_bytes = s.io_unit_bytes;
    config.num_partitions = s.partitions;
    config.memory_budget_bytes = budget;
    config.file_prefix = "fig29";
    HybridEngine<WccAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                      "fig29.input", s.info);
    WallTimer timer;
    WccResult r = RunWcc(engine);
    double wall = timer.Seconds();
    if (wall < point.wall_seconds) {
      point.wall_seconds = wall;
      point.resident_partitions = r.stats.resident_partition_count;
      point.avoided_mb = r.stats.avoided_spill_bytes >> 20;
      point.update_file_mb = r.stats.update_file_bytes >> 20;
    }
    point.labels = std::move(r.labels);
    point.num_components = r.num_components;
  }
  return point;
}

SweepPoint RunInMemory(const BenchSetup& s) {
  SweepPoint point;
  point.label = "in-memory";
  point.wall_seconds = 1e100;
  for (int rep = 0; rep < s.reps; ++rep) {
    InMemoryConfig config;
    config.threads = s.threads;
    InMemoryEngine<WccAlgorithm> engine(config, s.edges, s.info.num_vertices);
    WallTimer timer;
    WccResult r = RunWcc(engine);
    point.wall_seconds = std::min(point.wall_seconds, timer.Seconds());
    point.labels = std::move(r.labels);
    point.num_components = r.num_components;
  }
  return point;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 29", "Hybrid engine: runtime vs residency budget (SSD model in wall time)",
              "runtime falls monotonically (within noise) as the pin budget grows "
              "from 0 (= out-of-core) to the full graph, identical results throughout");

  bool smoke = opts.GetBool("smoke", false);
  BenchSetup s;
  s.threads = static_cast<int>(opts.GetInt("threads", NumCores()));
  s.partitions = static_cast<uint32_t>(opts.GetUint("partitions", 8));
  s.io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", smoke ? 16 : 64)) << 10;
  // Best-of-2 even in smoke mode: the monotonicity check gates CI, and one
  // oversleep on a loaded shared runner must not turn the build red.
  s.reps = static_cast<int>(opts.GetInt("reps", 2));
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", smoke ? 12 : 16));
  uint64_t seed = opts.GetUint("seed", 1);

  s.edges = MakeRmat(scale, 16, true, seed + 1);
  s.info = ScanEdges(s.edges);
  s.edges = PermuteVertexIds(s.edges, s.info.num_vertices, seed + 2);
  std::printf("rmat scale %u: %s vertices, %s edge records, %u partitions\n\n", scale,
              HumanCount(s.info.num_vertices).c_str(), HumanCount(s.info.num_edges).c_str(),
              s.partitions);

  // The budget at which everything pins, from a probe engine over the same
  // input (planner inputs depend on the setup pass's per-partition tallies).
  uint64_t full_pin = 0;
  {
    WallClockSimDevice dev("probe", DeviceProfile::Instant());
    WriteEdgeFile(dev, "fig29.input", s.edges);
    HybridConfig config;
    config.threads = s.threads;
    config.io_unit_bytes = s.io_unit_bytes;
    config.num_partitions = s.partitions;
    config.memory_budget_bytes = 0;
    config.file_prefix = "fig29";
    HybridEngine<WccAlgorithm> probe(config, dev, dev, dev, "fig29.input", s.info);
    full_pin = probe.FullPinBytes();
  }

  std::vector<int> percents = smoke ? std::vector<int>{0, 50, 100}
                                    : std::vector<int>{0, 25, 50, 75, 100};
  std::vector<SweepPoint> sweep;
  for (int pct : percents) {
    uint64_t budget = full_pin * pct / 100;
    sweep.push_back(RunHybridAt(s, budget, "hybrid " + std::to_string(pct) + "%"));
  }
  const SweepPoint& ooc = sweep.front();  // pin budget 0: the paper's §3 engine
  SweepPoint mem = RunInMemory(s);

  Table table({"Engine / budget", "Budget MB", "Resident", "Update MB", "Avoided MB",
               "Wall (s)", "vs OOC"});
  auto add_row = [&table, &ooc](const SweepPoint& p) {
    table.AddRow({p.label, FormatDouble(static_cast<double>(p.budget) / (1 << 20), 1),
                  std::to_string(p.resident_partitions), std::to_string(p.update_file_mb),
                  std::to_string(p.avoided_mb), FormatDouble(p.wall_seconds, 3),
                  FormatDouble(ooc.wall_seconds / p.wall_seconds, 2) + "x"});
  };
  for (const SweepPoint& p : sweep) {
    add_row(p);
  }
  add_row(mem);
  table.Print();

  bool ok = true;
  for (const SweepPoint& p : sweep) {
    if (p.labels != ooc.labels || p.labels != mem.labels ||
        p.num_components != ooc.num_components) {
      std::printf("FAIL: %s results diverge from the baselines\n", p.label.c_str());
      ok = false;
    }
  }
  for (size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].resident_partitions > 0 && sweep[i].avoided_mb == 0 &&
        sweep[i].budget > 0) {
      std::printf("FAIL: %s pinned partitions but avoided no device traffic\n",
                  sweep[i].label.c_str());
      ok = false;
    }
    // Monotone within noise: growing the budget must not cost runtime.
    if (sweep[i].wall_seconds > sweep[i - 1].wall_seconds * 1.15) {
      std::printf("FAIL: runtime rose from %s (%.3fs) to %s (%.3fs)\n",
                  sweep[i - 1].label.c_str(), sweep[i - 1].wall_seconds,
                  sweep[i].label.c_str(), sweep[i].wall_seconds);
      ok = false;
    }
  }
  if (!sweep.empty() && sweep.back().update_file_mb != 0) {
    std::printf("FAIL: full budget still wrote update files\n");
    ok = false;
  }
  bool intermediate_avoids = sweep.size() < 3;
  for (size_t i = 1; i + 1 < sweep.size(); ++i) {
    intermediate_avoids = intermediate_avoids || sweep[i].avoided_mb > 0;
  }
  if (!intermediate_avoids) {
    std::printf("FAIL: no intermediate budget avoided any device traffic\n");
    ok = false;
  }
  std::printf("\nacceptance: identical results, avoided traffic at intermediate budgets, "
              "monotone runtime: %s\n", ok ? "yes" : "NO");

  BenchJson json(opts, "fig29");
  json.Exact("num_components", static_cast<double>(ooc.num_components));
  json.Exact("ooc.update_file_mb", static_cast<double>(ooc.update_file_mb));
  json.Info("ooc.wall_seconds", ooc.wall_seconds);
  json.Info("in_memory.wall_seconds", mem.wall_seconds);
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::string mkey = "hybrid_" + std::to_string(percents[i]);
    json.Exact(mkey + ".resident_partitions",
               static_cast<double>(sweep[i].resident_partitions));
    json.Exact(mkey + ".update_file_mb", static_cast<double>(sweep[i].update_file_mb));
    json.Ratio(mkey + ".avoided_mb", static_cast<double>(sweep[i].avoided_mb));
    json.Info(mkey + ".wall_seconds", sweep[i].wall_seconds);
  }
  json.Exact("acceptance", ok ? 1 : 0);
  if (!json.Write()) {
    return 1;
  }
  return ok ? 0 : 1;
}
