// Fig 32 (extension beyond the paper): the raw-speed pass — io_uring
// storage backend, cache-aware shuffle staging, and delta+varint compressed
// update streams, ablated independently on real files.
//
// The paper's whole bet is that edge-centric streaming turns graph
// processing into a raw sequential-bandwidth problem (§3.3); this bench
// measures the three knobs this repo adds on the raw-speed side of that
// bet, each against its own off-switch on the same out-of-core BFS /
// PageRank runs:
//
//   A. --io-backend: PosixDevice (synchronous pread/pwrite on the I/O
//      thread) vs UringDevice (waves of sliced io_uring SQEs with
//      registered buffers). Results must be identical; wall time is
//      recorded for trending. When the kernel or sandbox rejects
//      io_uring_setup the leg still runs through the loud fallback and the
//      uring_* metrics report 0.
//   B. --stage-bytes: legacy fused counting shuffle vs the cache-sized
//      staging pass, in the setup edge shuffle (spills run no shuffle).
//      Output is byte-identical by construction, so the gate is exact
//      equality of both the results and the routed update volume.
//   C. --compress-updates: raw vs delta+varint update spills on a
//      2ps-relabeled RMAT graph. Routed volume (update_file_bytes) must not
//      change; actual update-device write bytes must shrink — >= 2x on BFS,
//      whose constant-per-wave payloads collapse into const-payload frames.
//
// Unlike the Sim-device figures, this bench runs on real files in scratch
// directories: the transports under test are real syscall paths. Threads
// are pinned to 2 so the shuffle slice boundaries — and with them the exact
// byte metrics — are machine-independent.
#include "bench_common.h"

#include <cmath>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "core/hybrid_engine.h"
#include "core/sizing.h"
#include "obs/metrics.h"
#include "partitioning/partitioner.h"
#include "storage/posix_device.h"
#include "storage/uring_device.h"

namespace xstream {
namespace {

struct LegConfig {
  bool uring = false;
  bool compress = false;
  size_t stage_bytes = 0;
};

struct LegResult {
  double wall = 0;
  uint64_t update_file_bytes = 0;  // routed raw volume (codec-independent)
  uint64_t update_written = 0;     // bytes the update device actually wrote
  std::vector<double> result;      // per-vertex principal output
};

struct BenchInput {
  EdgeList edges;
  GraphInfo info;
  uint32_t partitions = 8;
  size_t io_unit_bytes = 64 << 10;
  uint64_t budget = 4 << 20;
  int threads = 2;  // pinned: slice boundaries feed the exact byte metrics
};

std::unique_ptr<PosixDevice> MakeDevice(bool uring, const std::string& name,
                                        const std::string& root) {
  if (uring) {
    return std::make_unique<UringDevice>(name, root);
  }
  return std::make_unique<PosixDevice>(name, root);
}

// Runs one out-of-core leg on real files; Algo is constructed by `make_algo`
// and its principal output extracted by `extract`.
template <typename Algo, typename MakeAlgo, typename Extract>
LegResult RunLeg(const BenchInput& in, const LegConfig& leg, MakeAlgo make_algo,
                 Extract extract, uint64_t max_iters) {
  ScratchDir edir("fig32-edges"), udir("fig32-updates"), vdir("fig32-vertices");
  auto edge_dev = MakeDevice(leg.uring, "edges", edir.path());
  auto update_dev = MakeDevice(leg.uring, "updates", udir.path());
  auto vertex_dev = MakeDevice(leg.uring, "vertices", vdir.path());
  WriteEdgeFile(*edge_dev, "fig32.input", in.edges);

  // The 2ps relabeling is what gives the delta-varint id column its
  // locality; every leg uses it so the comparison isolates the transport.
  PartitionerOptions popts;
  popts.seed = 1;
  std::unique_ptr<Partitioner> partitioner = MakePartitioner("2ps", popts);

  HybridConfig config;
  config.threads = in.threads;
  config.streaming_budget_bytes = in.budget;
  config.io_unit_bytes = in.io_unit_bytes;
  config.num_partitions = in.partitions;
  // Force the full device path: vertex files on disk, every update spilled.
  config.allow_vertex_memory_opt = false;
  config.allow_update_memory_opt = false;
  config.compress_updates = leg.compress;
  config.stage_bytes = leg.stage_bytes;
  config.partitioner = partitioner.get();
  config.file_prefix = "fig32";

  HybridEngine<Algo> engine(config, *edge_dev, *update_dev, *vertex_dev, "fig32.input",
                            in.info);
  Algo algo = make_algo();
  WallTimer timer;
  RunStats stats = engine.Run(algo, max_iters);
  LegResult out;
  out.wall = timer.Seconds();
  out.update_file_bytes = stats.update_file_bytes;
  out.update_written = update_dev->stats().bytes_written;
  out.result.resize(in.info.num_vertices);
  engine.VertexMap([&out, &extract](VertexId v, const typename Algo::VertexState& s) {
    out.result[v] = extract(s);
  });
  return out;
}

LegResult RunBfsLeg(const BenchInput& in, const LegConfig& leg) {
  return RunLeg<BfsAlgorithm>(
      in, leg, [] { return BfsAlgorithm(0); },
      [](const BfsAlgorithm::VertexState& s) { return static_cast<double>(s.level); },
      UINT64_MAX);
}

LegResult RunPageRankLeg(const BenchInput& in, const LegConfig& leg) {
  const uint64_t iters = 5;
  return RunLeg<PageRankAlgorithm>(
      in, leg, [&in] { return PageRankAlgorithm(in.info.num_vertices, iters); },
      [](const PageRankAlgorithm::VertexState& s) { return static_cast<double>(s.rank); },
      iters);
}

bool CloseEnough(const std::vector<double>& a, const std::vector<double>& b, double tol) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol * std::max(1.0, std::abs(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 32",
              "Raw-speed pass: io_uring backend, cache-sized shuffle staging, "
              "compressed update streams",
              "each pillar is result-invariant against its off-switch; staging leaves the "
              "routed update volume bit-identical; delta+varint compression writes >= 2x "
              "fewer update-device bytes on relabeled BFS");

  bool smoke = opts.GetBool("smoke", false);
  BenchInput in;
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", smoke ? 12 : 16));
  uint32_t edge_factor = static_cast<uint32_t>(opts.GetUint("edge-factor", smoke ? 8 : 16));
  in.edges = MakeRmat(scale, edge_factor, true, opts.GetUint("seed", 1));
  in.info = ScanEdges(in.edges);
  in.partitions = static_cast<uint32_t>(opts.GetUint("partitions", 8));
  in.io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", smoke ? 32 : 64)) << 10;
  in.budget = opts.GetUint("budget-mb", smoke ? 2 : 4) << 20;
  std::printf("rmat scale %u (%s vertices, %s edge records), %u partitions, 2ps "
              "relabeling, %d threads (pinned), real files in scratch dirs\n\n",
              scale, HumanCount(in.info.num_vertices).c_str(),
              HumanCount(in.info.num_edges).c_str(), in.partitions, in.threads);

  BenchJson json(opts, "fig32_raw_speed");
  bool ok = true;
  Table table({"Leg", "Wall", "Update MB routed", "Update MB written", "Notes"});
  auto add_row = [&table](const std::string& leg, const LegResult& r, const std::string& note) {
    table.AddRow({leg, HumanDuration(r.wall),
                  FormatDouble(static_cast<double>(r.update_file_bytes) / (1 << 20), 2),
                  FormatDouble(static_cast<double>(r.update_written) / (1 << 20), 2), note});
  };

  // ---- A: storage backend ------------------------------------------------
  const bool uring_available = UringDevice::Supported();
  std::printf("part A: posix vs uring backend (io_uring %s)\n",
              uring_available ? "available" : "unavailable: loud-fallback leg");
  LegResult posix_bfs = RunBfsLeg(in, LegConfig{});
  LegConfig uring_leg;
  uring_leg.uring = true;
  LegResult uring_bfs = RunBfsLeg(in, uring_leg);
  add_row("bfs / posix", posix_bfs, "baseline");
  add_row("bfs / uring", uring_bfs, uring_available ? "io_uring waves" : "fallback (no ring)");

  bool backend_equal = posix_bfs.result == uring_bfs.result;
  if (!backend_equal) {
    std::printf("FAIL: uring backend changed the BFS levels\n");
    ok = false;
  }
  json.Exact("backend_results_equal", backend_equal ? 1 : 0);
  json.Info("uring_available", uring_available ? 1 : 0);
  json.Info("posix_bfs_wall_seconds", posix_bfs.wall);
  json.Info("uring_bfs_wall_seconds", uring_bfs.wall);
  // Always emitted (0 when the ring is unavailable) so the baseline metric
  // set is machine-independent: bench_diff fails on vanished metrics.
  auto& reg = obs::MetricsRegistry::Global();
  json.Info("uring_sqes", static_cast<double>(reg.counter("io.uring.sqes").Value()));
  json.Info("uring_bytes", static_cast<double>(reg.counter("io.uring.bytes").Value()));
  json.Info("uring_fallback_ops",
            static_cast<double>(reg.counter("io.uring.fallback_ops").Value()));

  // ---- B: cache-sized shuffle staging ------------------------------------
  std::printf("\npart B: setup edge shuffle, legacy fused counting vs cache-sized "
              "staging (auto stage bytes = %s)\n",
              HumanBytes(DefaultShuffleStageBytes()).c_str());
  LegConfig staged_leg;
  staged_leg.stage_bytes = DefaultShuffleStageBytes();
  LegResult unstaged = posix_bfs;  // the part-A posix leg is the stage_bytes=0 run
  LegResult staged = RunBfsLeg(in, staged_leg);
  add_row("bfs / staged shuffle", staged, "write-combining staging");

  bool staging_equal =
      staged.result == unstaged.result && staged.update_file_bytes == unstaged.update_file_bytes;
  if (!staging_equal) {
    std::printf("FAIL: staged shuffle changed the results or the routed update volume\n");
    ok = false;
  }
  json.Exact("staging_results_equal", staging_equal ? 1 : 0);
  json.Info("staged_bfs_wall_seconds", staged.wall);
  json.Info("staged_records",
            static_cast<double>(reg.counter("shuffle.staged_records").Value()));

  // ---- C: compressed update streams --------------------------------------
  std::printf("\npart C: raw vs delta+varint compressed update spills\n");
  LegConfig compress_leg;
  compress_leg.compress = true;
  LegResult bfs_packed = RunBfsLeg(in, compress_leg);
  LegResult pr_plain = RunPageRankLeg(in, LegConfig{});
  LegResult pr_packed = RunPageRankLeg(in, compress_leg);
  add_row("bfs / compressed", bfs_packed, "const-payload frames");
  add_row("pagerank / raw", pr_plain, "baseline");
  add_row("pagerank / compressed", pr_packed, "varied payloads");
  table.Print();

  bool bfs_equal = bfs_packed.result == posix_bfs.result;
  if (!bfs_equal) {
    std::printf("FAIL: compression changed the BFS levels\n");
    ok = false;
  }
  if (bfs_packed.update_file_bytes != posix_bfs.update_file_bytes) {
    std::printf("FAIL: compression changed the routed update volume accounting\n");
    ok = false;
  }
  bool pr_close = CloseEnough(pr_packed.result, pr_plain.result, 1e-9);
  if (!pr_close) {
    std::printf("FAIL: compression changed the PageRank ranks\n");
    ok = false;
  }
  double bfs_ratio = bfs_packed.update_written > 0
                         ? static_cast<double>(posix_bfs.update_written) /
                               static_cast<double>(bfs_packed.update_written)
                         : 0.0;
  double pr_ratio = pr_packed.update_written > 0
                        ? static_cast<double>(pr_plain.update_written) /
                              static_cast<double>(pr_packed.update_written)
                        : 0.0;
  std::printf("\nupdate-device write reduction: bfs %.2fx, pagerank %.2fx\n", bfs_ratio,
              pr_ratio);
  if (bfs_ratio < 2.0) {
    std::printf("FAIL: bfs compression ratio %.2fx below the 2x bar\n", bfs_ratio);
    ok = false;
  }
  if (pr_ratio <= 1.0) {
    std::printf("FAIL: pagerank compression did not shrink update writes\n");
    ok = false;
  }
  json.Exact("bfs_results_equal", bfs_equal ? 1 : 0);
  json.Exact("pagerank_results_close", pr_close ? 1 : 0);
  json.Exact("bfs_compress_ge_2x", bfs_ratio >= 2.0 ? 1 : 0);
  json.Ratio("bfs_update_write_ratio", bfs_ratio);
  json.Ratio("pagerank_update_write_ratio", pr_ratio);
  json.Info("update_file_mb", static_cast<double>(posix_bfs.update_file_bytes) / (1 << 20));

  if (!json.Write()) {
    std::printf("FAIL: could not write --json output\n");
    ok = false;
  }
  std::printf("\n%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
