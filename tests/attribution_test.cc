// Bottleneck attribution (src/obs/attribution.*) and the sampling CPU
// profiler (src/obs/profiler.*): accountant cell/wall bookkeeping, the
// diagnosis (ranking, I/O-vs-compute verdict, hints, skew index), the
// registry's retired ring, reconciliation of the attribution matrix against
// RunStats across all three engine modes, a deliberately skewed range
// partitioning naming its hot partition, and the profiler capturing
// samples under a spinning workload and alongside IoExecutor threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "obs/attribution.h"
#include "obs/profiler.h"
#include "storage/posix_device.h"
#include "storage/sim_device.h"
#include "util/timer.h"

namespace xstream {
namespace {

using obs::Phase;

EdgeList TestGraph(uint64_t seed = 5) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  return edges;
}

// |a - b| within 5% of the larger, plus an absolute epsilon for sub-ms
// quantities where clock granularity dominates.
::testing::AssertionResult Reconciles(double a, double b) {
  double tol = 0.05 * std::max(a, b) + 1e-3;
  if (std::abs(a - b) <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " vs " << b << " (tol " << tol << ")";
}

// ---- PhaseAccountant bookkeeping -------------------------------------------

TEST(PhaseAccountantTest, CellsWallAndUnattributedLandInTheirColumns) {
  obs::PhaseAccountant acct("unit", 3);
  acct.RecordCell(Phase::kScatter, 1, 0.25);
  acct.RecordWall(Phase::kScatter, 0.5);
  acct.Record(Phase::kGather, 2, 0.125);               // both views at once
  acct.RecordCell(Phase::kShuffle, obs::kNoPartition, 0.0625);  // unattributed
  acct.RecordGatherReadWait(0.03125);

  obs::AttributionSnapshot snap = acct.Snapshot();
  EXPECT_EQ(snap.name, "unit");
  EXPECT_EQ(snap.num_partitions, 3u);
  EXPECT_NEAR(snap.Cell(Phase::kScatter, 1), 0.25, 1e-9);
  EXPECT_NEAR(snap.wall[static_cast<int>(Phase::kScatter)], 0.5, 1e-9);
  EXPECT_NEAR(snap.Cell(Phase::kGather, 2), 0.125, 1e-9);
  EXPECT_NEAR(snap.wall[static_cast<int>(Phase::kGather)], 0.125, 1e-9);
  // kNoPartition never dilutes the per-partition cells.
  EXPECT_NEAR(snap.unattributed[static_cast<int>(Phase::kShuffle)], 0.0625, 1e-9);
  EXPECT_NEAR(snap.CellTotal(Phase::kShuffle), 0.0, 1e-9);
  EXPECT_NEAR(snap.gather_read_wait_seconds, 0.03125, 1e-9);
  EXPECT_NEAR(snap.AccountedSeconds(), 0.625, 1e-9);
  EXPECT_NEAR(snap.PartitionSeconds(2), 0.125, 1e-9);
}

TEST(PhaseAccountantTest, IterationLogRecordsPerIterationDeltas) {
  obs::PhaseAccountant acct("iters", 2);
  acct.BeginIteration(0);
  acct.Record(Phase::kScatter, 0, 0.25);
  acct.EndIteration();
  acct.BeginIteration(1);
  acct.Record(Phase::kScatter, 1, 0.5);
  acct.Record(Phase::kGather, 1, 0.125);
  acct.EndIteration();

  obs::AttributionSnapshot snap = acct.Snapshot();
  EXPECT_EQ(snap.iterations, 2u);
  ASSERT_EQ(snap.per_iteration.size(), 2u);
  EXPECT_NEAR(snap.per_iteration[0][static_cast<int>(Phase::kScatter)], 0.25, 1e-9);
  EXPECT_NEAR(snap.per_iteration[1][static_cast<int>(Phase::kScatter)], 0.5, 1e-9);
  EXPECT_NEAR(snap.per_iteration[1][static_cast<int>(Phase::kGather)], 0.125, 1e-9);

  acct.Reset();
  snap = acct.Snapshot();
  EXPECT_EQ(snap.iterations, 0u);
  EXPECT_NEAR(snap.AccountedSeconds(), 0.0, 1e-12);
  EXPECT_TRUE(snap.per_iteration.empty());
}

// ---- Diagnosis --------------------------------------------------------------

TEST(AttributionDiagnosisTest, SpillDominantRunIsIoBoundWithSpillHint) {
  obs::PhaseAccountant acct("spilly", 4);
  for (uint32_t p = 0; p < 4; ++p) {
    acct.Record(Phase::kSpillWait, p, 0.7);
    acct.Record(Phase::kScatter, p, 0.2);
    acct.Record(Phase::kGather, p, 0.1);
  }
  obs::AttributionDiagnosis diag = acct.Snapshot().Diagnose();
  EXPECT_EQ(diag.bottleneck, Phase::kSpillWait);
  ASSERT_FALSE(diag.ranked.empty());
  EXPECT_EQ(diag.ranked[0].phase, Phase::kSpillWait);
  EXPECT_GT(diag.ranked[0].share, 0.5);
  EXPECT_TRUE(diag.io_bound) << diag.io_bound_ratio;
  bool spill_hint = false;
  for (const std::string& h : diag.hints) {
    spill_hint = spill_hint || h.find("--spill-depth") != std::string::npos;
  }
  EXPECT_TRUE(spill_hint);
  // Balanced cells: no straggler flagged.
  EXPECT_LT(diag.skew_max_mean, 1.5);

  std::string report = obs::ExplainReport(acct.Snapshot());
  EXPECT_NE(report.find("spill_wait"), std::string::npos) << report;
  EXPECT_NE(report.find("I/O-bound"), std::string::npos) << report;
}

bool HasStragglerHint(const obs::AttributionDiagnosis& diag) {
  bool found = false;
  for (const std::string& h : diag.hints) {
    found = found || h.find("--partitions") != std::string::npos;
  }
  return found;
}

// Partitions of unequal size cost nothing while every thread has work: the
// skew index reports them, but only idle threads earn the straggler hint.
TEST(AttributionDiagnosisTest, SkewedCellsWithoutIdleThreadsGiveNoStragglerHint) {
  obs::PhaseAccountant acct("skewed", 4);
  acct.RecordCell(Phase::kScatter, 2, 0.9);
  acct.RecordCell(Phase::kScatter, 0, 0.05);
  acct.RecordCell(Phase::kScatter, 1, 0.05);
  acct.RecordCell(Phase::kScatter, 3, 0.05);
  acct.RecordWall(Phase::kScatter, 0.2625);  // 4 threads x 0.2625 s = the cells
  obs::AttributionDiagnosis diag = acct.Snapshot().Diagnose();
  EXPECT_GE(diag.skew_max_mean, 1.5);
  EXPECT_EQ(diag.straggler_partition, 2u);
  EXPECT_EQ(diag.idle_share[static_cast<int>(Phase::kScatter)], 0.0);
  EXPECT_FALSE(HasStragglerHint(diag)) << obs::ExplainReport(acct.Snapshot());
  for (const std::string& h : diag.hints) {
    EXPECT_EQ(h.find("--partitioner"), std::string::npos) << h;
  }
}

TEST(AttributionDiagnosisTest, IdleThreadsFlagTheStragglerPhaseAndPartition) {
  obs::PhaseAccountant acct("straggling", 4);
  acct.RecordCell(Phase::kScatter, 0, 0.2);
  acct.RecordCell(Phase::kScatter, 1, 0.2);
  acct.RecordCell(Phase::kScatter, 2, 0.2);
  acct.RecordCell(Phase::kScatter, 3, 0.2);
  acct.RecordCell(Phase::kGather, 0, 0.9);
  acct.RecordCell(Phase::kGather, 1, 0.1);
  acct.RecordWall(Phase::kScatter, 0.2);
  acct.RecordWall(Phase::kGather, 0.9);
  // Gather: 4 threads x 0.9 s wall, 1.0 s busy.
  acct.RecordIdle(Phase::kGather, 4 * 0.9 - 1.0);
  obs::AttributionSnapshot snap = acct.Snapshot();
  obs::AttributionDiagnosis diag = snap.Diagnose();
  EXPECT_NEAR(diag.idle_share[static_cast<int>(Phase::kGather)], 2.6 / 3.6, 1e-6);
  EXPECT_EQ(diag.idle_share[static_cast<int>(Phase::kScatter)], 0.0);
  std::vector<std::string> straggler;
  for (const std::string& h : diag.hints) {
    if (h.find("--partitions") != std::string::npos) {
      straggler.push_back(h);
    }
  }
  ASSERT_EQ(straggler.size(), 1u) << obs::ExplainReport(snap);
  EXPECT_EQ(straggler[0].rfind("gather", 0), 0u) << straggler[0];
  EXPECT_NE(straggler[0].find("partition 0"), std::string::npos) << straggler[0];
  EXPECT_EQ(straggler[0].find("--partitioner"), std::string::npos) << straggler[0];
  std::string report = obs::ExplainReport(snap);
  EXPECT_NE(report.find("idle threads: gather 72%"), std::string::npos) << report;
  EXPECT_NE(snap.ToJson().find("\"idle_share\":{\"gather\":"), std::string::npos)
      << snap.ToJson();
}

// The gather hint advises a larger budget so updates stay in RAM; a run
// whose gather read no update file already has them there.
TEST(AttributionDiagnosisTest, GatherHintOnlyWhenGatherReadUpdateFiles) {
  auto memory_budget_hint = [](const obs::AttributionSnapshot& snap) {
    bool found = false;
    for (const std::string& h : snap.Diagnose().hints) {
      found = found || h.find("--memory-budget") != std::string::npos;
    }
    return found;
  };
  obs::PhaseAccountant acct("gathery", 2);
  for (uint32_t p = 0; p < 2; ++p) {
    acct.Record(Phase::kGather, p, 0.6);
    acct.Record(Phase::kScatter, p, 0.4);
  }
  obs::AttributionSnapshot in_ram = acct.Snapshot();
  EXPECT_EQ(in_ram.Diagnose().bottleneck, Phase::kGather);
  EXPECT_EQ(in_ram.gather_reads, 0u);
  EXPECT_FALSE(memory_budget_hint(in_ram)) << obs::ExplainReport(in_ram);

  acct.RecordGatherReadWait(0.0);  // one update file read, with no stall
  obs::AttributionSnapshot read_back = acct.Snapshot();
  EXPECT_EQ(read_back.gather_reads, 1u);
  EXPECT_TRUE(memory_budget_hint(read_back)) << obs::ExplainReport(read_back);
}

TEST(AttributionRegistryTest, RetiredRingKeepsFinishedAccountants) {
  obs::AttributionRegistry& reg = obs::AttributionRegistry::Global();
  reg.ClearRetired();
  {
    obs::PhaseAccountant acct("short-lived", 1);
    acct.Record(Phase::kScatter, 0, 0.25);
  }
  bool found = false;
  for (const obs::AttributionSnapshot& snap : reg.Snapshots()) {
    found = found || snap.name == "short-lived";
  }
  EXPECT_TRUE(found);
  std::string json = reg.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"accountants\""), std::string::npos);
  EXPECT_NE(json.find("\"short-lived\""), std::string::npos);
  EXPECT_NE(json.find("\"diagnosis\""), std::string::npos);
  reg.ClearRetired();
}

// ---- Reconciliation with RunStats, all three engine modes -------------------

TEST(AttributionReconcileTest, OutOfCoreWaitsMatchRunStats) {
  EdgeList edges = TestGraph(11);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig config;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 17;  // force spills and file vertices
  config.io_unit_bytes = 16 * 1024;
  config.num_partitions = 8;
  config.allow_vertex_memory_opt = false;
  config.allow_update_memory_opt = false;
  HybridEngine<PageRankAlgorithm> engine(config, dev, dev, dev, "input", info);
  PageRankResult result = RunPageRank(engine, 3);

  const RunStats& stats = engine.stats();
  obs::AttributionSnapshot snap = engine.driver().accountant().Snapshot();
  EXPECT_EQ(snap.num_partitions, engine.num_partitions());
  EXPECT_EQ(snap.iterations, stats.iterations);
  EXPECT_GT(snap.AccountedSeconds(), 0.0);

  // The store charges the *same* measured wait to RunStats and to the
  // accountant, so these reconcile almost exactly — 5% + eps covers clock
  // rounding only.
  EXPECT_TRUE(Reconciles(snap.wall[static_cast<int>(Phase::kSpillWait)],
                         stats.spill_wait_seconds));
  EXPECT_TRUE(Reconciles(snap.gather_read_wait_seconds, stats.gather_wait_seconds));
  // Partition-sequential shape: every wall second is also a cell second.
  for (int ph = 0; ph < obs::kPhaseCount; ++ph) {
    double cells = snap.CellTotal(static_cast<Phase>(ph)) +
                   snap.unattributed[ph];
    EXPECT_TRUE(Reconciles(cells, snap.wall[ph])) << obs::PhaseName(static_cast<Phase>(ph));
  }
  // The accounted sections live inside the iteration loop.
  EXPECT_LE(snap.AccountedSeconds(), stats.compute_seconds * 1.10 + 0.05);
  EXPECT_GT(result.stats.iterations, 0u);
}

TEST(AttributionReconcileTest, InMemoryAccountsTheIterationLoop) {
  EdgeList edges = TestGraph(7);
  GraphInfo info = ScanEdges(edges);
  InMemoryConfig config;
  config.threads = 2;
  config.cache_bytes = 64 * 1024;
  InMemoryEngine<PageRankAlgorithm> engine(config, edges, info.num_vertices);
  RunPageRank(engine, 3);

  const RunStats& stats = engine.stats();
  obs::AttributionSnapshot snap = engine.driver().accountant().Snapshot();
  EXPECT_GT(snap.AccountedSeconds(), 0.0);
  EXPECT_GT(snap.wall[static_cast<int>(Phase::kScatter)], 0.0);
  EXPECT_GT(snap.wall[static_cast<int>(Phase::kGather)], 0.0);
  // Wall sections are timed once on the driving thread, so their sum can
  // never exceed the iteration loop's wall time (tolerance for clocks).
  EXPECT_LE(snap.AccountedSeconds(), stats.compute_seconds * 1.10 + 0.05);
  // Partition-parallel cells are busy time: with 2 workers they may exceed
  // the wall section, but never 2x it (plus scheduling noise).
  double scatter_cells = snap.CellTotal(Phase::kScatter);
  EXPECT_GT(scatter_cells, 0.0);
  EXPECT_LE(scatter_cells,
            2.0 * snap.wall[static_cast<int>(Phase::kScatter)] + 0.05);
}

TEST(AttributionReconcileTest, HybridWaitsMatchRunStats) {
  EdgeList edges = TestGraph(13);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("d", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig config;
  config.threads = 2;
  config.num_partitions = 8;
  config.io_unit_bytes = 16 * 1024;
  config.memory_budget_bytes = 1 << 20;  // partial residency: some spills remain
  HybridEngine<PageRankAlgorithm> engine(config, dev, dev, dev, "input", info);
  RunPageRank(engine, 3);

  const RunStats& stats = engine.stats();
  obs::AttributionSnapshot snap = engine.driver().accountant().Snapshot();
  EXPECT_GT(snap.AccountedSeconds(), 0.0);
  EXPECT_EQ(snap.iterations, stats.iterations);
  EXPECT_TRUE(Reconciles(snap.wall[static_cast<int>(Phase::kSpillWait)],
                         stats.spill_wait_seconds));
  EXPECT_TRUE(Reconciles(snap.gather_read_wait_seconds, stats.gather_wait_seconds));
  std::string report = obs::ExplainReport(snap);
  EXPECT_NE(report.find("verdict"), std::string::npos) << report;
  EXPECT_NE(report.find(obs::PhaseName(snap.Diagnose().bottleneck)), std::string::npos)
      << report;
}

// ---- Skew index on a deliberately imbalanced range partitioning -------------

TEST(AttributionSkewTest, ImbalancedRangePartitioningNamesTheHotPartition) {
  // Range layout over 256 vertices in 4 partitions puts ids [0,64) in
  // partition 0; concentrate ~98% of the edges there.
  EdgeList edges;
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state >> 33);
  };
  for (int i = 0; i < 60000; ++i) {
    edges.push_back(Edge{next() % 64, next() % 64, 1.0f});
  }
  for (uint32_t p = 1; p < 4; ++p) {
    for (int i = 0; i < 300; ++i) {
      uint32_t base = p * 64;
      edges.push_back(Edge{base + next() % 64, base + next() % 64, 1.0f});
    }
  }
  InMemoryConfig config;
  config.threads = 2;
  config.num_partitions = 4;
  InMemoryEngine<PageRankAlgorithm> engine(config, edges, 256);
  ASSERT_EQ(engine.num_partitions(), 4u);
  RunPageRank(engine, 5);

  // Whether threads sat idle waiting on it depends on the host's
  // scheduling; which partition is heaviest does not.
  obs::AttributionDiagnosis diag = engine.driver().accountant().Snapshot().Diagnose();
  EXPECT_EQ(diag.straggler_partition, 0u);
  for (Phase ph : {Phase::kScatter, Phase::kGather}) {
    EXPECT_GE(diag.idle_share[static_cast<int>(ph)], 0.0) << obs::PhaseName(ph);
    EXPECT_LE(diag.idle_share[static_cast<int>(ph)], 1.0) << obs::PhaseName(ph);
  }
}

// ---- Sampling profiler ------------------------------------------------------

TEST(CpuProfilerTest, CapturesSamplesFromASpinningWorkload) {
  obs::CpuProfiler& prof = obs::CpuProfiler::Global();
  ASSERT_TRUE(prof.Start(250));
  EXPECT_TRUE(prof.running());
  EXPECT_FALSE(prof.Start(250));  // one process-wide capture at a time

  // Burn ~300ms of CPU; ITIMER_PROF fires on consumed CPU time.
  WallTimer timer;
  volatile uint64_t x = 1;
  while (timer.Seconds() < 0.3) {
    for (int i = 0; i < 4096; ++i) {
      x = x * 2862933555777941757ULL + 3037000493ULL;
    }
  }
  prof.Stop();
  EXPECT_FALSE(prof.running());
  EXPECT_GT(prof.sample_count(), 0u);

  std::string folded = prof.FoldedStacks();
  ASSERT_FALSE(folded.empty());
  // "frame;frame;... N" lines, newline-terminated.
  EXPECT_EQ(folded.back(), '\n');
  size_t space = folded.find(' ');
  ASSERT_NE(space, std::string::npos);

  ScratchDir scratch("xstream-prof-test");
  std::string path = scratch.path() + "/prof.folded";
  EXPECT_TRUE(prof.WriteFolded(path));

  prof.Reset();
  EXPECT_EQ(prof.sample_count(), 0u);
  EXPECT_TRUE(prof.FoldedStacks().empty());
}

TEST(CpuProfilerTest, SafeAlongsideIoExecutorThreads) {
  // The TSan/signal-safety leg: SIGPROF lands on arbitrary threads —
  // including the SimDevice's I/O executor — while an out-of-core run is in
  // flight. The run must complete correctly and the profiler must not
  // corrupt anything.
  obs::CpuProfiler& prof = obs::CpuProfiler::Global();
  ASSERT_TRUE(prof.Start(500));

  EdgeList edges = TestGraph(17);
  GraphInfo info = ScanEdges(edges);
  SimDevice dev("p", DeviceProfile::Instant());
  WriteEdgeFile(dev, "input", edges);
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = 2;
  config.streaming_budget_bytes = 1 << 18;
  config.io_unit_bytes = 16 * 1024;
  config.num_partitions = 4;
  HybridEngine<WccAlgorithm> engine(config, dev, dev, dev, "input", info);
  WccResult result = RunWcc(engine);
  prof.Stop();

  EXPECT_EQ(result.labels, ReferenceWcc(edges, info.num_vertices));
  // Dropped samples are tolerated (bounded buffer); corruption is not.
  std::string folded = prof.FoldedStacks();
  if (prof.sample_count() > 0) {
    EXPECT_FALSE(folded.empty());
  }
  prof.Reset();
}

}  // namespace
}  // namespace xstream
