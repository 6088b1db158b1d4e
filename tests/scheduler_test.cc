// The multi-job scheduler (src/scheduler/): shared edge scans across
// concurrent jobs, partition-boundary admission and cancellation, budget
// re-splits, and cross-thread Submit/Poll/Wait/Cancel (the randomized stress
// test doubles as the ThreadSanitizer target in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/hyperanf.h"
#include "algorithms/pagerank.h"
#include "algorithms/scc.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "scheduler/algo_jobs.h"
#include "scheduler/scan_source.h"
#include "scheduler/scheduler.h"
#include "storage/sim_device.h"
#include "util/env.h"

namespace xstream {
namespace {

EdgeList TestGraph(uint64_t seed, uint32_t scale = 9) {
  RmatParams params;
  params.scale = scale;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = seed;
  EdgeList edges = GenerateRmat(params);
  PermuteEdges(edges, seed + 1);
  return edges;
}

// A scheduler over a device scan source on simulated disks, plus the
// reference oracles for the test graph.
struct DeviceHarness {
  explicit DeviceHarness(const EdgeList& graph_edges, uint32_t partitions = 4,
                         int threads = NumCores(), bool keep_edge_weights = true,
                         size_t io_unit_bytes = 16 * 1024)
      : pool(threads),
        edges(graph_edges),
        info(ScanEdges(edges)),
        layout(info.num_vertices, partitions),
        edge_dev("edges", DeviceProfile::Instant()),
        update_dev("updates", DeviceProfile::Instant()),
        vertex_dev("vertices", DeviceProfile::Instant()) {
    WriteEdgeFile(edge_dev, "input", edges);
    DeviceScanSource::Options sopts;
    sopts.io_unit_bytes = io_unit_bytes;
    sopts.keep_edge_weights = keep_edge_weights;
    source = std::make_unique<DeviceScanSource>(pool, layout, sopts, edge_dev, "input");
  }

  DeviceJobConfig SpillHeavyConfig() const {
    DeviceJobConfig cfg;
    cfg.io_unit_bytes = 16 * 1024;
    // Tiny budget + disabled memory optimizations: vertex files, update
    // spills and multi-chunk gathers all get exercised.
    cfg.allow_vertex_memory_opt = false;
    cfg.allow_update_memory_opt = false;
    return cfg;
  }

  std::shared_ptr<JobOutput> Submit(JobScheduler& sched, const std::string& spec,
                                    const DeviceJobConfig& cfg, std::vector<JobId>* ids) {
    auto out = std::make_shared<JobOutput>();
    JobId id = sched.Submit(MakeDeviceJob(ParseJobSpec(spec), *source, update_dev, vertex_dev,
                                          cfg, "job" + std::to_string(next_prefix_++), out));
    if (ids != nullptr) {
      ids->push_back(id);
    }
    return out;
  }

  ThreadPool pool;
  EdgeList edges;
  GraphInfo info;
  PartitionLayout layout;
  SimDevice edge_dev;
  SimDevice update_dev;
  SimDevice vertex_dev;
  std::unique_ptr<DeviceScanSource> source;
  int next_prefix_ = 0;
};

void ExpectWccMatches(const JobOutput& out, const EdgeList& edges, uint64_t n) {
  std::vector<VertexId> expected = ReferenceWcc(edges, n);
  ASSERT_EQ(out.per_vertex.size(), n);
  for (uint64_t v = 0; v < n; ++v) {
    EXPECT_EQ(out.per_vertex[v], static_cast<double>(expected[v])) << "vertex " << v;
  }
}

void ExpectBfsMatches(const JobOutput& out, const ReferenceGraph& g, VertexId root) {
  std::vector<uint32_t> expected = ReferenceBfsLevels(g, root);
  ASSERT_EQ(out.per_vertex.size(), expected.size());
  for (uint64_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(out.per_vertex[v], static_cast<double>(expected[v])) << "vertex " << v;
  }
}

TEST(SchedulerTest, DeviceJobsMatchReferences) {
  EdgeList edges = TestGraph(7);
  DeviceHarness h(edges);
  ReferenceGraph g(edges, h.info.num_vertices);

  JobScheduler sched(*h.source);
  std::vector<JobId> ids;
  auto wcc = h.Submit(sched, "wcc", h.SpillHeavyConfig(), &ids);
  auto bfs = h.Submit(sched, "bfs:src=0", h.SpillHeavyConfig(), &ids);
  auto pagerank = h.Submit(sched, "pagerank:iters=5", h.SpillHeavyConfig(), &ids);
  auto sssp = h.Submit(sched, "sssp:src=0", h.SpillHeavyConfig(), &ids);
  sched.RunAll();

  for (JobId id : ids) {
    EXPECT_EQ(sched.Poll(id), JobState::kDone);
  }
  ExpectWccMatches(*wcc, edges, h.info.num_vertices);
  ExpectBfsMatches(*bfs, g, 0);
  std::vector<double> pr = ReferencePageRank(g, 5);
  for (uint64_t v = 0; v < h.info.num_vertices; ++v) {
    EXPECT_NEAR(pagerank->per_vertex[v], pr[v], 1e-4) << "vertex " << v;
  }
  std::vector<double> dist = ReferenceSssp(g, 0);
  for (uint64_t v = 0; v < h.info.num_vertices; ++v) {
    if (std::isfinite(dist[v])) {
      EXPECT_NEAR(sssp->per_vertex[v], dist[v], 1e-3) << "vertex " << v;
    } else {
      EXPECT_FALSE(std::isfinite(sssp->per_vertex[v])) << "vertex " << v;
    }
  }

  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.jobs_submitted, 4u);
  EXPECT_EQ(stats.jobs_completed, 4u);
  EXPECT_GT(stats.scans_saved, 0u);
  EXPECT_GT(stats.shared_scan_bytes, 0u);
  // Per-job stats flowed through: each job streamed edges and has run time.
  EXPECT_GT(wcc->stats.edges_streamed, 0u);
  EXPECT_GT(sched.report(ids[0]).run_seconds, 0.0);
}

// Jobs sharing one scan see the same chunks, and device scatter splits
// each chunk among the threads statically, so two identical PageRank jobs
// sum every vertex's contributions in the same order. The 64 KB I/O unit
// gives chunks of 5461 edges, large enough to be split among the threads.
TEST(SchedulerTest, IdenticalDevicePageRankJobsAgreeBitForBit) {
  EdgeList edges = TestGraph(29, 12);
  DeviceHarness h(edges, /*partitions=*/8, /*threads=*/4, /*keep_edge_weights=*/true,
                  /*io_unit_bytes=*/64 * 1024);
  DeviceJobConfig cfg = h.SpillHeavyConfig();
  cfg.io_unit_bytes = 64 * 1024;
  JobScheduler sched(*h.source);
  std::vector<JobId> ids;
  auto a = h.Submit(sched, "pagerank:iters=5", cfg, &ids);
  auto b = h.Submit(sched, "pagerank:iters=5", cfg, &ids);
  sched.RunAll();
  for (JobId id : ids) {
    ASSERT_EQ(sched.Poll(id), JobState::kDone);
  }
  ASSERT_EQ(a->per_vertex.size(), h.info.num_vertices);
  ASSERT_EQ(b->per_vertex.size(), a->per_vertex.size());
  EXPECT_GT(a->stats.update_file_bytes, 0u);
  EXPECT_EQ(std::memcmp(a->per_vertex.data(), b->per_vertex.data(),
                        a->per_vertex.size() * sizeof(double)),
            0);
}

TEST(SchedulerTest, MemoryJobsMatchReferences) {
  EdgeList edges = TestGraph(11);
  GraphInfo info = ScanEdges(edges);
  ReferenceGraph g(edges, info.num_vertices);
  ThreadPool pool(NumCores());
  PartitionLayout layout(info.num_vertices, 8);
  MemoryScanSource source(pool, layout, edges);

  JobScheduler sched(source);
  auto wcc = std::make_shared<JobOutput>();
  auto bfs = std::make_shared<JobOutput>();
  JobId wcc_id = sched.Submit(MakeMemoryJob(ParseJobSpec("wcc"), source, wcc));
  JobId bfs_id = sched.Submit(MakeMemoryJob(ParseJobSpec("bfs:src=3"), source, bfs));
  EXPECT_TRUE(sched.Wait(wcc_id));
  EXPECT_TRUE(sched.Wait(bfs_id));

  ExpectWccMatches(*wcc, edges, info.num_vertices);
  ExpectBfsMatches(*bfs, g, 3);
  EXPECT_GT(sched.stats().scans_saved, 0u);
}

TEST(SchedulerTest, SharedScanKeepsEdgeReadsFlat) {
  EdgeList edges = TestGraph(13);

  // One job alone, then four identical jobs: WCC's round count is fixed by
  // the graph, so a shared scan must read ~the same edge volume either way.
  uint64_t solo_bytes = 0;
  {
    DeviceHarness h(edges);
    JobScheduler sched(*h.source);
    h.Submit(sched, "wcc", h.SpillHeavyConfig(), nullptr);
    sched.RunAll();
    solo_bytes = h.edge_dev.stats().bytes_read;
  }
  {
    DeviceHarness h(edges);
    JobScheduler sched(*h.source);
    std::vector<std::shared_ptr<JobOutput>> outs;
    for (int i = 0; i < 4; ++i) {
      outs.push_back(h.Submit(sched, "wcc", h.SpillHeavyConfig(), nullptr));
    }
    sched.RunAll();
    uint64_t shared_bytes = h.edge_dev.stats().bytes_read;
    EXPECT_LE(shared_bytes, solo_bytes + solo_bytes / 4)
        << "4 concurrent jobs should share scans, not quadruple them";
    EXPECT_EQ(sched.stats().jobs_completed, 4u);
    EXPECT_GT(sched.stats().scans_saved, 0u);
    for (const auto& out : outs) {
      ExpectWccMatches(*out, edges, h.info.num_vertices);
    }
  }
}

TEST(SchedulerTest, LateAdmissionJoinsAtNextPartitionBoundary) {
  EdgeList edges = TestGraph(17);
  DeviceHarness h(edges);
  ReferenceGraph g(edges, h.info.num_vertices);

  JobScheduler sched(*h.source);
  std::vector<JobId> ids;
  auto wcc = h.Submit(sched, "wcc", h.SpillHeavyConfig(), &ids);
  // Drive the first job mid-round, then submit a second: it must join at
  // the next partition boundary (not a global round start) and still be
  // correct after its own full cycles.
  ASSERT_TRUE(sched.PumpOne());
  ASSERT_TRUE(sched.PumpOne());
  ASSERT_TRUE(sched.PumpOne());
  auto bfs = h.Submit(sched, "bfs:src=1", h.SpillHeavyConfig(), &ids);
  EXPECT_EQ(sched.Poll(ids[1]), JobState::kQueued);
  sched.RunAll();

  EXPECT_EQ(sched.Poll(ids[0]), JobState::kDone);
  EXPECT_EQ(sched.Poll(ids[1]), JobState::kDone);
  ExpectWccMatches(*wcc, edges, h.info.num_vertices);
  ExpectBfsMatches(*bfs, g, 1);
  EXPECT_GE(sched.report(ids[1]).rounds, 1u);
  EXPECT_GT(sched.stats().scans_saved, 0u);  // the two jobs overlapped
}

// ---- Selective scheduling in shared scans ----------------------------------

// The same algorithm with its Active hook hidden: such a job wants every
// partition every round, as all jobs did before selective scheduling.
template <typename Algo>
struct HideActive : Algo {
  using Algo::Algo;
  void Active() const = delete;
};

// Each vertex's algorithm state as bytes, field by field (never padding).
template <typename... F>
std::string Fields(const F&... f) {
  std::string out;
  (out.append(reinterpret_cast<const char*>(&f), sizeof(f)), ...);
  return out;
}
std::string Key(const WccAlgorithm::VertexState& s) { return Fields(s.label, s.active); }
std::string Key(const BfsAlgorithm::VertexState& s) { return Fields(s.level, s.active); }
std::string Key(const SsspAlgorithm::VertexState& s) { return Fields(s.dist, s.active); }
std::string Key(const SccAlgorithm::VertexState& s) {
  return Fields(s.color, s.scc, s.active);
}
std::string Key(const HyperAnfAlgorithm::VertexState& s) { return Fields(s.regs, s.active); }

struct KeyedOutput {
  std::vector<std::string> keys;  // by original vertex id
  RunStats stats;
};

// A job of Algo attached to the harness's device scan source, with its
// vertices in files and its updates spilled, delivering per-vertex Keys.
template <typename Algo>
std::unique_ptr<ScheduledJob> MakeKeyedJob(DeviceHarness& h, const std::string& name, Algo algo,
                                           std::shared_ptr<KeyedOutput> out) {
  using Store = DeviceStreamStore<Algo>;
  using Driver = StreamingPhaseDriver<Algo, Store>;
  DeviceStoreOptions opts;
  opts.io_unit_bytes = 16 * 1024;
  opts.allow_vertex_memory_opt = false;
  opts.allow_update_memory_opt = false;
  opts.file_prefix = name;
  h.source->ConfigureAttachedStore(opts);
  auto store = std::make_unique<Store>(h.pool, h.layout, opts, h.edge_dev, h.update_dev,
                                       h.vertex_dev, std::string());
  PhaseDriverOptions dopts;
  dopts.progress_prefix = "job." + name;
  return std::make_unique<TypedJob<Algo, Store>>(
      name, std::move(algo), std::move(store), dopts, UINT64_MAX,
      [out](Driver& driver, Algo&) {
        out->stats = driver.stats();
        out->keys.assign(driver.layout().num_vertices(), std::string());
        driver.VertexMap([&out](VertexId v, typename Algo::VertexState& s) {
          out->keys[v] = Key(s);
        });
      });
}

TEST(SchedulerTest, SelectiveScansMatchFullScansBesidePageRank) {
  EdgeList edges = TestGraph(19);
  DeviceHarness h(edges);
  JobScheduler sched(*h.source);
  auto pagerank = h.Submit(sched, "pagerank:iters=5", h.SpillHeavyConfig(), nullptr);
  struct Pair {
    std::string name;
    std::shared_ptr<KeyedOutput> with = std::make_shared<KeyedOutput>();
    std::shared_ptr<KeyedOutput> without = std::make_shared<KeyedOutput>();
  };
  std::vector<Pair> pairs;
  auto submit = [&](const std::string& name, auto algo, auto hidden) {
    Pair p{name};
    sched.Submit(MakeKeyedJob(h, name, std::move(algo), p.with));
    sched.Submit(MakeKeyedJob(h, name + "-full", std::move(hidden), p.without));
    pairs.push_back(std::move(p));
  };
  submit("wcc", WccAlgorithm{}, HideActive<WccAlgorithm>{});
  submit("bfs", BfsAlgorithm(0), HideActive<BfsAlgorithm>(0));
  submit("sssp", SsspAlgorithm(0), HideActive<SsspAlgorithm>(0));
  submit("scc", SccAlgorithm{}, HideActive<SccAlgorithm>{});
  submit("hyperanf", HyperAnfAlgorithm(), HideActive<HyperAnfAlgorithm>());
  sched.RunAll();
  EXPECT_EQ(sched.stats().jobs_completed, 11u);

  for (const Pair& p : pairs) {
    SCOPED_TRACE(p.name);
    ASSERT_EQ(p.with->keys.size(), h.info.num_vertices);
    EXPECT_TRUE(p.with->keys == p.without->keys);
    EXPECT_EQ(p.with->stats.iterations, p.without->stats.iterations);
    EXPECT_LE(p.with->stats.edges_streamed, p.without->stats.edges_streamed);
    EXPECT_EQ(p.without->stats.edges_streamed, edges.size() * p.without->stats.iterations);
  }
  EXPECT_LT(pairs[0].with->stats.edges_streamed, pairs[0].without->stats.edges_streamed)
      << "WCC's converged partitions must drop out of the shared scans";
  EXPECT_EQ(pagerank->stats.edges_streamed, edges.size() * pagerank->stats.iterations);
}

// ---- Scan sources without edge weights ---------------------------------------

TEST(SchedulerTest, SourceWithoutWeightsServesWeightFreeJobsAtEightBytesPerEdge) {
  EdgeList edges = TestGraph(29);
  for (uint64_t i = 0; i < edges.size(); ++i) {
    edges[i].weight = static_cast<float>(i % 997) / 997.0f;  // a pair reads as 0
  }
  const std::vector<std::string> specs = {"wcc", "bfs:src=0", "pagerank:iters=4"};
  std::vector<JobSpec> parsed;
  for (const std::string& spec : specs) {
    parsed.push_back(ParseJobSpec(spec));
  }
  ASSERT_FALSE(JobsReadEdgeWeights(parsed));
  parsed.push_back(ParseJobSpec("sssp:src=0"));
  EXPECT_TRUE(JobsReadEdgeWeights(parsed));

  // One thread, so each job's spills, and so its results, are deterministic.
  struct Run {
    std::vector<std::shared_ptr<JobOutput>> outs;
    uint64_t scan_bytes = 0;  // edge-device reads after the setup pass
    SchedulerStats stats;
  };
  auto run = [&](DeviceHarness& h) {
    Run r;
    const uint64_t setup_reads = h.edge_dev.stats().bytes_read;
    JobScheduler sched(*h.source);
    for (const std::string& spec : specs) {
      r.outs.push_back(h.Submit(sched, spec, h.SpillHeavyConfig(), nullptr));
    }
    sched.RunAll();
    r.scan_bytes = h.edge_dev.stats().bytes_read - setup_reads;
    r.stats = sched.stats();
    return r;
  };
  DeviceHarness narrow(edges, 4, 1, /*keep_edge_weights=*/false);
  DeviceHarness whole(edges, 4, 1);
  Run pairs = run(narrow);
  Run edges12 = run(whole);

  // Solo runs: the device engine over the same layout and job settings.
  HybridConfig solo_cfg;
  solo_cfg.threads = 1;
  solo_cfg.io_unit_bytes = 16 * 1024;
  solo_cfg.num_partitions = narrow.layout.num_partitions();
  solo_cfg.allow_update_memory_opt = false;
  SimDevice solo_dev("solo", DeviceProfile::Instant());
  WriteEdgeFile(solo_dev, "input", edges);
  HybridEngine<WccAlgorithm> wcc(solo_cfg, solo_dev, solo_dev, solo_dev, "input", narrow.info);
  std::vector<VertexId> wcc_labels = RunWcc(wcc).labels;
  solo_cfg.file_prefix = "bfs";
  HybridEngine<BfsAlgorithm> bfs(solo_cfg, solo_dev, solo_dev, solo_dev, "input", narrow.info);
  std::vector<uint32_t> bfs_levels = RunBfs(bfs, 0).levels;
  solo_cfg.file_prefix = "pagerank";
  HybridEngine<PageRankAlgorithm> pr(solo_cfg, solo_dev, solo_dev, solo_dev, "input",
                                     narrow.info);
  std::vector<float> ranks = RunPageRank(pr, 4).ranks;
  for (uint64_t v = 0; v < narrow.info.num_vertices; ++v) {
    ASSERT_EQ(pairs.outs[0]->per_vertex[v], static_cast<double>(wcc_labels[v])) << v;
    ASSERT_EQ(pairs.outs[1]->per_vertex[v], static_cast<double>(bfs_levels[v])) << v;
    ASSERT_EQ(pairs.outs[2]->per_vertex[v], static_cast<double>(ranks[v])) << v;
  }
  for (size_t j = 0; j < specs.size(); ++j) {
    SCOPED_TRACE(specs[j]);
    EXPECT_TRUE(pairs.outs[j]->per_vertex == edges12.outs[j]->per_vertex);
    EXPECT_EQ(pairs.outs[j]->stats.update_file_bytes, edges12.outs[j]->stats.update_file_bytes);
  }

  // The same scans, at 8 bytes per edge instead of 12.
  EXPECT_EQ(pairs.stats.partition_scans, edges12.stats.partition_scans);
  ASSERT_GT(pairs.scan_bytes, 0u);
  EXPECT_EQ(pairs.scan_bytes * sizeof(Edge), edges12.scan_bytes * sizeof(EdgePair));
  EXPECT_EQ(pairs.scan_bytes, pairs.stats.shared_scan_bytes);
  EXPECT_EQ(edges12.scan_bytes, edges12.stats.shared_scan_bytes);
  for (uint32_t p = 0; p < narrow.layout.num_partitions(); ++p) {
    EXPECT_EQ(narrow.source->PartitionEdgeBytes(p),
              narrow.source->edge_counts()[p] * sizeof(EdgePair));
  }

  // A job that reads weights cannot attach to a source that stores none.
  JobScheduler sched(*narrow.source);
  EXPECT_DEATH(narrow.Submit(sched, "sssp:src=0", narrow.SpillHeavyConfig(), nullptr),
               "sssp reads edge weights, but the scan source stores none");
}

TEST(SchedulerTest, ConvergedJobRetiresWithoutAnEmptyCycle) {
  // WCC's last round can scan nothing: the round before it left no vertex
  // active. That round ends at the boundary where it begins, instead of
  // waiting out a cycle of scans run for a long PageRank job.
  EdgeList edges = TestGraph(23);
  DeviceHarness h(edges);
  const uint32_t k = h.layout.num_partitions();
  InMemoryConfig solo_cfg;
  solo_cfg.threads = 2;
  solo_cfg.num_partitions = k;
  InMemoryEngine<WccAlgorithm> solo(solo_cfg, edges, h.info.num_vertices);
  WccResult expected = RunWcc(solo);
  const RunStats& last = solo.stats();
  ASSERT_GE(last.iterations, 2u);
  ASSERT_EQ(last.per_iteration.back().edges_streamed, 0u)
      << "WCC's last solo iteration should scan nothing";

  JobScheduler sched(*h.source);
  std::vector<JobId> ids;
  h.Submit(sched, "pagerank:iters=100", h.SpillHeavyConfig(), &ids);
  auto wcc = h.Submit(sched, "wcc", h.SpillHeavyConfig(), &ids);
  const uint64_t steps_to_retire = (last.iterations - 1) * k;
  for (uint64_t step = 1; step <= steps_to_retire; ++step) {
    ASSERT_EQ(sched.Poll(ids[1]), step == 1 ? JobState::kQueued : JobState::kRunning)
        << "step " << step;
    ASSERT_TRUE(sched.PumpOne());
  }
  EXPECT_EQ(sched.Poll(ids[1]), JobState::kDone);
  EXPECT_EQ(sched.Poll(ids[0]), JobState::kRunning);
  EXPECT_EQ(sched.report(ids[1]).rounds, last.iterations);
  EXPECT_EQ(wcc->stats.iterations, last.iterations);
  ASSERT_EQ(wcc->per_vertex.size(), expected.labels.size());
  for (uint64_t v = 0; v < expected.labels.size(); ++v) {
    EXPECT_EQ(wcc->per_vertex[v], static_cast<double>(expected.labels[v])) << "vertex " << v;
  }
  sched.Cancel(ids[0]);
  sched.RunAll();
}

TEST(SchedulerTest, CancelRetiresQueuedAndRunningJobs) {
  EdgeList edges = TestGraph(19);
  DeviceHarness h(edges);

  JobScheduler sched(*h.source);
  std::vector<JobId> ids;
  auto wcc = h.Submit(sched, "wcc", h.SpillHeavyConfig(), &ids);
  auto doomed_running = h.Submit(sched, "pagerank:iters=50", h.SpillHeavyConfig(), &ids);
  auto doomed_queued = h.Submit(sched, "bfs:src=0", h.SpillHeavyConfig(), &ids);

  // Cancel one job before it ever runs.
  sched.Cancel(ids[2]);
  // Start rounds, then cancel a running job mid-flight.
  ASSERT_TRUE(sched.PumpOne());
  ASSERT_TRUE(sched.PumpOne());
  sched.Cancel(ids[1]);
  sched.RunAll();

  EXPECT_EQ(sched.Poll(ids[0]), JobState::kDone);
  EXPECT_EQ(sched.Poll(ids[1]), JobState::kCancelled);
  EXPECT_EQ(sched.Poll(ids[2]), JobState::kCancelled);
  EXPECT_FALSE(sched.Wait(ids[1]));
  ExpectWccMatches(*wcc, edges, h.info.num_vertices);
  EXPECT_EQ(sched.stats().jobs_cancelled, 2u);
  // Cancelled jobs never finalize: their outputs stay empty.
  EXPECT_TRUE(doomed_running->per_vertex.empty());
  EXPECT_TRUE(doomed_queued->per_vertex.empty());
  // All device I/O drained despite the mid-round abandon.
  EXPECT_EQ(h.update_dev.executor().in_flight(), 0u);
}

TEST(SchedulerTest, BudgetResplitsAsHybridJobsComeAndGo) {
  EdgeList edges = TestGraph(23);
  DeviceHarness h(edges);
  ReferenceGraph g(edges, h.info.num_vertices);

  // File-resident vertices over a tallying source: every job can pin.
  DeviceJobConfig cfg = h.SpillHeavyConfig();

  // Probe one job's fixed footprint so the budget leaves a meaningful pin
  // pool for two concurrent jobs.
  uint64_t fixed = 0;
  {
    auto probe = MakeDeviceJob(ParseJobSpec("wcc"), *h.source, h.update_dev, h.vertex_dev,
                               cfg, "probe", nullptr);
    fixed = probe->FixedBytes();
    EXPECT_TRUE(probe->CanPin());
  }
  // A job whose vertices fit in RAM has no vertex files to pin from.
  DeviceJobConfig in_ram = cfg;
  in_ram.allow_vertex_memory_opt = true;
  EXPECT_FALSE(MakeDeviceJob(ParseJobSpec("wcc"), *h.source, h.update_dev, h.vertex_dev,
                             in_ram, "in_ram", nullptr)
                   ->CanPin());
  SchedulerOptions opts;
  opts.memory_budget_bytes = 2 * fixed + (4u << 20);

  JobScheduler sched(*h.source, opts);
  std::vector<JobId> ids;
  auto pagerank = h.Submit(sched, "pagerank:iters=8", cfg, &ids);
  auto bfs = h.Submit(sched, "bfs:src=0", cfg, &ids);
  sched.RunAll();

  EXPECT_EQ(sched.Poll(ids[0]), JobState::kDone);
  EXPECT_EQ(sched.Poll(ids[1]), JobState::kDone);
  ExpectBfsMatches(*bfs, g, 0);
  std::vector<double> pr = ReferencePageRank(g, 8);
  for (uint64_t v = 0; v < h.info.num_vertices; ++v) {
    EXPECT_NEAR(pagerank->per_vertex[v], pr[v], 1e-4) << "vertex " << v;
  }
  // Admission + at least one retirement while the other job was running
  // must each have re-split the pin pool.
  EXPECT_GE(sched.stats().budget_resplits, 2u);
  // The longer-running hybrid job got pin budget and used it.
  EXPECT_GT(pagerank->stats.resident_partition_count, 0u);
}

TEST(SchedulerTest, RandomizedSubmitCancelStressAgainstOracles) {
  EdgeList edges = TestGraph(29, /*scale=*/8);
  DeviceHarness h(edges);
  ReferenceGraph g(edges, h.info.num_vertices);
  std::vector<uint32_t> bfs_oracle[4];
  for (VertexId root = 0; root < 4; ++root) {
    bfs_oracle[root] = ReferenceBfsLevels(g, root);
  }
  std::vector<VertexId> wcc_oracle = ReferenceWcc(edges, h.info.num_vertices);

  JobScheduler sched(*h.source);
  std::atomic<bool> stop{false};
  std::thread driver([&sched, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!sched.PumpOne()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  struct Submitted {
    JobId id;
    bool is_wcc;
    VertexId root;
    std::shared_ptr<JobOutput> out;
    bool cancelled;
  };
  std::mutex submitted_mu;
  std::vector<Submitted> submitted;

  auto submitter = [&](uint64_t seed) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 6; ++i) {
      bool is_wcc = (rng() & 1) != 0;
      VertexId root = static_cast<VertexId>(rng() % 4);
      std::string spec = is_wcc ? "wcc" : ("bfs:src=" + std::to_string(root));
      auto out = std::make_shared<JobOutput>();
      DeviceJobConfig cfg = h.SpillHeavyConfig();
      JobId id;
      {
        std::lock_guard<std::mutex> lk(submitted_mu);
        id = sched.Submit(MakeDeviceJob(ParseJobSpec(spec), *h.source, h.update_dev,
                                        h.vertex_dev, cfg,
                                        "stress" + std::to_string(seed) + "-" +
                                            std::to_string(i),
                                        out));
        submitted.push_back(Submitted{id, is_wcc, root, out, false});
      }
      std::this_thread::sleep_for(std::chrono::microseconds(rng() % 2000));
      if (rng() % 3 == 0) {
        sched.Cancel(id);
        std::lock_guard<std::mutex> lk(submitted_mu);
        for (Submitted& s : submitted) {
          if (s.id == id) {
            s.cancelled = true;
          }
        }
      }
    }
  };
  std::thread t1(submitter, 101);
  std::thread t2(submitter, 202);
  t1.join();
  t2.join();

  for (const Submitted& s : submitted) {
    sched.Wait(s.id);  // cross-thread wait while the driver pumps
  }
  stop.store(true, std::memory_order_release);
  driver.join();

  for (const Submitted& s : submitted) {
    JobState state = sched.Poll(s.id);
    if (s.cancelled) {
      EXPECT_TRUE(state == JobState::kCancelled || state == JobState::kDone);
    } else {
      EXPECT_EQ(state, JobState::kDone);
    }
    if (state != JobState::kDone) {
      continue;
    }
    ASSERT_EQ(s.out->per_vertex.size(), h.info.num_vertices);
    if (s.is_wcc) {
      for (uint64_t v = 0; v < h.info.num_vertices; ++v) {
        EXPECT_EQ(s.out->per_vertex[v], static_cast<double>(wcc_oracle[v]));
      }
    } else {
      for (uint64_t v = 0; v < h.info.num_vertices; ++v) {
        EXPECT_EQ(s.out->per_vertex[v], static_cast<double>(bfs_oracle[s.root][v]));
      }
    }
  }
  EXPECT_EQ(h.update_dev.executor().in_flight(), 0u);
}

// ---- Fair-share admission ---------------------------------------------------

// Helpers for the fair-share tests: cheap in-memory jobs on a small graph,
// driven one admission slot at a time (max_active_jobs=1 makes admission
// order directly observable as the order jobs enter kRunning).
struct FairShareHarness {
  explicit FairShareHarness(SchedulerOptions opts, uint64_t seed = 31)
      : edges(TestGraph(seed, /*scale=*/8)),
        info(ScanEdges(edges)),
        pool(2),
        layout(info.num_vertices, 4),
        source(pool, layout, edges),
        sched(source, opts) {}

  JobId Submit(const std::string& tenant, const std::string& spec = "bfs:src=0") {
    auto out = std::make_shared<JobOutput>();
    SubmitOutcome o = sched.TrySubmit(MakeMemoryJob(ParseJobSpec(spec), source, out), tenant);
    EXPECT_TRUE(o.accepted) << o.reason;
    tenant_of[o.id] = tenant;
    return o.id;
  }

  // Drives everything, recording each job's tenant in the order the jobs
  // entered kRunning.
  std::vector<std::string> DriveRecordingAdmissions() {
    std::vector<std::string> order;
    std::set<JobId> seen;
    bool more = true;
    while (more) {
      more = sched.PumpOne();
      for (const JobReport& r : sched.reports()) {
        if (r.state != JobState::kQueued && seen.insert(r.id).second) {
          order.push_back(tenant_of[r.id]);
        }
      }
    }
    return order;
  }

  EdgeList edges;
  GraphInfo info;
  ThreadPool pool;
  PartitionLayout layout;
  MemoryScanSource source;
  JobScheduler sched;
  std::map<JobId, std::string> tenant_of;
};

TEST(SchedulerFairShareTest, WeightedSharesConvergeToConfiguredRatios) {
  SchedulerOptions opts;
  opts.max_active_jobs = 1;
  TenantQuota heavy;
  heavy.weight = 3.0;
  opts.tenants["heavy"] = heavy;
  FairShareHarness h(opts);

  // Both tenants flood: 8 jobs each, interleaved submissions.
  for (int i = 0; i < 8; ++i) {
    h.Submit("heavy");
    h.Submit("light");
  }
  std::vector<std::string> order = h.DriveRecordingAdmissions();
  ASSERT_EQ(order.size(), 16u);

  // Weighted deficit with conserved credit admits exactly 3 heavy per light
  // while both stay backlogged: 6 of the first 8 slots are heavy.
  int heavy_in_first_8 = 0;
  for (int i = 0; i < 8; ++i) {
    heavy_in_first_8 += order[static_cast<size_t>(i)] == "heavy" ? 1 : 0;
  }
  EXPECT_EQ(heavy_in_first_8, 6) << "admission order diverged from the 3:1 weights";

  for (const auto& [id, tenant] : h.tenant_of) {
    EXPECT_EQ(h.sched.Poll(id), JobState::kDone);
    EXPECT_EQ(h.sched.report(id).tenant, tenant);  // tenant surfaces in reports
  }
  // tenant_stats mirrors the outcome; conserved deficits stay bounded.
  for (const TenantStats& t : h.sched.tenant_stats()) {
    EXPECT_EQ(t.completed, 8u) << t.tenant;
    EXPECT_EQ(t.running, 0u) << t.tenant;
    EXPECT_LT(std::abs(t.deficit), 4.0) << t.tenant;
  }
  // The JSON payload carries the tenant key (the /v1 and /jobs consumers).
  EXPECT_NE(JobReportsToJson(h.sched.reports()).find("\"tenant\":\"heavy\""),
            std::string::npos);
}

TEST(SchedulerFairShareTest, FloodingTenantCannotStarveAnother) {
  SchedulerOptions opts;
  opts.max_active_jobs = 1;
  FairShareHarness h(opts);

  // Tenant "flood" piles up a deep backlog and gets its first job running.
  std::vector<JobId> flood;
  for (int i = 0; i < 10; ++i) {
    flood.push_back(h.Submit("flood"));
  }
  ASSERT_TRUE(h.sched.PumpOne());
  ASSERT_EQ(h.sched.Poll(flood[0]), JobState::kRunning);

  // A late-arriving equal-weight tenant must be admitted within
  // ceil(total_weight / weight) = 2 admission slots — bounded wait, no
  // aging, regardless of the 9 flooding jobs still queued.
  JobId victim = h.Submit("victim");
  std::vector<std::string> order = h.DriveRecordingAdmissions();
  size_t victim_pos = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "victim") {
      victim_pos = i;
      break;
    }
  }
  // order[0] is the already-running flood job; the victim may be preceded by
  // at most one more flood admission.
  EXPECT_LE(victim_pos, 2u) << "victim waited " << victim_pos << " admissions";
  EXPECT_EQ(h.sched.Poll(victim), JobState::kDone);
  EXPECT_EQ(h.sched.stats().jobs_completed, 11u);
}

TEST(SchedulerFairShareTest, MaxRunningQuotaEnforcedAndReleasedOnRetirement) {
  SchedulerOptions opts;
  TenantQuota capped;
  capped.max_running = 2;
  opts.tenants["capped"] = capped;
  FairShareHarness h(opts);

  std::vector<JobId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(h.Submit("capped"));
  }
  // At every boundary the tenant holds at most 2 running slots, yet all 5
  // jobs eventually complete — retirement releases the quota.
  bool more = true;
  while (more) {
    more = h.sched.PumpOne();
    uint32_t running = 0;
    for (JobId id : ids) {
      running += h.sched.Poll(id) == JobState::kRunning ? 1 : 0;
    }
    EXPECT_LE(running, 2u);
  }
  for (JobId id : ids) {
    EXPECT_EQ(h.sched.Poll(id), JobState::kDone);
  }
  EXPECT_EQ(h.sched.stats().jobs_completed, 5u);
}

TEST(SchedulerFairShareTest, MaxQueuedQuotaRejectsAtSubmitAndRecovers) {
  SchedulerOptions opts;
  TenantQuota shallow;
  shallow.max_queued = 2;
  opts.tenants["shallow"] = shallow;
  FairShareHarness h(opts);

  h.Submit("shallow");
  h.Submit("shallow");
  auto out = std::make_shared<JobOutput>();
  SubmitOutcome rejected =
      h.sched.TrySubmit(MakeMemoryJob(ParseJobSpec("bfs:src=0"), h.source, out), "shallow");
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.reason.find("queue full"), std::string::npos) << rejected.reason;
  EXPECT_EQ(h.sched.stats().jobs_rejected, 1u);

  // Draining the queue reopens it.
  h.sched.RunAll();
  JobId late = h.Submit("shallow");
  h.sched.RunAll();
  EXPECT_EQ(h.sched.Poll(late), JobState::kDone);
  for (const TenantStats& t : h.sched.tenant_stats()) {
    EXPECT_EQ(t.rejected, 1u);
    EXPECT_EQ(t.completed, 3u);
  }
}

TEST(SchedulerFairShareTest, MemoryShareQuotaBoundsPerJobFootprint) {
  EdgeList edges = TestGraph(37);
  DeviceHarness h(edges);
  DeviceJobConfig cfg = h.SpillHeavyConfig();
  uint64_t fixed = 0;
  {
    auto probe = MakeDeviceJob(ParseJobSpec("wcc"), *h.source, h.update_dev, h.vertex_dev,
                               cfg, "probe", nullptr);
    fixed = probe->FixedBytes();
  }
  SchedulerOptions opts;
  opts.memory_budget_bytes = 2 * fixed;
  TenantQuota small;
  small.memory_share = 0.25;  // cap = fixed / 2 < fixed: every job too big
  opts.tenants["small"] = small;

  JobScheduler sched(*h.source, opts);
  auto out = std::make_shared<JobOutput>();
  SubmitOutcome rejected = sched.TrySubmit(
      MakeDeviceJob(ParseJobSpec("wcc"), *h.source, h.update_dev, h.vertex_dev, cfg,
                    "small0", out),
      "small");
  EXPECT_FALSE(rejected.accepted);
  EXPECT_NE(rejected.reason.find("memory share"), std::string::npos) << rejected.reason;

  // An unconstrained tenant submits the same job shape successfully.
  auto ok_out = std::make_shared<JobOutput>();
  SubmitOutcome ok = sched.TrySubmit(
      MakeDeviceJob(ParseJobSpec("wcc"), *h.source, h.update_dev, h.vertex_dev, cfg,
                    "roomy0", ok_out),
      "roomy");
  ASSERT_TRUE(ok.accepted) << ok.reason;
  sched.RunAll();
  EXPECT_EQ(sched.Poll(ok.id), JobState::kDone);
  ExpectWccMatches(*ok_out, edges, h.info.num_vertices);
  EXPECT_EQ(sched.stats().jobs_rejected, 1u);
}

TEST(SchedulerTest, JobSpecParsing) {
  JobSpec spec = ParseJobSpec("bfs:src=42:name=frontier");
  EXPECT_EQ(spec.algo, "bfs");
  EXPECT_EQ(spec.root, 42u);
  EXPECT_EQ(spec.name, "frontier");
  std::vector<JobSpec> list = ParseJobList("pagerank:iters=3,wcc,sssp:src=7");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].iterations, 3u);
  EXPECT_EQ(list[1].algo, "wcc");
  EXPECT_EQ(list[2].root, 7u);
}

}  // namespace
}  // namespace xstream
