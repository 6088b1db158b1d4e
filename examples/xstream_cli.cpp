// xstream_cli: run any shipped algorithm on any input from the command line.
//
//   xstream_cli --algorithm=wcc --input=edges.txt
//   xstream_cli --algorithm=pagerank --generate=rmat --scale=20 --threads=8
//   xstream_cli --algorithm=sssp --input=graph.txt --root=5
//               --engine=out-of-core --workdir=/data/tmp --budget-mb=1024
//
// Inputs: --input=<path> (text "src dst [weight]" lines, or raw binary edge
// records if the name ends in .bin) or --generate=rmat|grid|er|bipartite.
// Engines: in-memory by default; --engine=out-of-core|hybrid streams from
// real files under --workdir. Prints the result summary and run statistics.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "algorithms/algorithms.h"
#include "algorithms/kcores.h"
#include "core/hybrid_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/inmem_engine.h"
#include "graph/edge_io.h"
#include "obs/attribution.h"
#include "obs/http_exporter.h"
#include "obs/profiler.h"
#include "partitioning/partitioner.h"
#include "partitioning/quality.h"
#include "graph/generators.h"
#include "graph/text_io.h"
#include "graph/transforms.h"
#include "scheduler/algo_jobs.h"
#include "scheduler/scan_source.h"
#include "scheduler/scheduler.h"
#include "storage/posix_device.h"
#include "storage/uring_device.h"
#include "util/env.h"
#include "util/format.h"
#include "util/json.h"
#include "util/options.h"

namespace xstream {
namespace {

constexpr char kUsage[] = R"(xstream_cli — edge-centric graph processing

  --algorithm=wcc|scc|bfs|sssp|pagerank|spmv|mis|mcst|conductance|bp|
              hyperanf|kcore                         (required)
  --input=<path>            text edge list, or packed binary if *.bin
  --generate=rmat|grid|er|bipartite                  (alternative to --input)
    --scale=N --edge-factor=N --seed=N --directed    generator knobs
  --symmetrize              add reverse edges (traversals on directed input)
  --dedupe --drop-self-loops --compact               input cleanup passes
  --threads=N               0 = all cores
  --partitioner=range|hash|greedy|2ps   vertex->partition strategy
                            (default range: the paper's contiguous ranges)
    --partitions=N          force the partition count (0 = engine auto)
    --partitioner-seed=N    seed for seeded partitioners (default 1)
    --partition-stats       print edge cut / replication / balance
  --root=V                  bfs/sssp source (default 0)
  --iterations=N            pagerank/bp rounds (default 5)
  --k=N                     kcore threshold (default 8)
  --engine=in-memory|out-of-core|hybrid   (default in-memory; out-of-core
                            is the device engine at pin budget 0, with the
                            vertex array in RAM when it fits the budget)
    --workdir=<dir>         scratch directory (default: a temp dir)
    --budget-mb=N           out-of-core working budget, MB (default 256)
    --io-unit-kb=N          I/O unit (default 1024)
    --sync-spill            serialize update-spill writes (default: async,
                            double-buffered on the device I/O thread)
    --spill-depth=N         spill write-pipeline slots (default 2; raise for
                            RAID update devices)
    --io-backend=posix|uring  storage backend for the work files (default
                            posix; uring submits sliced waves of io_uring
                            SQEs with registered buffers and falls back
                            loudly when the kernel/sandbox lacks io_uring)
    --stage-bytes=N         per-thread staging bytes for the cache-aware
                            setup edge shuffle (default: auto, half the
                            per-core cache; 0 = legacy fused counting
                            shuffle)
    --compress-updates      delta+varint compress spilled update streams
                            (bit-identical results, fewer update-file bytes;
                            ratio visible under store.codec.* in
                            --stats-json)
  --memory-budget=BYTES     hybrid engine: byte budget for pinning hot
                            partitions in RAM (default: auto-detect, half of
                            physical memory; 0 pins nothing, like
                            out-of-core with vertices in files); requests
                            above physical memory are clamped with a warning
    --no-replan             hybrid: freeze the pin set chosen at setup
                            instead of re-planning between iterations
    --residency-hysteresis=N  hybrid: iterations a partition must win/lose
                            its pin before the incremental re-plan migrates
                            it (default 2; 0 = legacy stop-the-world full
                            re-plan between iterations)
    --pin-edges             hybrid: cache pinned partitions' edge streams in
                            RAM after their first scan, so fully resident
                            partitions never touch the edge device (edge
                            bytes are priced into --memory-budget)
    --residency-decay=F     hybrid: EWMA decay in [0,1) for the residency
                            planner's observed-update-volume signal
                            (default 0 = react to the last iteration only)
  --trace=FILE              write a Chrome trace-event JSON timeline of the
                            run's phase spans (open in Perfetto or
                            chrome://tracing); covers solo and --jobs runs;
                            also flushed on SIGINT/SIGTERM
    --trace-sample=RATE     record each span with probability RATE in [0,1]
                            (default 1; implies tracing on). Keeps tracing
                            affordable on long runs.
    --trace-ring=N          keep only the most recent N spans in memory,
                            dropping the oldest (default 0 = unbounded;
                            implies tracing on). Dump the tail via the
                            telemetry GET /trace or the exit flush.
  --explain                 print the bottleneck doctor report after the
                            run: ranked per-phase time sinks, the
                            I/O-vs-compute verdict, the partition skew
                            index, and flag-level tuning hints
  --profile=FILE            sample the process with a SIGPROF CPU profiler
                            for the whole run and write folded stacks to
                            FILE (feed to flamegraph.pl)
    --profile-hz=N          profiler sampling rate (default 97)
  --http-port=P             serve live telemetry on 127.0.0.1:P while the
                            run is in flight (0 = pick an ephemeral port,
                            printed at startup): GET /metrics (Prometheus
                            text format), /healthz, /stats (the live
                            --stats-json document), /jobs (per-job
                            scheduler progress), /trace, /attribution,
                            /profile?seconds=N
  --stats-json=FILE         write run statistics plus the metrics-registry
                            snapshot as JSON (per-job array in --jobs mode)
  --jobs=SPEC[,SPEC...]     batch mode: run concurrent jobs under the
                            multi-job scheduler, sharing one edge scan.
                            SPEC = algo[:key=value...], algos wcc|bfs|sssp|
                            pagerank|spmv, keys src= iters= seed= name=.
                              --jobs=pagerank,wcc,bfs:src=0
                            --engine picks the substrate (in-memory shares
                            the RAM edge chunks; out-of-core/hybrid share
                            the partitioned edge files). With hybrid jobs,
                            --memory-budget is split across active jobs and
                            re-split as jobs come and go.
)";

EdgeList LoadOrGenerate(const Options& opts) {
  if (opts.Has("input")) {
    std::string path = opts.GetString("input", "");
    if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
      // Packed binary records, read through a throwaway device.
      auto slash = path.find_last_of('/');
      std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
      std::string file = slash == std::string::npos ? path : path.substr(slash + 1);
      PosixDevice dev("in", dir);
      return ReadEdgeFile(dev, file);
    }
    TextReadOptions text;
    text.symmetrize = opts.GetBool("symmetrize", false);
    return ReadTextEdgeList(path, text);
  }
  std::string kind = opts.GetString("generate", "rmat");
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", 18));
  uint32_t ef = static_cast<uint32_t>(opts.GetUint("edge-factor", 16));
  uint64_t seed = opts.GetUint("seed", 1);
  if (kind == "rmat") {
    RmatParams params;
    params.scale = scale;
    params.edge_factor = ef;
    params.undirected = !opts.GetBool("directed", false);
    params.seed = seed;
    return GenerateRmat(params);
  }
  if (kind == "grid") {
    uint32_t side = uint32_t{1} << (scale / 2);
    return GenerateGrid(side, side, seed);
  }
  if (kind == "er") {
    return GenerateErdosRenyi(uint64_t{1} << scale, (uint64_t{1} << scale) * ef,
                              !opts.GetBool("directed", false), seed);
  }
  if (kind == "bipartite") {
    uint32_t users = uint32_t{1} << scale;
    return GenerateBipartite(users, users / 10 + 1, static_cast<uint64_t>(users) * ef, seed);
  }
  std::fprintf(stderr, "unknown --generate=%s\n%s", kind.c_str(), kUsage);
  std::exit(2);
}

// The device backing the current solo out-of-core/hybrid run, so the
// --stats-json snapshot can mirror its DeviceStats into the registry. Set by
// WithEngine; the CLI runs one engine per process so a file-scope pointer is
// the simplest plumbing through the per-algorithm result lambdas.
StorageDevice* g_stats_device = nullptr;

// ---- Live telemetry sources (--http-port) ---------------------------------
//
// The exporter thread reads these mid-run, so the scopes that own the
// underlying objects publish and clear the pointers under a mutex (no
// use-after-free when an engine or scheduler goes out of scope). The live
// RunStats snapshot uses ToJson(false): only aligned scalar fields are read
// while the driver thread mutates them — monitoring-grade torn values at
// worst, never out-of-bounds (the per_iteration vector is excluded).
struct LiveTelemetry {
  std::mutex mu;
  const RunStats* run = nullptr;
  JobScheduler* scheduler = nullptr;
};
LiveTelemetry g_live;

struct LiveRunScope {
  explicit LiveRunScope(const RunStats* stats) {
    std::lock_guard<std::mutex> lock(g_live.mu);
    g_live.run = stats;
  }
  ~LiveRunScope() {
    std::lock_guard<std::mutex> lock(g_live.mu);
    g_live.run = nullptr;
  }
};

struct LiveSchedulerScope {
  explicit LiveSchedulerScope(JobScheduler* scheduler) {
    std::lock_guard<std::mutex> lock(g_live.mu);
    g_live.scheduler = scheduler;
  }
  ~LiveSchedulerScope() {
    std::lock_guard<std::mutex> lock(g_live.mu);
    g_live.scheduler = nullptr;
  }
};

// GET /stats: the --stats-json document, rendered live — the in-flight
// run's scalar stats (when one is active), per-job reports (in --jobs
// mode), and the registry snapshot.
obs::HttpResponse StatsEndpoint(const std::string& /*query*/) {
  JsonWriter w;
  w.BeginObject();
  {
    std::lock_guard<std::mutex> lock(g_live.mu);
    if (g_live.run != nullptr) {
      w.Key("run").Raw(g_live.run->ToJson(/*include_iterations=*/false));
    }
    if (g_live.scheduler != nullptr) {
      w.Key("jobs").Raw(JobReportsToJson(g_live.scheduler->reports()));
    }
  }
  w.Key("metrics").Raw(obs::MetricsRegistry::Global().ToJson());
  w.EndObject();
  return obs::HttpResponse{200, "application/json", w.TakeString(), {}};
}

// GET /jobs: per-job scheduler progress (empty array outside --jobs mode).
obs::HttpResponse JobsEndpoint(const std::string& /*query*/) {
  std::lock_guard<std::mutex> lock(g_live.mu);
  std::string body =
      g_live.scheduler != nullptr ? JobReportsToJson(g_live.scheduler->reports()) : "[]";
  return obs::HttpResponse{200, "application/json", std::move(body), {}};
}

// ---- --trace flush on SIGINT/SIGTERM --------------------------------------
//
// Set once in main before the handlers are installed, read-only afterwards.
std::string g_signal_trace_path;
std::atomic<bool> g_trace_flushed{false};

// Best-effort: WriteChromeTrace allocates and takes the tracer mutex, which
// is not async-signal-safe — acceptable for a diagnostic flush on the way
// out (the alternative is a killed long run losing its whole timeline). The
// atomic guard keeps a second signal from re-entering; re-raising with the
// default handler preserves the caller-visible death-by-signal status.
void FlushTraceOnSignal(int sig) {
  if (!g_trace_flushed.exchange(true)) {
    obs::Tracer::Global().WriteChromeTrace(g_signal_trace_path);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

// Writes {"run": RunStats, "metrics": registry snapshot} when --stats-json
// is set. Publishing the RunStats and device counters into the registry
// first makes the registry snapshot the superset view (the RunStats object
// itself stays the schema-stable part consumed by tests and bench_diff).
void MaybeWriteStatsJson(const Options& opts, const RunStats& stats) {
  std::string path = opts.GetString("stats-json", "");
  if (path.empty()) {
    return;
  }
  stats.PublishTo("run");
  if (g_stats_device != nullptr) {
    g_stats_device->PublishStats();
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("run").Raw(stats.ToJson());
  w.Key("attribution").Raw(obs::AttributionRegistry::Global().ToJson());
  w.Key("metrics").Raw(obs::MetricsRegistry::Global().ToJson());
  w.EndObject();
  WriteJsonFile(path, w.str());
}

// --explain: the end-of-run doctor report. Prints one report per registered
// accountant (the solo driver, or every scheduler job plus the shared scan
// source in --jobs mode), skipping accountants that never recorded time.
void MaybePrintExplain(const Options& opts) {
  if (!opts.GetBool("explain", false)) {
    return;
  }
  bool printed = false;
  for (const obs::AttributionSnapshot& snap :
       obs::AttributionRegistry::Global().Snapshots()) {
    if (snap.AccountedSeconds() <= 0.0) {
      continue;
    }
    std::fputs(obs::ExplainReport(snap).c_str(), stdout);
    printed = true;
  }
  if (!printed) {
    std::fprintf(stderr, "warning: --explain found no attribution data%s\n",
#ifdef XSTREAM_DISABLE_OBS
                 " (built with -DXSTREAM_DISABLE_OBS)"
#else
                 ""
#endif
    );
  }
}

void PrintStats(const Options& opts, const RunStats& stats) {
  MaybeWriteStatsJson(opts, stats);
  MaybePrintExplain(opts);
  std::printf("stats: %llu iterations, %s edges streamed, %s updates, %.0f%% wasted, "
              "runtime %s (setup %s)\n",
              static_cast<unsigned long long>(stats.iterations),
              HumanCount(stats.edges_streamed).c_str(),
              HumanCount(stats.updates_generated).c_str(), stats.WastedEdgePercent(),
              HumanDuration(stats.RuntimeSeconds()).c_str(),
              HumanDuration(stats.setup_seconds).c_str());
  if (stats.update_file_bytes > 0) {
    std::printf("spill: %s update-file bytes, %s written async, waited %s on spill writes, "
                "%s on gather reads\n",
                HumanBytes(stats.update_file_bytes).c_str(),
                HumanBytes(stats.async_spill_bytes).c_str(),
                HumanDuration(stats.spill_wait_seconds).c_str(),
                HumanDuration(stats.gather_wait_seconds).c_str());
  }
  if (stats.resident_partition_count > 0 || stats.avoided_spill_bytes > 0) {
    std::printf("residency: %llu partitions pinned (%s accounted), %s device traffic avoided\n",
                static_cast<unsigned long long>(stats.resident_partition_count),
                HumanBytes(stats.resident_bytes).c_str(),
                HumanBytes(stats.avoided_spill_bytes).c_str());
  }
  if (stats.promotions > 0 || stats.evictions > 0) {
    std::printf("migrations: %llu promotions, %llu evictions, %s moved\n",
                static_cast<unsigned long long>(stats.promotions),
                static_cast<unsigned long long>(stats.evictions),
                HumanBytes(stats.migration_bytes).c_str());
  }
  if (stats.pinned_edge_bytes > 0 || stats.edge_reads_avoided_bytes > 0) {
    std::printf("edge pinning: %s cached, %s edge reads served from RAM\n",
                HumanBytes(stats.pinned_edge_bytes).c_str(),
                HumanBytes(stats.edge_reads_avoided_bytes).c_str());
  }
}

// Builds the partitioner requested by --partitioner (null = the engine's
// native range mode). The CLI validates the name against the known set so a
// typo prints usage instead of aborting deep in the factory.
std::unique_ptr<Partitioner> PartitionerFromFlags(const Options& opts) {
  std::string name = opts.GetString("partitioner", "range");
  if (name == "range") {
    return nullptr;
  }
  const auto& known = KnownPartitioners();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    std::fprintf(stderr, "unknown --partitioner=%s\n%s", name.c_str(), kUsage);
    std::exit(2);
  }
  PartitionerOptions poptions;
  poptions.seed = opts.GetUint("partitioner-seed", 1);
  return MakePartitioner(name, poptions);
}

void MaybePrintPartitionStats(const Options& opts, const PartitionLayout& layout,
                              const EdgeList& edges) {
  if (!opts.GetBool("partition-stats", false)) {
    return;
  }
  PartitionQuality q = EvaluatePartitionQuality(layout, edges);
  std::printf("partitioning: %.1f%% edge cut, replication %.2f, balance %.2fx vertices / "
              "%.2fx edges\n",
              100.0 * q.CutFraction(), q.replication_factor, q.vertex_balance,
              q.edge_balance);
}

// Resolves --workdir, creating a scratch directory when unset. Shared by the
// solo engine paths and the --jobs batch mode.
std::string ResolveWorkdir(const Options& opts, std::unique_ptr<ScratchDir>& scratch) {
  std::string workdir = opts.GetString("workdir", "");
  if (workdir.empty()) {
    scratch = std::make_unique<ScratchDir>("xstream-cli");
    workdir = scratch->path();
  }
  return workdir;
}

// Builds the scratch device for the out-of-core/hybrid/jobs paths.
// --io-backend=uring always constructs the UringDevice: its constructor
// falls back loudly to the plain POSIX path when the kernel or sandbox
// rejects io_uring, so the run proceeds either way and --stats-json's
// device.disk.uring_active gauge records which path actually ran.
std::unique_ptr<PosixDevice> MakeCliDevice(const Options& opts, const std::string& workdir) {
  std::string backend = opts.GetString("io-backend", "posix");
  std::unique_ptr<PosixDevice> dev;
  if (backend == "uring") {
    dev = std::make_unique<UringDevice>("disk", workdir);
  } else if (backend == "posix") {
    dev = std::make_unique<PosixDevice>("disk", workdir);
  } else {
    std::fprintf(stderr, "unknown --io-backend=%s\n%s", backend.c_str(), kUsage);
    std::exit(2);
  }
  // Publish the backend gauges (uring_active, direct_supported) now, not
  // just at the end-of-run snapshot, so a /healthz probe early in the run
  // already answers "which I/O path engaged".
  dev->PublishStats();
  return dev;
}

// --stage-bytes: explicit value wins; unset means the cache-probed auto
// default (sizing.h). 0 keeps the legacy fused counting shuffle.
size_t StageBytesFromFlags(const Options& opts) {
  return opts.Has("stage-bytes") ? static_cast<size_t>(opts.GetUint("stage-bytes", 0))
                                 : DefaultShuffleStageBytes();
}

// Dispatches `run` with a constructed engine: the in-memory engine, or the
// device engine at pin budget 0 (out-of-core) or at --memory-budget (hybrid).
template <typename Algo, typename Run>
void WithEngine(const Options& opts, const EdgeList& edges, uint64_t num_vertices, Run&& run) {
  int threads = static_cast<int>(opts.GetInt("threads", 0));
  std::unique_ptr<Partitioner> partitioner = PartitionerFromFlags(opts);
  uint32_t partitions = static_cast<uint32_t>(opts.GetUint("partitions", 0));
  std::string engine_name = opts.GetString("engine", "in-memory");
  if (engine_name == "in-memory") {
    InMemoryConfig config;
    config.threads = threads;
    config.num_partitions = partitions;
    config.partitioner = partitioner.get();
    InMemoryEngine<Algo> engine(config, edges, num_vertices);
    std::printf("engine: in-memory, %u partitions (%s), fanout %u\n", engine.num_partitions(),
                partitioner ? partitioner->name() : "range", engine.shuffle_fanout());
    MaybePrintPartitionStats(opts, engine.layout(), edges);
    LiveRunScope live(&engine.stats());
    run(engine);
    return;
  }
  if (engine_name != "out-of-core" && engine_name != "hybrid") {
    std::fprintf(stderr, "unknown --engine=%s\n%s", engine_name.c_str(), kUsage);
    std::exit(2);
  }
  std::unique_ptr<ScratchDir> scratch;
  std::string workdir = ResolveWorkdir(opts, scratch);
  std::unique_ptr<PosixDevice> disk_owner = MakeCliDevice(opts, workdir);
  PosixDevice& disk = *disk_owner;
  WriteEdgeFile(disk, "cli.input", edges);
  GraphInfo info = ScanEdges(edges);
  info.num_vertices = num_vertices;
  bool hybrid = engine_name == "hybrid";
  HybridConfig config;
  config.threads = threads;
  config.streaming_budget_bytes = opts.GetUint("budget-mb", 256) << 20;
  config.io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", 1024)) << 10;
  config.num_partitions = partitions;
  // Pins live where the vertex files would, so only the out-of-core engine
  // keeps the vertex array in RAM (§3.2 optimization 1).
  config.allow_vertex_memory_opt = !hybrid;
  config.async_spill = !opts.GetBool("sync-spill", false);
  config.spill_queue_depth = static_cast<int>(opts.GetInt("spill-depth", 2));
  config.compress_updates = opts.GetBool("compress-updates", false);
  config.stage_bytes = StageBytesFromFlags(opts);
  config.replan_between_iterations = !opts.GetBool("no-replan", false);
  config.residency_hysteresis =
      static_cast<uint32_t>(opts.GetUint("residency-hysteresis", 2));
  config.residency_decay = opts.GetDouble("residency-decay", 0.0);
  config.pin_edges = opts.GetBool("pin-edges", false);
  config.partitioner = partitioner.get();
  if (hybrid) {
    config.memory_budget_bytes = opts.Has("memory-budget") ? opts.GetUint("memory-budget", 0)
                                                           : HybridConfig::kAutoMemoryBudget;
  }
  g_stats_device = &disk;
  HybridEngine<Algo> engine(config, disk, disk, disk, "cli.input", info);
  std::printf("engine: %s in %s, %u partitions (%s), vertices %s, pin budget %s, "
              "%u/%u partitions resident at start\n",
              engine_name.c_str(), workdir.c_str(), engine.num_partitions(),
              partitioner ? partitioner->name() : "range",
              engine.vertices_in_memory() ? "in memory" : "on disk",
              HumanBytes(engine.pin_budget_bytes()).c_str(), engine.resident_partitions(),
              engine.num_partitions());
  MaybePrintPartitionStats(opts, engine.layout(), edges);
  {
    LiveRunScope live(&engine.stats());
    run(engine);
  }
  g_stats_device = nullptr;  // `disk` dies with this scope
}

// Batch mode (--jobs): submit every requested job to one JobScheduler over
// a shared scan source, run them concurrently, and print per-job results
// plus the scan-sharing statistics.
int RunJobBatch(const Options& opts, const EdgeList& edges, const GraphInfo& info) {
  std::vector<JobSpec> specs = ParseJobList(opts.GetString("jobs", ""));
  int threads = static_cast<int>(opts.GetInt("threads", 0));
  ThreadPool pool(threads > 0 ? threads : NumCores());
  std::string engine_name = opts.GetString("engine", "in-memory");

  std::unique_ptr<Partitioner> partitioner = PartitionerFromFlags(opts);
  size_t io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", 1024)) << 10;
  uint32_t k = static_cast<uint32_t>(opts.GetUint("partitions", 0));
  if (k == 0) {
    // One layout serves every job, so auto-sizing uses the largest vertex
    // state among the job algorithms (16 bytes covers them all) against the
    // per-job streaming budget — the same §3.4 inequality the solo
    // out-of-core path applies per algorithm.
    k = engine_name == "in-memory"
            ? 8
            : ChooseOutOfCorePartitions(info.num_vertices * 16,
                                        opts.GetUint("budget-mb", 256) << 20, io_unit_bytes);
  }
  PartitionLayout layout;
  if (partitioner != nullptr) {
    auto mapping = std::make_shared<VertexMapping>(
        partitioner->Partition(MakeEdgeStream(edges), info.num_vertices, k));
    layout = PartitionLayout(std::move(mapping));
  } else {
    layout = PartitionLayout(info.num_vertices, k);
  }

  SchedulerOptions sched_opts;
  if (opts.Has("memory-budget")) {
    uint64_t requested = opts.GetUint("memory-budget", 0);
    sched_opts.memory_budget_bytes = requested > 0 ? ResolveMemoryBudget(requested) : 0;
  } else if (engine_name == "hybrid") {
    // Mirror the solo hybrid default (half of physical memory) so hybrid
    // batch jobs actually get pin budget instead of degenerating to the
    // plain device path.
    sched_opts.memory_budget_bytes = ResolveMemoryBudget(0);
  }

  // Declaration order doubles as teardown order: the scheduler (whose
  // destructor abandons jobs, draining I/O on `disk`) must be destroyed
  // before the device and scratch dir — including when RunAll throws.
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<PosixDevice> disk;
  std::vector<std::shared_ptr<JobOutput>> outputs;
  std::vector<JobId> ids;
  std::unique_ptr<ScanSource> source;
  std::unique_ptr<JobScheduler> scheduler;

  if (engine_name == "in-memory") {
    auto mem = std::make_unique<MemoryScanSource>(pool, layout, edges);
    std::printf("scheduler: %zu jobs over shared in-RAM edge chunks, %u partitions (%s)\n",
                specs.size(), layout.num_partitions(),
                partitioner ? partitioner->name() : "range");
    scheduler = std::make_unique<JobScheduler>(*mem, sched_opts);
    for (const JobSpec& spec : specs) {
      outputs.push_back(std::make_shared<JobOutput>());
      ids.push_back(scheduler->Submit(MakeMemoryJob(spec, *mem, outputs.back())));
    }
    source = std::move(mem);
  } else if (engine_name == "out-of-core" || engine_name == "hybrid") {
    std::string workdir = ResolveWorkdir(opts, scratch);
    disk = MakeCliDevice(opts, workdir);
    WriteEdgeFile(*disk, "cli.input", edges);
    DeviceScanSource::Options sopts;
    sopts.io_unit_bytes = io_unit_bytes;
    sopts.file_prefix = "scan";
    // Only hybrid job stores consume the residency-planner tallies.
    sopts.collect_dst_tallies = engine_name == "hybrid";
    // The batch is fixed, so the edge files need weights only if a job
    // reads them.
    sopts.keep_edge_weights = JobsReadEdgeWeights(specs);
    auto dev = std::make_unique<DeviceScanSource>(pool, layout, sopts, *disk, "cli.input");
    std::printf("scheduler: %zu jobs over shared edge files in %s, %u partitions (%s)%s\n",
                specs.size(), workdir.c_str(), layout.num_partitions(),
                partitioner ? partitioner->name() : "range",
                engine_name == "hybrid" ? ", hybrid job stores" : "");
    scheduler = std::make_unique<JobScheduler>(*dev, sched_opts);
    DeviceJobConfig jcfg;
    jcfg.memory_budget_bytes = opts.GetUint("budget-mb", 256) << 20;
    jcfg.io_unit_bytes = sopts.io_unit_bytes;
    jcfg.async_spill = !opts.GetBool("sync-spill", false);
    jcfg.spill_queue_depth = static_cast<int>(opts.GetInt("spill-depth", 2));
    jcfg.compress_updates = opts.GetBool("compress-updates", false);
    // Hybrid job stores keep their vertices in files so they can pin.
    jcfg.allow_vertex_memory_opt = engine_name != "hybrid";
    jcfg.residency_hysteresis =
        static_cast<uint32_t>(opts.GetUint("residency-hysteresis", 2));
    jcfg.residency_decay = opts.GetDouble("residency-decay", 0.0);
    jcfg.pin_edges = opts.GetBool("pin-edges", false);
    for (size_t i = 0; i < specs.size(); ++i) {
      outputs.push_back(std::make_shared<JobOutput>());
      ids.push_back(scheduler->Submit(MakeDeviceJob(specs[i], *dev, *disk, *disk, jcfg,
                                                    "job" + std::to_string(i),
                                                    outputs.back())));
    }
    source = std::move(dev);
  } else {
    std::fprintf(stderr, "unknown --engine=%s\n%s", engine_name.c_str(), kUsage);
    return 2;
  }

  // Publish the scheduler to the telemetry endpoints for the whole batch
  // (the scope's destructor clears the pointer on every exit path; the
  // explicit clear below precedes the normal-path scheduler.reset()).
  LiveSchedulerScope live_jobs(scheduler.get());
  scheduler->RunAll();

  for (size_t i = 0; i < specs.size(); ++i) {
    JobReport report = scheduler->report(ids[i]);
    std::printf("job %-24s %s: %s (%llu rounds, queued %s, ran %s)\n",
                report.name.c_str(), JobStateName(report.state),
                outputs[i]->summary.c_str(),
                static_cast<unsigned long long>(report.rounds),
                HumanDuration(report.queue_seconds).c_str(),
                HumanDuration(report.run_seconds).c_str());
  }
  SchedulerStats ss = scheduler->stats();
  std::printf("scan sharing: %s edge bytes streamed once for %llu partition scans; "
              "%llu extra scatter passes served (%s of naive re-reads avoided)\n",
              HumanBytes(ss.shared_scan_bytes).c_str(),
              static_cast<unsigned long long>(ss.partition_scans),
              static_cast<unsigned long long>(ss.scans_saved),
              HumanBytes(ss.saved_scan_bytes).c_str());
  if (ss.budget_resplits > 0) {
    std::printf("admission: %llu budget re-splits across active jobs\n",
                static_cast<unsigned long long>(ss.budget_resplits));
  }
  if (ss.edge_reads_avoided_bytes > 0) {
    std::printf("edge pinning: %s scan bytes served from the shared pinned-edge cache\n",
                HumanBytes(ss.edge_reads_avoided_bytes).c_str());
  }
  // Finished job accountants live in the registry's retired ring; the scan
  // source's accountant is still live — both show up here.
  MaybePrintExplain(opts);

  // --stats-json in batch mode: one document with a per-job array (each job's
  // RunStats uses the same schema as a solo run), the scheduler's scan-sharing
  // totals, and the registry snapshot.
  std::string stats_path = opts.GetString("stats-json", "");
  if (!stats_path.empty()) {
    for (size_t i = 0; i < specs.size(); ++i) {
      outputs[i]->stats.PublishTo("job." + scheduler->report(ids[i]).name);
    }
    if (disk != nullptr) {
      disk->PublishStats();
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("jobs").BeginArray();
    for (size_t i = 0; i < specs.size(); ++i) {
      JobReport report = scheduler->report(ids[i]);
      w.BeginObject();
      w.Field("name", std::string_view(report.name));
      w.Field("state", std::string_view(JobStateName(report.state)));
      w.Field("rounds", report.rounds);
      w.Field("queue_seconds", report.queue_seconds);
      w.Field("run_seconds", report.run_seconds);
      w.Key("stats").Raw(outputs[i]->stats.ToJson(/*include_iterations=*/false));
      w.EndObject();
    }
    w.EndArray();
    w.Key("scheduler").BeginObject();
    w.Field("partition_scans", ss.partition_scans);
    w.Field("scans_saved", ss.scans_saved);
    w.Field("shared_scan_bytes", ss.shared_scan_bytes);
    w.Field("saved_scan_bytes", ss.saved_scan_bytes);
    w.Field("budget_resplits", ss.budget_resplits);
    w.Field("edge_reads_avoided_bytes", ss.edge_reads_avoided_bytes);
    w.EndObject();
    w.Key("attribution").Raw(obs::AttributionRegistry::Global().ToJson());
    w.Key("metrics").Raw(obs::MetricsRegistry::Global().ToJson());
    w.EndObject();
    WriteJsonFile(stats_path, w.str());
  }

  {
    std::lock_guard<std::mutex> lock(g_live.mu);
    g_live.scheduler = nullptr;  // the scheduler dies on the next line
  }
  scheduler.reset();  // retire before the source/devices it scans
  return 0;
}

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);

  // --trace: switch the tracer on before any engine work and flush the
  // Chrome trace on every exit path (solo, --jobs, and error returns) via a
  // scope guard. --trace-sample / --trace-ring bound its cost and memory
  // and imply tracing on even without a --trace file (the span tail stays
  // reachable through GET /trace).
  struct TraceFlusher {
    std::string path;
    ~TraceFlusher() {
      if (!path.empty() && !g_trace_flushed.exchange(true)) {
        obs::Tracer::Global().WriteChromeTrace(path);
        std::printf("trace: wrote %s (open in Perfetto or chrome://tracing)\n", path.c_str());
      }
    }
  } trace_flusher{opts.GetString("trace", "")};
  obs::Tracer::Global().set_sample_rate(opts.GetDouble("trace-sample", 1.0));
  obs::Tracer::Global().set_ring_capacity(
      static_cast<size_t>(opts.GetUint("trace-ring", 0)));
  if (!trace_flusher.path.empty() || opts.Has("trace-sample") || opts.Has("trace-ring")) {
    obs::Tracer::Global().Enable();
  }
  if (!trace_flusher.path.empty()) {
    // A killed long run keeps its timeline: flush the trace from the signal
    // handler, then re-raise so the exit status still reports the signal.
    g_signal_trace_path = trace_flusher.path;
    std::signal(SIGINT, FlushTraceOnSignal);
    std::signal(SIGTERM, FlushTraceOnSignal);
  }

  // --profile: whole-run SIGPROF sampling, folded stacks flushed to the
  // given file on every exit path (the scope guard outlives the engines).
  struct ProfileFlusher {
    std::string path;
    ~ProfileFlusher() {
      if (path.empty()) {
        return;
      }
      obs::CpuProfiler& prof = obs::CpuProfiler::Global();
      prof.Stop();
      if (prof.WriteFolded(path)) {
        std::printf("profile: wrote %llu samples to %s "
                    "(render: flamegraph.pl %s > profile.svg)\n",
                    static_cast<unsigned long long>(prof.sample_count()), path.c_str(),
                    path.c_str());
      }
    }
  } profile_flusher;
  if (opts.Has("profile")) {
    std::string path = opts.GetString("profile", "");
    int hz = static_cast<int>(opts.GetInt("profile-hz", 97));
    if (!path.empty() && obs::CpuProfiler::Global().Start(hz)) {
      profile_flusher.path = path;
    } else {
      std::fprintf(stderr, "warning: --profile unavailable%s; continuing without it\n",
#ifdef XSTREAM_DISABLE_OBS
                   " (built with -DXSTREAM_DISABLE_OBS)"
#else
                   ""
#endif
      );
    }
  }

  // --http-port: bring the telemetry endpoints up before any engine work so
  // probes see the whole run. The exporter stops (and its thread joins) at
  // scope exit, after the engines are gone.
  obs::HttpExporter exporter;
  if (opts.Has("http-port")) {
    exporter.Handle("/stats", StatsEndpoint);
    exporter.Handle("/jobs", JobsEndpoint);
    if (exporter.Start(static_cast<uint16_t>(opts.GetUint("http-port", 0)))) {
      std::printf("telemetry: listening on http://127.0.0.1:%d "
                  "(/metrics /healthz /stats /jobs /trace /attribution /profile)\n",
                  exporter.port());
      std::fflush(stdout);  // scripted probes poll this line through a pipe
    } else {
      std::fprintf(stderr,
                   "warning: telemetry endpoint unavailable%s; continuing without it\n",
#ifdef XSTREAM_DISABLE_OBS
                   " (built with -DXSTREAM_DISABLE_OBS)"
#else
                   ""
#endif
      );
    }
  }

  if (opts.GetBool("help", false) || (!opts.Has("algorithm") && !opts.Has("jobs"))) {
    std::fputs(kUsage, stdout);
    return opts.Has("algorithm") || opts.Has("jobs") ? 0 : 2;
  }

  EdgeList edges = LoadOrGenerate(opts);
  if (opts.GetBool("drop-self-loops", false)) {
    edges = RemoveSelfLoops(edges);
  }
  if (opts.GetBool("dedupe", false)) {
    edges = DeduplicateEdges(edges);
  }
  if (opts.GetBool("compact", false)) {
    edges = CompactVertexIds(edges).edges;
  }
  GraphInfo info = ScanEdges(edges);
  std::printf("graph: %s vertices, %s edge records\n", HumanCount(info.num_vertices).c_str(),
              HumanCount(info.num_edges).c_str());

  if (opts.Has("jobs")) {
    return RunJobBatch(opts, edges, info);
  }

  std::string algo = opts.GetString("algorithm", "");
  VertexId root = static_cast<VertexId>(opts.GetUint("root", 0));
  uint64_t iters = opts.GetUint("iterations", 5);

  if (algo == "wcc") {
    WithEngine<WccAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      WccResult r = RunWcc(engine);
      std::printf("result: %llu weakly connected components\n",
                  static_cast<unsigned long long>(r.num_components));
      PrintStats(opts, r.stats);
    });
  } else if (algo == "bfs") {
    WithEngine<BfsAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      BfsResult r = RunBfs(engine, root);
      std::printf("result: %llu vertices reached from %u\n",
                  static_cast<unsigned long long>(r.reached), root);
      PrintStats(opts, r.stats);
    });
  } else if (algo == "sssp") {
    WithEngine<SsspAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      SsspResult r = RunSssp(engine, root);
      uint64_t reached = 0;
      for (float d : r.dist) {
        reached += std::isfinite(d) ? 1 : 0;
      }
      std::printf("result: shortest paths to %llu vertices from %u\n",
                  static_cast<unsigned long long>(reached), root);
      PrintStats(opts, r.stats);
    });
  } else if (algo == "pagerank") {
    WithEngine<PageRankAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      PageRankResult r = RunPageRank(engine, iters);
      VertexId best = 0;
      for (VertexId v = 1; v < r.ranks.size(); ++v) {
        if (r.ranks[v] > r.ranks[best]) {
          best = v;
        }
      }
      std::printf("result: top vertex %u (rank %.3e)\n", best, r.ranks[best]);
      PrintStats(opts, r.stats);
    });
  } else if (algo == "spmv") {
    WithEngine<SpmvAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      SpmvResult r = RunSpmv(engine);
      double norm = 0;
      for (float y : r.y) {
        norm += static_cast<double>(y) * y;
      }
      std::printf("result: |A*x|_2 = %.4f\n", std::sqrt(norm));
      PrintStats(opts, r.stats);
    });
  } else if (algo == "mis") {
    WithEngine<MisAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      MisResult r = RunMis(engine);
      std::printf("result: independent set of %llu vertices\n",
                  static_cast<unsigned long long>(r.set_size));
      PrintStats(opts, r.stats);
    });
  } else if (algo == "mcst") {
    WithEngine<McstAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      McstResult r = RunMcst(engine);
      std::printf("result: spanning forest of %llu edges, weight %.4f\n",
                  static_cast<unsigned long long>(r.tree_edges), r.total_weight);
      PrintStats(opts, r.stats);
    });
  } else if (algo == "conductance") {
    WithEngine<ConductanceAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      ConductanceResult r = RunConductance(engine);
      std::printf("result: conductance %.4f (%llu cross edges)\n", r.conductance,
                  static_cast<unsigned long long>(r.cross_edges));
      PrintStats(opts, r.stats);
    });
  } else if (algo == "bp") {
    WithEngine<BpAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      BpResult r = RunBp(engine, iters);
      std::printf("result: %llu confident vertices\n",
                  static_cast<unsigned long long>(r.confident));
      PrintStats(opts, r.stats);
    });
  } else if (algo == "hyperanf") {
    WithEngine<HyperAnfAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      HyperAnfResult r = RunHyperAnf(engine);
      std::printf("result: neighborhood function converged after %u steps; N = %s\n",
                  r.steps, HumanCount(static_cast<uint64_t>(
                               r.neighborhood_function.back())).c_str());
      PrintStats(opts, r.stats);
    });
  } else if (algo == "kcore") {
    uint32_t k = static_cast<uint32_t>(opts.GetUint("k", 8));
    WithEngine<KCoreAlgorithm>(opts, edges, info.num_vertices, [&](auto& engine) {
      KCoreResult r = RunKCore(engine, k);
      std::printf("result: %u-core has %llu vertices\n", k,
                  static_cast<unsigned long long>(r.core_size));
      PrintStats(opts, r.stats);
    });
  } else if (algo == "scc") {
    EdgeList flagged = MakeSccEdgeList(edges);
    GraphInfo finfo = ScanEdges(flagged);
    WithEngine<SccAlgorithm>(opts, flagged, finfo.num_vertices, [&](auto& engine) {
      SccResult r = RunScc(engine);
      std::printf("result: %llu strongly connected components (%llu FW/BW rounds)\n",
                  static_cast<unsigned long long>(r.num_sccs),
                  static_cast<unsigned long long>(r.rounds));
      engine.FinalizeStats();
      PrintStats(opts, engine.stats());
    });
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s\n%s", algo.c_str(), kUsage);
    return 2;
  }
  return 0;
}
