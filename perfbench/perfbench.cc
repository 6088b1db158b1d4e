// perfbench: the repository benchmark's driver binary. Run it through
// run.py, which builds it, runs it, and keeps the metrics BENCHMARK.json
// names.
//
//   perfbench --workload=mem-pagerank|ssd-wcc|serve-mix --seed=N --seconds=S
//             --trace=0|1 --workdir=DIR [--trace-out=FILE] [--tiny]
//             [--inject-wrong]
//
// Every workload builds its engine or service exactly as the CLI or daemon
// flags quoted at its function would, runs it through the library's public
// API, and checks each result against the src/graph/reference.h oracles.
// Plain runs (--trace=0) give the end-to-end metrics. Traced runs
// (--trace=1) probe the hardware ceilings first, spend half their time on
// plain repetitions (for the tracing overhead and the result comparison)
// and half on repetitions with the benchmark's own spans around the calls
// into each layer, and report the per-layer metrics. The program's own
// tracer stays off in both.
//
// Inputs are RMAT graphs, edge factor 16, undirected, generated from --seed
// once per run and reused by every repetition. Generation, the oracles and
// the write of the input into the SSD model stay outside every timed
// region. --tiny shrinks every input (the self-check); --inject-wrong
// corrupts one value of every result before it is checked, so each
// repetition must be reported as a failed operation.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}} with every metric below.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "bench_common.h"
#include "buffers/shuffler.h"
#include "core/hybrid_engine.h"
#include "core/inmem_engine.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "obs/http_exporter.h"
#include "probes.h"
#include "serve/service.h"
#include "spans.h"
#include "storage/posix_device.h"
#include "storage/sim_device.h"
#include "threads/thread_pool.h"
#include "timing_device.h"
#include "util/json.h"
#include "util/options.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace xstream;

constexpr int kThreads = 4;              // every workload's --threads
constexpr size_t kIoUnit = 1 << 20;      // the CLI's and the daemon's I/O unit
constexpr uint64_t kPageRankRounds = 5;  // --iterations=5
constexpr int kServeQueries = 48;        // queries per serve-mix batch
constexpr int kServeInFlight = 4;        // closed loop: queries kept in flight
constexpr size_t kServeRoots = 12;       // one root per bfs (and sssp) query
constexpr int kServeExtraMounts = 12;    // mount-only repetitions per plain run
constexpr double kServeBatchDeadline = 60.0;  // seconds
// PageRank runs in float against the double oracle; five rounds of float
// sums stay far inside this relative bound.
constexpr double kPageRankTolerance = 1e-3;
// SSSP sums float weights along each path; the oracle sums doubles.
constexpr double kSsspTolerance = 1e-5;
// Layer self-times must account for a traced solve to within this share.
constexpr double kUnaccountedTolerance = 0.05;
constexpr char kInputFile[] = "cli.input";  // the CLI's name for the input

// ---- Settings and inputs ---------------------------------------------------

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool inject_wrong = false;
  std::string workdir;
  std::string trace_out;
};

// RMAT scale per workload: 2^scale vertices, 2^(scale+5) edge records.
struct Scales {
  uint32_t pagerank;
  uint32_t wcc;
  uint32_t serve;
};

Scales ScalesFor(const Settings& s) {
  return s.tiny ? Scales{12, 12, 10} : Scales{20, 18, 15};
}

EdgeList MakeInput(uint32_t scale, uint64_t seed) {
  RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  params.undirected = true;
  params.seed = seed;
  return GenerateRmat(params);
}

// ---- Metrics ---------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> EndToEndMetrics() {
  return {{"setup_s", "s"},   {"solve_s", "s"},    {"peak_mem_mb", "MB"},
          {"job_p50_s", "s"}, {"job_tail_s", "s"}};
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> defs = {
      {"ceiling.llc_mb", "MB"},
      {"ceiling.mem_working_set_mb", "MB"},
      {"ceiling.mem_read_gbps", "GB/s"},
      {"ceiling.mem_write_gbps", "GB/s"},
      {"ceiling.mem_copy_gbps", "GB/s"},
      {"ceiling.ssd_read_gbps", "GB/s"},
      {"ceiling.ssd_append_gbps", "GB/s"},
      {"ceiling.posix_read_gbps", "GB/s"},
      {"ceiling.posix_append_gbps", "GB/s"},
      {"driver.iter_s", "s"},
      {"driver.computed_gbps", "GB/s"},
      {"driver.mem_efficiency", "ratio"},
      {"driver.wasted_edge_pct", "%"},
      {"driver.init_s", "s"},
      {"driver.scatter_s", "s"},
      {"driver.gather_s", "s"},
      {"driver.extract_s", "s"},
      {"driver.unaccounted_s", "s"},
      {"store.vertex_load_s", "s"},
      {"store.scan_wait_s", "s"},
      {"store.drain_s", "s"},
      {"store.spill_wait_s", "s"},
      {"store.gather_wait_s", "s"},
      {"store.update_file_mb", "MB"},
      {"residency.pinned_setup", "count"},
      {"residency.pinned_end", "count"},
      {"residency.promotions", "count"},
      {"residency.migration_mb", "MB"},
      {"residency.avoided_mb", "MB"},
  };
  for (const char* role : TimingDevice::kRoleNames) {
    for (const char* op : TimingDevice::kOpNames) {
      std::string base = std::string("storage.") + role + "_" + op;
      defs.push_back({base + "_mb", "MB"});
      defs.push_back({base + "_requests", "count"});
      defs.push_back({base + "_busy_s", "s"});
      defs.push_back({base + "_gbps", "GB/s"});
    }
  }
  std::vector<MetricDef> rest = {
      {"storage.errors", "count"},
      {"storage.read_util", "ratio"},
      {"storage.write_util", "ratio"},
      {"buffers.shuffle_gbps", "GB/s"},
      {"buffers.shuffle_vs_copy", "ratio"},
      {"threads.steals", "count"},
      {"proc.cpu_s", "s"},
      {"proc.cpu_util", "ratio"},
      {"setup.edges_per_s", "1/s"},
      {"scheduler.queue_p50_s", "s"},
      {"scheduler.run_p50_s", "s"},
      {"scheduler.scan_sharing", "ratio"},
      {"scheduler.shared_scan_gb", "GB"},
      {"serve.submit_ms", "ms"},
      {"serve.poll_ms", "ms"},
      {"serve.result_ms", "ms"},
      {"serve.result_mb_per_s", "MB/s"},
      {"serve.requests", "count"},
      {"serve.rejected", "count"},
      {"job.samples", "count"},
      {"job.tail_pct", "%"},
      {"trace.solve_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

// Every metric of both kinds, zero until a workload sets it: a layer that
// does no work in a workload reports 0 there.
class Report {
 public:
  Report() {
    for (const auto& defs : {EndToEndMetrics(), PerLayerMetrics()}) {
      for (const MetricDef& d : defs) {
        metrics_[d.name] = Metric{0.0, d.unit};
      }
    }
  }

  void Set(const std::string& name, double value) {
    auto it = metrics_.find(name);
    XS_CHECK(it != metrics_.end()) << "unknown metric " << name;
    it->second.value = std::isfinite(value) ? value : 0.0;
  }

  // One checked operation: a solve, or a query.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("FAILED: %s\n", what.c_str());
    }
  }

  void Print() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  }

  std::string ToJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Field("correct", failed_ == 0 && attempted_ > 0);
    w.Field("attempted", attempted_);
    w.Field("failed", failed_);
    w.Key("metrics").BeginObject();
    for (const auto& [name, m] : metrics_) {
      w.Key(name).BeginObject();
      w.Field("value", m.value);
      w.Field("unit", std::string_view(m.unit));
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.TakeString();
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it. With fewer
// than 21 samples no percentile above the median qualifies, and the median
// is reported.
double TailValue(std::vector<double> v, double* percentile) {
  if (v.size() < 21) {
    *percentile = 50.0;
    return Median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  size_t index = v.size() - 11;
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(v.size());
  return v[index];
}

// Repeats rep() until `seconds` have passed, at least `min_reps` times; a
// repetition expected to end well past the deadline is not started.
template <typename Rep>
void Repeat(double seconds, int min_reps, Rep&& rep) {
  WallTimer clock;
  for (int n = 0;; ++n) {
    double elapsed = clock.Seconds();
    double mean = n > 0 ? elapsed / n : 0.0;
    if (n >= min_reps && elapsed + 0.5 * mean >= seconds) {
      return;
    }
    rep();
  }
}

// Repeat() for a run's plain repetitions, plus a first warm-up repetition
// that rep() still checks but `samples` drops: it primes the allocator, the
// kernel's page pools and the caches, which later repetitions find warm.
template <typename T, typename Rep>
void MeasurePlain(const Settings& s, int min_reps, std::vector<T>& samples, Rep&& rep) {
  Repeat(s.trace ? s.seconds / 2 : s.seconds, min_reps + 1,
         [&] { samples.push_back(rep()); });
  samples.erase(samples.begin());
}

// One timed repetition: set up, solve, tear down.
struct RepSample {
  double setup_s = 0.0;
  double solve_s = 0.0;
  double cpu_s = 0.0;
  double peak_bytes = 0.0;
  RunStats stats;
};

// Which percentile job_tail_s is, out of how many jobs.
void SetJobSampling(const std::vector<double>& job_latencies, Report& r) {
  double pct = 0.0;
  TailValue(job_latencies, &pct);
  r.Set("job.samples", static_cast<double>(job_latencies.size()));
  r.Set("job.tail_pct", pct);
}

// End-to-end metrics from plain repetitions. A solo workload's solve is one
// job, so its job latencies are its solve times.
void SetEndToEnd(const std::vector<RepSample>& plain, const std::vector<double>& job_latencies,
                 Report& r) {
  std::vector<double> setup;
  std::vector<double> solve;
  std::vector<double> peak;
  std::printf("repetitions (setup_s/solve_s):");
  for (const RepSample& s : plain) {
    setup.push_back(s.setup_s);
    solve.push_back(s.solve_s);
    peak.push_back(s.peak_bytes / 1e6);
    std::printf(" %.4f/%.4f", s.setup_s, s.solve_s);
  }
  std::printf("\n");
  double pct = 0.0;
  r.Set("setup_s", Median(setup));
  r.Set("solve_s", Median(solve));
  r.Set("peak_mem_mb", Median(peak));
  r.Set("job_p50_s", Median(job_latencies));
  r.Set("job_tail_s", TailValue(job_latencies, &pct));
  SetJobSampling(job_latencies, r);
}

std::vector<double> SolveTimes(const std::vector<RepSample>& reps) {
  std::vector<double> out;
  for (const RepSample& s : reps) {
    out.push_back(s.solve_s);
  }
  return out;
}

// Per-layer figures every traced run reports.
void SetCommonLayers(const std::vector<RepSample>& plain, const std::vector<RepSample>& traced,
                     uint64_t edges, Report& r) {
  std::vector<double> setup;
  std::vector<double> cpu;
  std::vector<double> util;
  for (const RepSample& s : traced) {
    setup.push_back(s.setup_s);
    cpu.push_back(s.cpu_s);
    util.push_back(s.cpu_s / (s.solve_s * kThreads));
  }
  double traced_solve = Median(SolveTimes(traced));
  double plain_solve = Median(SolveTimes(plain));
  r.Set("trace.solve_s", traced_solve);
  r.Set("trace.overhead_pct", 100.0 * (traced_solve - plain_solve) / plain_solve);
  r.Set("setup.edges_per_s", static_cast<double>(edges) / Median(setup));
  r.Set("proc.cpu_s", Median(cpu));
  r.Set("proc.cpu_util", Median(util));
}

// ---- Ceilings (traced runs only) ---------------------------------------------

struct Ceilings {
  MemoryCeilings mem;
  DeviceCeilings ssd;
  DeviceCeilings posix;
};

Ceilings ProbeCeilings(const Settings& s, Report& r) {
  Ceilings c;
  const uint64_t llc = LastLevelCacheBytes();
  // The working set spans at least four times the last-level cache.
  const uint64_t working_set = s.tiny ? (64ull << 20) : 4 * llc;
  c.mem = ProbeMemory(kThreads, working_set, 3);
  WallClockSimDevice ssd("ssd-ceiling", DeviceProfile::Ssd());
  c.ssd = ProbeDevice(ssd, s.tiny ? (4ull << 20) : (32ull << 20), kIoUnit);
  {
    PosixDevice posix("posix-ceiling", s.workdir);
    c.posix = ProbeDevice(posix, s.tiny ? (8ull << 20) : (128ull << 20), kIoUnit);
  }
  r.Set("ceiling.llc_mb", static_cast<double>(llc) / 1e6);
  r.Set("ceiling.mem_working_set_mb", static_cast<double>(working_set) / 1e6);
  r.Set("ceiling.mem_read_gbps", c.mem.read_gbps);
  r.Set("ceiling.mem_write_gbps", c.mem.write_gbps);
  r.Set("ceiling.mem_copy_gbps", c.mem.copy_gbps);
  r.Set("ceiling.ssd_read_gbps", c.ssd.read_gbps);
  r.Set("ceiling.ssd_append_gbps", c.ssd.append_gbps);
  r.Set("ceiling.posix_read_gbps", c.posix.read_gbps);
  r.Set("ceiling.posix_append_gbps", c.posix.append_gbps);
  return c;
}

// ---- Traced solve ------------------------------------------------------------

// Run()'s loop and stop rules (core/phase_runtime.h) with spans around the
// driver's public pieces. Device-shaped stores are driven piece by piece,
// exactly as RunIteration composes them; the partition-parallel shape has
// no public piece below RunIteration.
template <typename Engine, typename Algo>
RunStats TracedRun(Engine& engine, Algo& algo, uint64_t max_iterations, SpanLog* log) {
  auto& driver = engine.driver();
  WallTimer timer;
  {
    ScopedSpan span(log, "init");
    driver.InitVertices(algo);
  }
  while (driver.stats().iterations < max_iterations) {
    const int64_t iter = static_cast<int64_t>(driver.stats().iterations);
    ScopedSpan iteration(log, "iteration", iter);
    IterationStats st;
    if constexpr (Engine::Store::kPartitionParallel) {
      ScopedSpan span(log, "run_iteration", iter);
      st = driver.RunIteration(algo);
    } else {
      {
        ScopedSpan span(log, "begin_iteration", iter);
        driver.BeginIterationScatter(algo);
      }
      auto& store = engine.store();
      for (uint32_t p = 0; p < driver.layout().num_partitions(); ++p) {
        if (!driver.PartitionNeedsScatter(p)) {
          continue;
        }
        {
          ScopedSpan span(log, "vertex_load", p);
          driver.BeginScatterPartition(p);
        }
        {
          ScopedSpan span(log, "scan", p);
          store.ForEachEdgeChunk(p, [&](const Edge* es, uint64_t n) {
            ScopedSpan chunk(log, "scatter", p);
            driver.ScatterChunk(algo, es, n);
          });
        }
        ScopedSpan span(log, "drain", p);
        driver.EndScatterPartition(algo);
      }
      ScopedSpan span(log, "gather", iter);
      st = driver.FinishIterationScatter(algo);
    }
    if (st.updates_generated == 0) {
      break;
    }
    if constexpr (HasDone<Algo>) {
      if (algo.Done(st)) {
        break;
      }
    }
  }
  driver.stats().compute_seconds += timer.Seconds();
  driver.FinalizeStats();
  return driver.stats();
}

// Computed bytes the iterations moved through memory: the edge scan, plus
// each update appended, moved once per shuffle stage (read and write) and
// read by gather. From record sizes only; cache misses are not counted.
double ComputedBytes(const RunStats& stats, size_t update_bytes, uint32_t shuffle_stages) {
  return static_cast<double>(stats.edges_streamed) * sizeof(Edge) +
         static_cast<double>(stats.updates_generated) * static_cast<double>(update_bytes) *
             (2.0 + 2.0 * shuffle_stages);
}

// Layer times of one traced solve, from the span names TracedRun uses.
struct DriverSpans {
  std::vector<double> iterations;
  double init_s = 0.0;
  double extract_s = 0.0;
  double vertex_load_s = 0.0;
  double scan_wait_s = 0.0;
  double scatter_s = 0.0;
  double drain_s = 0.0;
  double gather_s = 0.0;
  double unaccounted_s = 0.0;
  double solve_s = 0.0;

  static DriverSpans From(const SpanLog& log) {
    DriverSpans d;
    d.iterations = log.Durations("iteration");
    d.init_s = log.Total("init") + log.Total("begin_iteration");
    d.extract_s = log.Total("extract");
    d.vertex_load_s = log.Total("vertex_load");
    d.scan_wait_s = log.SelfTotal("scan");
    d.scatter_s = log.Total("scatter");
    d.drain_s = log.Total("drain");
    d.gather_s = log.Total("gather");
    d.unaccounted_s = log.SelfTotal("solve") + log.SelfTotal("iteration");
    d.solve_s = log.Total("solve");
    return d;
  }

  double IterationSeconds() const {
    double total = 0.0;
    for (double d : iterations) {
      total += d;
    }
    return total;
  }
};

// The per-layer figures of a traced solo workload. `reps` holds the spans of
// each traced repetition, in the order of `traced`.
void SetSoloLayers(const std::vector<RepSample>& plain, const std::vector<RepSample>& traced,
                   const std::vector<DriverSpans>& reps, uint64_t edges, size_t update_bytes,
                   uint32_t shuffle_stages, const Ceilings& c, Report& r) {
  SetCommonLayers(plain, traced, edges, r);
  SetJobSampling(SolveTimes(traced), r);
  const RunStats& st = traced.back().stats;
  r.Set("driver.wasted_edge_pct", st.WastedEdgePercent());
  const double computed_gbps = ComputedBytes(st, update_bytes, shuffle_stages) /
                               reps.back().IterationSeconds() / 1e9;
  r.Set("driver.computed_gbps", computed_gbps);
  r.Set("driver.mem_efficiency", computed_gbps / c.mem.copy_gbps);

  auto median = [&](double DriverSpans::*field) {
    std::vector<double> v;
    for (const DriverSpans& d : reps) {
      v.push_back(d.*field);
    }
    return Median(v);
  };
  std::vector<double> iters;
  for (const DriverSpans& d : reps) {
    iters.insert(iters.end(), d.iterations.begin(), d.iterations.end());
    if (d.unaccounted_s > kUnaccountedTolerance * d.solve_s) {
      std::printf("warning: spans leave %.1f%% of a traced solve unaccounted\n",
                  100.0 * d.unaccounted_s / d.solve_s);
    }
  }
  r.Set("driver.iter_s", Median(iters));
  r.Set("driver.init_s", median(&DriverSpans::init_s));
  r.Set("driver.extract_s", median(&DriverSpans::extract_s));
  r.Set("driver.scatter_s", median(&DriverSpans::scatter_s));
  r.Set("driver.gather_s", median(&DriverSpans::gather_s));
  r.Set("driver.unaccounted_s", median(&DriverSpans::unaccounted_s));
  r.Set("store.vertex_load_s", median(&DriverSpans::vertex_load_s));
  r.Set("store.scan_wait_s", median(&DriverSpans::scan_wait_s));
  r.Set("store.drain_s", median(&DriverSpans::drain_s));
}

// The spans of every traced repetition, written as one Chrome trace
// (one pid per repetition) when the benchmark ends.
class TraceFile {
 public:
  TraceFile() { doc_.BeginObject().Key("traceEvents").BeginArray(); }

  void Add(const SpanLog& log) { log.AppendChromeEvents(doc_, ++reps_); }

  void Write(const std::string& path) {
    if (path.empty() || reps_ == 0) {
      return;
    }
    doc_.EndArray().EndObject();
    if (WriteJsonFile(path, doc_.str())) {
      std::printf("spans: wrote %s\n", path.c_str());
    }
  }

 private:
  JsonWriter doc_;
  int reps_ = 0;
};

// ---- mem-pagerank ------------------------------------------------------------

bool RanksClose(const std::vector<float>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t v = 0; v < got.size(); ++v) {
    if (!(std::fabs(got[v] - want[v]) <= kPageRankTolerance * want[v])) {
      return false;
    }
  }
  return true;
}

// xstream_cli --algorithm=pagerank --iterations=5 --threads=4: the CLI's
// in-memory branch with auto partitions and fanout.
void MemPageRank(const Settings& s, const Ceilings* ceilings, TraceFile& trace, Report& r) {
  using Engine = InMemoryEngine<PageRankAlgorithm>;
  EdgeList edges = MakeInput(ScalesFor(s).pagerank, s.seed);
  const GraphInfo info = ScanEdges(edges);
  std::vector<double> expected;
  {
    ReferenceGraph g(edges, info.num_vertices);
    expected = ReferencePageRank(g, static_cast<int>(kPageRankRounds));
  }
  std::printf("mem-pagerank: RMAT scale %u, %llu vertices, %llu edge records\n",
              ScalesFor(s).pagerank, static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges));

  InMemoryConfig config;
  config.threads = kThreads;

  uint32_t partitions = 0;
  uint32_t fanout = 0;
  struct PageRankRep {
    RepSample sample;
    std::vector<float> ranks;
  };
  auto rep = [&](SpanLog* log) {
    PageRankRep out;
    PeakMemory mem;
    mem.Begin();
    WallTimer timer;
    auto engine = std::make_unique<Engine>(config, edges, info.num_vertices);
    out.sample.setup_s = timer.Seconds();
    partitions = engine->num_partitions();
    fanout = engine->shuffle_fanout();
    double cpu0 = ProcessCpuSeconds();
    timer.Reset();
    PageRankResult result;
    if (log == nullptr) {
      result = RunPageRank(*engine, kPageRankRounds);
    } else {
      // RunPageRank (algorithms/pagerank.h) with spans.
      ScopedSpan solve(log, "solve");
      PageRankAlgorithm algo(engine->num_vertices(), kPageRankRounds);
      result.stats = TracedRun(*engine, algo, kPageRankRounds + 1, log);
      ScopedSpan extract(log, "extract");
      result.ranks.resize(engine->num_vertices());
      engine->VertexFold(0, [&result](int acc, VertexId v,
                                      const PageRankAlgorithm::VertexState& st) {
        result.ranks[v] = st.rank;
        return acc;
      });
    }
    out.sample.solve_s = timer.Seconds();
    out.sample.cpu_s = ProcessCpuSeconds() - cpu0;
    out.sample.peak_bytes = static_cast<double>(mem.GrowthBytes());
    out.sample.stats = result.stats;
    out.ranks = std::move(result.ranks);
    if (s.inject_wrong) {
      out.ranks[0] += 1.0f;
    }
    return out;
  };

  std::vector<RepSample> plain;
  PageRankRep last_plain;
  MeasurePlain(s, s.trace ? 1 : 3, plain, [&] {
    last_plain = rep(nullptr);
    r.Check(RanksClose(last_plain.ranks, expected), "pagerank ranks differ from the oracle");
    return last_plain.sample;
  });
  std::printf("engine: in-memory, %u partitions, fanout %u\n", partitions, fanout);
  if (!s.trace) {
    SetEndToEnd(plain, SolveTimes(plain), r);
    return;
  }

  // In-memory PageRank sums floats in scatter-arrival order, which varies
  // run to run, so traced and plain ranks agree within the oracle's bound;
  // the volumes streamed agree exactly.
  std::vector<RepSample> traced;
  std::vector<DriverSpans> spans;
  Repeat(s.seconds / 2, 1, [&] {
    SpanLog log;
    PageRankRep t = rep(&log);
    const RunStats& a = t.sample.stats;
    const RunStats& b = last_plain.sample.stats;
    r.Check(RanksClose(t.ranks, expected) && a.iterations == b.iterations &&
                a.edges_streamed == b.edges_streamed &&
                a.updates_generated == b.updates_generated,
            "traced pagerank differs from the oracle or from the plain run");
    traced.push_back(t.sample);
    spans.push_back(DriverSpans::From(log));
    trace.Add(log);
  });
  const uint32_t stages =
      partitions <= 1 ? 0 : (CeilLog2(partitions) + CeilLog2(fanout) - 1) / CeilLog2(fanout);
  SetSoloLayers(plain, traced, spans, info.num_edges, sizeof(PageRankAlgorithm::Update), stages,
                *ceilings, r);
  std::vector<double> steals;
  for (const RepSample& t : traced) {
    steals.push_back(static_cast<double>(t.stats.steals));
  }
  r.Set("threads.steals", Median(steals));

  // Shuffle kernel probe: one iteration's rank updates (one per edge
  // record, in scan order) through ShuffleRecords with the engine's
  // partition count and fanout, on a pool of the engine's size.
  using Update = PageRankAlgorithm::Update;
  std::vector<Update> a(edges.size());
  std::vector<Update> b(edges.size());
  ThreadPool pool(kThreads);
  PartitionLayout layout(info.num_vertices, partitions);
  std::vector<double> gbps;
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < edges.size(); ++i) {
      a[i] = Update{edges[i].dst, edges[i].weight};
    }
    WallTimer timer;
    ShuffleOutput<Update> out =
        ShuffleRecords(pool, a.data(), b.data(), a.size(), partitions, fanout,
                       [&layout](const Update& u) { return layout.PartitionOf(u.dst); });
    double seconds = timer.Seconds();
    gbps.push_back(2.0 * out.stages_run * static_cast<double>(a.size()) * sizeof(Update) /
                   seconds / 1e9);
  }
  r.Set("buffers.shuffle_gbps", Median(gbps));
  r.Set("buffers.shuffle_vs_copy", Median(gbps) / ceilings->mem.copy_gbps);
}

// ---- ssd-wcc -----------------------------------------------------------------

// Writes the input edge file into a model without its wall-clock service
// time: this is input preparation, outside every timed region. The bytes
// are exactly what WriteEdgeFile stores.
void FillInput(SimDevice& dev, const EdgeList& edges) {
  FileId f = dev.Create(kInputFile);
  dev.SimDevice::Append(f, std::span<const std::byte>(
                               reinterpret_cast<const std::byte*>(edges.data()),
                               edges.size() * sizeof(Edge)));
}

// xstream_cli --algorithm=wcc --engine=hybrid --partitions=8 --threads=4
// --memory-budget=B: the CLI's hybrid branch with every other flag at its
// default.
HybridConfig CliHybridConfig(uint64_t memory_budget) {
  HybridConfig c;
  c.threads = kThreads;
  c.streaming_budget_bytes = 256ull << 20;  // --budget-mb default
  c.io_unit_bytes = kIoUnit;
  c.num_partitions = 8;
  c.async_spill = true;
  c.spill_queue_depth = 2;
  c.compress_updates = false;
  c.stage_bytes = DefaultShuffleStageBytes();
  c.replan_between_iterations = true;
  c.residency_hysteresis = 2;
  c.residency_decay = 0.0;
  c.pin_edges = false;
  c.memory_budget_bytes = memory_budget;
  return c;
}

void SetStorageLayers(const TimingDevice::Snapshot& d, double solve_s, const Ceilings& c,
                      Report& r) {
  double read_bytes = 0.0;
  double write_bytes = 0.0;
  for (int role = 0; role < TimingDevice::kRoles; ++role) {
    for (int op = 0; op < TimingDevice::kOps; ++op) {
      const TimingDevice::Counter& k = d.counters[role][op];
      std::string base = std::string("storage.") + TimingDevice::kRoleNames[role] + "_" +
                         TimingDevice::kOpNames[op];
      r.Set(base + "_mb", static_cast<double>(k.bytes) / 1e6);
      r.Set(base + "_requests", static_cast<double>(k.requests));
      r.Set(base + "_busy_s", k.busy_seconds);
      r.Set(base + "_gbps",
            k.busy_seconds > 0 ? static_cast<double>(k.bytes) / k.busy_seconds / 1e9 : 0.0);
      (op == TimingDevice::kRead ? read_bytes : write_bytes) += static_cast<double>(k.bytes);
    }
  }
  r.Set("storage.errors", static_cast<double>(d.errors));
  r.Set("storage.read_util", read_bytes / solve_s / 1e9 / c.ssd.read_gbps);
  r.Set("storage.write_util", write_bytes / solve_s / 1e9 / c.ssd.append_gbps);
}

void SsdWcc(const Settings& s, const Ceilings* ceilings, TraceFile& trace, Report& r) {
  using Engine = HybridEngine<WccAlgorithm>;
  EdgeList edges = MakeInput(ScalesFor(s).wcc, s.seed);
  const GraphInfo info = ScanEdges(edges);
  const std::vector<VertexId> expected = ReferenceWcc(edges, info.num_vertices);

  // B = a quarter of the engine's FullPinBytes(), read from an engine built
  // on an instant model: the figure depends only on the layout and the
  // setup pass's edge tallies.
  uint64_t full_pin = 0;
  {
    SimDevice probe("probe", DeviceProfile::Instant());
    FillInput(probe, edges);
    Engine engine(CliHybridConfig(0), probe, probe, probe, kInputFile, info);
    full_pin = engine.FullPinBytes();
  }
  const HybridConfig config = CliHybridConfig(full_pin / 4);
  std::printf("ssd-wcc: RMAT scale %u, %llu vertices, %llu edge records, memory budget "
              "%llu of %llu bytes\n",
              ScalesFor(s).wcc, static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges),
              static_cast<unsigned long long>(config.memory_budget_bytes),
              static_cast<unsigned long long>(full_pin));

  struct WccRep {
    RepSample sample;
    std::vector<VertexId> labels;
    uint32_t pinned_setup = 0;
    TimingDevice::Snapshot io;  // during the solve; traced repetitions only
  };
  auto rep = [&](SpanLog* log) {
    WccRep out;
    // Edge, update and vertex files share one SSD model, as the CLI puts
    // them all on its one --workdir device. Traced repetitions see the
    // model through the timing decorator.
    auto ssd = std::make_unique<WallClockSimDevice>("ssd", DeviceProfile::Ssd());
    FillInput(*ssd, edges);
    std::unique_ptr<TimingDevice> timing;
    StorageDevice* dev = ssd.get();
    if (log != nullptr) {
      timing = std::make_unique<TimingDevice>(*ssd);
      dev = timing.get();
    }
    PeakMemory mem;
    mem.Begin();
    const uint64_t stored0 = ssd->StoredBytes();
    WccResult result;
    {
      StoredBytesSampler sampler(*ssd);
      WallTimer timer;
      auto engine = std::make_unique<Engine>(config, *dev, *dev, *dev, kInputFile, info);
      out.sample.setup_s = timer.Seconds();
      out.pinned_setup = engine->resident_partitions();
      TimingDevice::Snapshot before;
      if (timing != nullptr) {
        before = timing->snapshot();
      }
      double cpu0 = ProcessCpuSeconds();
      timer.Reset();
      if (log == nullptr) {
        result = RunWcc(*engine);
      } else {
        // RunWcc (algorithms/wcc.h) with spans.
        ScopedSpan solve(log, "solve");
        WccAlgorithm algo;
        result.stats = TracedRun(*engine, algo, UINT64_MAX, log);
        ScopedSpan extract(log, "extract");
        result.labels.resize(engine->num_vertices());
        engine->VertexFold(0, [&result](int acc, VertexId v,
                                        const WccAlgorithm::VertexState& st) {
          result.labels[v] = st.label;
          return acc;
        });
      }
      out.sample.solve_s = timer.Seconds();
      out.sample.cpu_s = ProcessCpuSeconds() - cpu0;
      if (timing != nullptr) {
        out.io = timing->snapshot().Since(before);
      }
      // The model keeps its files in this process's memory; those bytes
      // are the SSD's storage, not the engine's.
      uint64_t model_growth = sampler.peak() - stored0;
      uint64_t growth = mem.GrowthBytes();
      out.sample.peak_bytes =
          static_cast<double>(growth > model_growth ? growth - model_growth : 0);
    }
    out.sample.stats = result.stats;
    out.labels = std::move(result.labels);
    if (s.inject_wrong) {
      out.labels[0] ^= 1;
    }
    return out;
  };

  std::vector<RepSample> plain;
  WccRep last_plain;
  MeasurePlain(s, s.trace ? 1 : 3, plain, [&] {
    last_plain = rep(nullptr);
    r.Check(last_plain.labels == expected, "wcc labels differ from the oracle");
    return last_plain.sample;
  });
  if (!s.trace) {
    SetEndToEnd(plain, SolveTimes(plain), r);
    return;
  }

  std::vector<RepSample> traced;
  std::vector<DriverSpans> spans;
  WccRep last;
  Repeat(s.seconds / 2, 1, [&] {
    SpanLog log;
    last = rep(&log);
    const RunStats& a = last.sample.stats;
    const RunStats& b = last_plain.sample.stats;
    r.Check(last.labels == expected && last.labels == last_plain.labels &&
                a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
                a.update_file_bytes == b.update_file_bytes,
            "traced wcc differs from the oracle, or from the plain run's labels or "
            "device bytes");
    traced.push_back(last.sample);
    spans.push_back(DriverSpans::From(log));
    trace.Add(log);
  });
  // One single-stage shuffle per spill.
  SetSoloLayers(plain, traced, spans, info.num_edges, sizeof(WccAlgorithm::Update), 1,
                *ceilings, r);
  const RunStats& st = last.sample.stats;
  r.Set("store.spill_wait_s", st.spill_wait_seconds);
  r.Set("store.gather_wait_s", st.gather_wait_seconds);
  r.Set("store.update_file_mb", static_cast<double>(st.update_file_bytes) / 1e6);
  r.Set("residency.pinned_setup", last.pinned_setup);
  r.Set("residency.pinned_end", static_cast<double>(st.resident_partition_count));
  r.Set("residency.promotions", static_cast<double>(st.promotions));
  r.Set("residency.migration_mb", static_cast<double>(st.migration_bytes) / 1e6);
  r.Set("residency.avoided_mb", static_cast<double>(st.avoided_spill_bytes) / 1e6);
  SetStorageLayers(last.io, last.sample.solve_s, *ceilings, r);
  std::printf("device bytes per run: %llu read, %llu written, in both plain and traced runs\n",
              static_cast<unsigned long long>(st.bytes_read),
              static_cast<unsigned long long>(st.bytes_written));
}

// ---- serve-mix ---------------------------------------------------------------

// The oracle's answer to every query a batch can ask.
struct ServeReferences {
  std::vector<VertexId> roots;
  std::vector<double> pagerank;
  std::vector<VertexId> wcc;
  std::vector<std::vector<uint32_t>> bfs;  // by root
  std::vector<std::vector<double>> sssp;   // by root
};

ServeReferences MakeServeReferences(const EdgeList& edges, uint64_t num_vertices,
                                    uint64_t seed) {
  ServeReferences ref;
  ref.wcc = ReferenceWcc(edges, num_vertices);
  // Roots are distinct seeded picks from the largest component, so every
  // bfs and sssp query reaches the same vertices and only the depth of its
  // traversal depends on the root.
  std::vector<uint64_t> component_size(num_vertices, 0);
  for (VertexId label : ref.wcc) {
    ++component_size[label];
  }
  const auto giant = static_cast<VertexId>(
      std::max_element(component_size.begin(), component_size.end()) - component_size.begin());
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  while (ref.roots.size() < kServeRoots) {
    VertexId v = static_cast<VertexId>(rng() % num_vertices);
    if (ref.wcc[v] == giant &&
        std::find(ref.roots.begin(), ref.roots.end(), v) == ref.roots.end()) {
      ref.roots.push_back(v);
    }
  }
  ReferenceGraph g(edges, num_vertices);
  ref.pagerank = ReferencePageRank(g, static_cast<int>(kPageRankRounds));
  for (VertexId root : ref.roots) {
    ref.bfs.push_back(ReferenceBfsLevels(g, root));
    ref.sssp.push_back(ReferenceSssp(g, root));
  }
  return ref;
}

// Query q of a batch: algorithms cycle pagerank, wcc, bfs, sssp; tenants
// alternate; the k-th bfs and the k-th sssp query start at seeded root k.
struct QuerySpec {
  std::string algo;
  std::string tenant;
  int root_index = -1;
};

QuerySpec QueryFor(int q) {
  static const char* const kAlgos[] = {"pagerank", "wcc", "bfs", "sssp"};
  QuerySpec spec;
  spec.algo = kAlgos[q % 4];
  spec.tenant = q % 2 == 0 ? "tenant-a" : "tenant-b";
  if (spec.algo == "bfs" || spec.algo == "sssp") {
    spec.root_index = (q / 4) % static_cast<int>(kServeRoots);
  }
  return spec;
}

std::string SubmitBody(const QuerySpec& spec, const ServeReferences& ref) {
  JsonWriter w;
  w.BeginObject();
  w.Field("graph", "g");
  w.Field("algo", std::string_view(spec.algo));
  w.Field("tenant", std::string_view(spec.tenant));
  w.Key("params").BeginObject();
  if (spec.algo == "pagerank") {
    w.Field("iterations", kPageRankRounds);
  } else if (spec.root_index >= 0) {
    w.Field("root", static_cast<uint64_t>(ref.roots[static_cast<size_t>(spec.root_index)]));
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

// Checks one result body: WCC labels and BFS levels exactly, SSSP
// reachability exactly and distances within kSsspTolerance, PageRank
// within kPageRankTolerance.
bool CheckServeResult(const QuerySpec& spec, const std::string& body,
                      const ServeReferences& ref, bool inject_wrong) {
  JsonValue doc;
  if (!ParseJson(body, &doc) || doc.Get("values") == nullptr ||
      !doc.Get("values")->is_array()) {
    return false;
  }
  const std::vector<JsonValue>& values = doc.Get("values")->as_array();
  if (values.size() != ref.wcc.size()) {
    return false;
  }
  const size_t root = spec.root_index < 0 ? 0 : static_cast<size_t>(spec.root_index);
  for (size_t v = 0; v < values.size(); ++v) {
    const JsonValue& value = values[v];
    double got = value.as_double() + (inject_wrong && v == 0 ? 1.0 : 0.0);
    bool ok = false;
    if (spec.algo == "wcc") {
      ok = value.is_number() && got == static_cast<double>(ref.wcc[v]);
    } else if (spec.algo == "bfs") {
      ok = value.is_number() && got == static_cast<double>(ref.bfs[root][v]);
    } else if (spec.algo == "sssp") {
      double want = ref.sssp[root][v];
      ok = std::isinf(want) ? value.is_string() && value.as_string() == "Infinity" && got == 0.0
                            : value.is_number() &&
                                  std::fabs(got - want) <= kSsspTolerance * std::max(1.0, want);
    } else {
      ok = value.is_number() &&
           std::fabs(got - ref.pagerank[v]) <= kPageRankTolerance * ref.pagerank[v];
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

// xstream-serve --engine=out-of-core --partitions=8 --threads=4
// --workdir=DIR with every other flag at its default; one graph mounted.
serve::ServiceOptions DaemonOptions(const std::string& workdir) {
  serve::ServiceOptions o;
  o.engine = "out-of-core";
  o.workdir = workdir;
  o.threads = kThreads;
  o.partitions = 8;
  o.io_unit_bytes = kIoUnit;
  o.job_budget_bytes = 64ull << 20;  // --budget-mb default
  o.max_body_bytes = 1 << 20;
  return o;
}

obs::HttpRequest Request(const char* method, std::string path, std::string body = "") {
  obs::HttpRequest request;
  request.method = method;
  request.path = std::move(path);
  request.body = std::move(body);
  return request;
}

// One closed-loop batch against a freshly started service.
struct Batch {
  RepSample sample;                // setup = mount, solve = the whole batch
  std::vector<double> latencies;   // POST to result fetched, per answered query
  std::map<std::string, std::vector<double>> handle_s;  // Handle time by route
  double result_bytes = 0.0;
  uint64_t requests = 0;
  uint64_t rejected = 0;  // replies neither 2xx nor a 409 while running
  std::vector<JobReport> reports;
  SchedulerStats sched;
};

// The daemon's startup on an empty work directory: construct, mount the
// graph, start the pump. `exporter` carries the routes and is never bound
// to a port; it must outlive the service.
std::unique_ptr<serve::GraphService> StartService(const std::string& workdir,
                                                  serve::GraphSpec graph,
                                                  obs::HttpExporter& exporter,
                                                  double* setup_s) {
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  WallTimer timer;
  auto service = std::make_unique<serve::GraphService>(DaemonOptions(workdir));
  service->Mount(std::move(graph));
  service->Start(exporter);
  *setup_s = timer.Seconds();
  return service;
}

std::string ServeWorkdir(const Settings& s) { return s.workdir + "/serve"; }

Batch RunServeBatch(const Settings& s, const EdgeList& edges, const ServeReferences& ref,
                    SpanLog* log, Report& r) {
  Batch b;
  serve::GraphSpec graph{"g", edges};  // the daemon's loaded input
  PeakMemory mem;
  mem.Begin();
  obs::HttpExporter exporter;
  WallTimer timer;
  auto service = StartService(ServeWorkdir(s), std::move(graph), exporter, &b.sample.setup_s);

  struct InFlight {
    int query = 0;
    std::string path;
    double posted = 0.0;
    int32_t span = -1;
  };
  std::vector<std::string> bodies(kServeQueries);
  std::vector<bool> answered(kServeQueries, false);
  std::vector<InFlight> inflight;
  double cpu0 = ProcessCpuSeconds();
  timer.Reset();
  const int32_t batch_span = log != nullptr ? log->Open("batch", -1, -1) : -1;
  auto handle = [&](const char* route, const InFlight& q, const obs::HttpRequest& request) {
    const int32_t span = log != nullptr ? log->Open(route, q.query, q.span) : -1;
    double t0 = timer.Seconds();
    obs::HttpResponse resp = service->Handle(request);
    b.handle_s[route].push_back(timer.Seconds() - t0);
    ++b.requests;
    if (span >= 0) {
      log->Close(span);
    }
    return resp;
  };
  int next = 0;
  int finished = 0;
  // A job the service never finishes would keep the loop waiting forever;
  // past the deadline the unanswered queries count as failed.
  while (finished < kServeQueries && timer.Seconds() < kServeBatchDeadline) {
    while (static_cast<int>(inflight.size()) < kServeInFlight && next < kServeQueries) {
      InFlight q;
      q.query = next++;
      q.posted = timer.Seconds();
      q.span = log != nullptr ? log->Open("query", q.query, batch_span) : -1;
      obs::HttpResponse resp =
          handle("submit", q, Request("POST", "/v1/jobs", SubmitBody(QueryFor(q.query), ref)));
      JsonValue doc;
      if (resp.status != 201 || !ParseJson(resp.body, &doc) || doc.Get("id") == nullptr) {
        ++b.rejected;
        ++finished;
        if (q.span >= 0) {
          log->Close(q.span);
        }
        continue;
      }
      q.path = "/v1/jobs/" + std::to_string(doc.Get("id")->as_int()) + "/result";
      inflight.push_back(q);
    }
    bool progressed = false;
    for (size_t i = 0; i < inflight.size();) {
      const InFlight& q = inflight[i];
      obs::HttpResponse resp = handle("poll", q, Request("GET", q.path));
      if (resp.status == 409) {
        ++i;
        continue;
      }
      if (resp.status == 200) {
        // The poll that returns the result is the result fetch.
        b.handle_s["result"].push_back(b.handle_s["poll"].back());
        b.handle_s["poll"].pop_back();
        b.result_bytes += static_cast<double>(resp.body.size());
        b.latencies.push_back(timer.Seconds() - q.posted);
        bodies[static_cast<size_t>(q.query)] = std::move(resp.body);
        answered[static_cast<size_t>(q.query)] = true;
      } else {
        ++b.rejected;
      }
      if (q.span >= 0) {
        log->Close(q.span);
      }
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      ++finished;
      progressed = true;
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  b.sample.solve_s = timer.Seconds();
  b.sample.cpu_s = ProcessCpuSeconds() - cpu0;
  if (batch_span >= 0) {
    log->Close(batch_span);
  }
  JobScheduler* sched = service->scheduler("g");
  b.reports = sched->reports();
  b.sched = sched->stats();
  // The result bodies are held for checking after the batch; their pages
  // are the client's, not the service's.
  double held = 0.0;
  for (const std::string& body : bodies) {
    held += static_cast<double>((body.capacity() + 4095) / 4096 * 4096);
  }
  b.sample.peak_bytes = std::max(0.0, static_cast<double>(mem.GrowthBytes()) - held);
  service->Stop();
  service.reset();
  std::filesystem::remove_all(ServeWorkdir(s));
  for (int q = 0; q < kServeQueries; ++q) {
    QuerySpec qs = QueryFor(q);
    r.Check(answered[static_cast<size_t>(q)] &&
                CheckServeResult(qs, bodies[static_cast<size_t>(q)], ref, s.inject_wrong),
            "serve query " + std::to_string(q) + " (" + qs.algo +
                ") was refused, failed or differs from the oracle");
  }
  return b;
}

void ServeMix(const Settings& s, TraceFile& trace, Report& r) {
  EdgeList edges = MakeInput(ScalesFor(s).serve, s.seed);
  const GraphInfo info = ScanEdges(edges);
  const ServeReferences ref = MakeServeReferences(edges, info.num_vertices, s.seed);
  std::printf("serve-mix: RMAT scale %u, %llu vertices, %llu edge records, %d queries per "
              "batch, %d in flight\n",
              ScalesFor(s).serve, static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges), kServeQueries,
              kServeInFlight);

  auto samples = [](const std::vector<Batch>& batches) {
    std::vector<RepSample> out;
    for (const Batch& b : batches) {
      out.push_back(b.sample);
    }
    return out;
  };
  auto latencies = [](const std::vector<Batch>& batches) {
    std::vector<double> out;
    for (const Batch& b : batches) {
      out.insert(out.end(), b.latencies.begin(), b.latencies.end());
    }
    return out;
  };

  std::vector<Batch> plain;
  MeasurePlain(s, s.trace ? 1 : 2, plain,
               [&] { return RunServeBatch(s, edges, ref, nullptr, r); });
  if (!s.trace) {
    SetEndToEnd(samples(plain), latencies(plain), r);
    // A mount takes tens of milliseconds, so mount-only repetitions add
    // setup samples to those of the batches.
    std::vector<double> mounts;
    for (const Batch& b : plain) {
      mounts.push_back(b.sample.setup_s);
    }
    for (int i = 0; i < kServeExtraMounts; ++i) {
      obs::HttpExporter exporter;
      double setup_s = 0.0;
      StartService(ServeWorkdir(s), serve::GraphSpec{"g", edges}, exporter, &setup_s)->Stop();
      mounts.push_back(setup_s);
    }
    std::filesystem::remove_all(ServeWorkdir(s));
    r.Set("setup_s", Median(mounts));
    return;
  }

  std::vector<Batch> traced;
  Repeat(s.seconds / 2, 1, [&] {
    SpanLog log;
    traced.push_back(RunServeBatch(s, edges, ref, &log, r));
    trace.Add(log);
  });
  SetCommonLayers(samples(plain), samples(traced), info.num_edges, r);
  SetJobSampling(latencies(traced), r);
  std::map<std::string, std::vector<double>> handle_s;
  std::vector<double> queue;
  std::vector<double> run;
  std::vector<double> requests;
  double result_bytes = 0.0;
  double rejected = 0.0;
  for (const Batch& b : traced) {
    for (const auto& [route, v] : b.handle_s) {
      handle_s[route].insert(handle_s[route].end(), v.begin(), v.end());
    }
    for (const JobReport& report : b.reports) {
      queue.push_back(report.queue_seconds);
      run.push_back(report.run_seconds);
    }
    requests.push_back(static_cast<double>(b.requests));
    result_bytes += b.result_bytes;
    rejected += static_cast<double>(b.rejected);
  }
  double result_seconds = 0.0;
  for (double d : handle_s["result"]) {
    result_seconds += d;
  }
  r.Set("serve.submit_ms", 1e3 * Median(handle_s["submit"]));
  r.Set("serve.poll_ms", 1e3 * Median(handle_s["poll"]));
  r.Set("serve.result_ms", 1e3 * Median(handle_s["result"]));
  r.Set("serve.result_mb_per_s", result_bytes / result_seconds / 1e6);
  r.Set("serve.requests", Median(requests));
  r.Set("serve.rejected", rejected);
  r.Set("scheduler.queue_p50_s", Median(queue));
  r.Set("scheduler.run_p50_s", Median(run));
  const SchedulerStats& ss = traced.back().sched;
  r.Set("scheduler.scan_sharing",
        ss.partition_scans > 0 ? static_cast<double>(ss.partition_scans + ss.scans_saved) /
                                     static_cast<double>(ss.partition_scans)
                               : 0.0);
  r.Set("scheduler.shared_scan_gb", static_cast<double>(ss.shared_scan_bytes) / 1e9);
}

int Main(int argc, char** argv) {
  Options opts(argc, argv);
  Settings s;
  s.workload = opts.GetString("workload", "");
  s.seed = opts.GetUint("seed", 1);
  s.seconds = opts.GetDouble("seconds", 10.0);
  s.trace = opts.GetUint("trace", 0) != 0;
  s.tiny = opts.GetBool("tiny", false);
  s.inject_wrong = opts.GetBool("inject-wrong", false);
  s.workdir = opts.GetString("workdir", "");
  s.trace_out = opts.GetString("trace-out", "");
  if (s.workload != "mem-pagerank" && s.workload != "ssd-wcc" && s.workload != "serve-mix") {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n", s.workload.c_str());
    return 2;
  }
  if (s.workdir.empty() || !std::filesystem::is_directory(s.workdir)) {
    std::fprintf(stderr, "perfbench: --workdir must name an existing directory\n");
    return 2;
  }
  // A fixed mmap threshold (glibc's initial value) keeps large buffers
  // mmapped, and returned to the kernel on free, in every repetition, as in
  // a fresh CLI process; glibc would otherwise raise it after the first
  // repetition and serve later ones from already-faulted heap pages.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  if (!PeakMemory().Begin()) {
    std::fprintf(stderr, "perfbench: the kernel refuses to reset VmHWM, so peak memory "
                         "cannot be measured\n");
    return 1;
  }

  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d%s\n", s.workload.c_str(),
              static_cast<unsigned long long>(s.seed), s.seconds, s.trace ? 1 : 0,
              s.tiny ? ", tiny inputs" : "");
  Report report;
  TraceFile trace;
  std::optional<Ceilings> ceilings;
  if (s.trace) {
    ceilings = ProbeCeilings(s, report);
  }
  const Ceilings* c = ceilings ? &*ceilings : nullptr;
  try {
    if (s.workload == "mem-pagerank") {
      MemPageRank(s, c, trace, report);
    } else if (s.workload == "ssd-wcc") {
      SsdWcc(s, c, trace, report);
    } else {
      ServeMix(s, trace, report);
    }
  } catch (const std::exception& e) {
    // An environment failure the library raises (an I/O error, say) ends
    // the workload as one failed operation; the metrics measured so far
    // are still reported.
    report.Check(false, std::string("exception: ") + e.what());
  }
  trace.Write(s.trace_out);
  report.Print();
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
