// Fig 30 (extension beyond the paper): multi-job scan sharing.
//
// X-Stream's bet is that the sequential edge-stream scan dominates, so k
// concurrent jobs over one graph should share each scan instead of paying k
// times for it. The JobScheduler (src/scheduler/) streams every partition's
// edge chunks once per round and fans them out to all active jobs' scatter
// phases; per-job update spills and gathers stay independent. This bench
// sweeps k in {1,2,4,8} concurrent jobs (PageRank / WCC / BFS / SSSP mixes)
// on an rmat graph and compares edge-device read bytes across:
//
//   * solo / naive-sequential — one HybridEngine per job, run back to
//     back on private devices: edge reads grow ~linearly in k;
//   * naive-interleaved — one engine per job on ONE shared edge device,
//     driven one iteration each round-robin: the same byte volume, plus the
//     seek storm of k interleaved streams;
//   * shared — the scheduler: edge reads ~flat in k (bounded by the
//     longest-running job's solo volume).
//
// Acceptance (checked when run single-threaded, the default): every job's
// output is bit-identical to its solo engine run, and at k=4 the shared
// scan's edge-read bytes are <= 1.25x the largest single-job scan volume,
// versus ~4x for the naive modes.
#include "bench_common.h"

#include <cmath>
#include <functional>
#include <memory>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/hybrid_engine.h"
#include "graph/transforms.h"
#include "scheduler/algo_jobs.h"
#include "scheduler/scan_source.h"
#include "scheduler/scheduler.h"
#include "util/logging.h"

namespace xstream {
namespace {

struct BenchSetup {
  EdgeList edges;
  GraphInfo info;
  int threads = 1;
  uint32_t partitions = 8;
  size_t io_unit_bytes = 64 << 10;
};

// The fixed job mix; k jobs = the first k entries.
std::vector<JobSpec> JobsForK(size_t k) {
  static const char* kSpecs[] = {
      "pagerank:iters=5",  "wcc",           "bfs:src=0",         "sssp:src=0",
      "pagerank:iters=3",  "bfs:src=123",   "wcc:name=wcc-2",    "sssp:src=77",
  };
  std::vector<JobSpec> specs;
  for (size_t i = 0; i < k && i < sizeof(kSpecs) / sizeof(kSpecs[0]); ++i) {
    specs.push_back(ParseJobSpec(kSpecs[i]));
  }
  return specs;
}

HybridConfig EngineConfig(const BenchSetup& s, const std::string& prefix) {
  HybridConfig config;
  config.allow_vertex_memory_opt = true;
  config.threads = s.threads;
  config.io_unit_bytes = s.io_unit_bytes;
  config.num_partitions = s.partitions;
  config.file_prefix = prefix;
  return config;
}

struct SoloRun {
  JobOutput out;
  uint64_t edge_read_bytes = 0;
};

template <typename Result, typename Convert>
JobOutput ConvertResult(const Result& r, Convert&& convert) {
  JobOutput out;
  out.per_vertex.reserve(r.size());
  for (const auto& v : r) {
    out.per_vertex.push_back(convert(v));
  }
  return out;
}

// One job on its own engine and devices — both the correctness oracle and
// the naive-sequential cost model.
SoloRun RunSolo(const JobSpec& spec, const BenchSetup& s) {
  SimDevice edge_dev("edges", DeviceProfile::Ssd());
  SimDevice update_dev("updates", DeviceProfile::Ssd());
  SimDevice vertex_dev("vertices", DeviceProfile::Ssd());
  WriteEdgeFile(edge_dev, "fig30.input", s.edges);
  HybridConfig config = EngineConfig(s, "solo");
  SoloRun run;
  if (spec.algo == "pagerank") {
    HybridEngine<PageRankAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                           "fig30.input", s.info);
    run.out = ConvertResult(RunPageRank(engine, spec.iterations).ranks,
                            [](float r) { return static_cast<double>(r); });
  } else if (spec.algo == "wcc") {
    HybridEngine<WccAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                      "fig30.input", s.info);
    run.out = ConvertResult(RunWcc(engine).labels,
                            [](VertexId l) { return static_cast<double>(l); });
  } else if (spec.algo == "bfs") {
    HybridEngine<BfsAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                      "fig30.input", s.info);
    run.out = ConvertResult(RunBfs(engine, spec.root).levels,
                            [](uint32_t l) { return static_cast<double>(l); });
  } else if (spec.algo == "sssp") {
    HybridEngine<SsspAlgorithm> engine(config, edge_dev, update_dev, vertex_dev,
                                       "fig30.input", s.info);
    run.out = ConvertResult(RunSssp(engine, spec.root).dist,
                            [](float d) { return static_cast<double>(d); });
  } else {
    XS_LOG(Error) << "fig30: unsupported solo algo " << spec.algo;
    std::exit(2);
  }
  run.edge_read_bytes = edge_dev.stats().bytes_read;
  return run;
}

// Type-erased per-iteration stepping for the naive-interleaved mode.
struct InterleavedJob {
  std::function<bool()> step;  // one RunIteration; returns true when done
  std::function<JobOutput()> extract;
};

template <typename Algo, typename Extract>
InterleavedJob MakeInterleaved(std::shared_ptr<HybridEngine<Algo>> engine, Algo algo,
                               uint64_t max_iterations, Extract&& extract_state) {
  auto algo_ptr = std::make_shared<Algo>(std::move(algo));
  engine->InitVertices(*algo_ptr);
  InterleavedJob job;
  job.step = [engine, algo_ptr, max_iterations] {
    IterationStats iter = engine->RunIteration(*algo_ptr);
    if (iter.updates_generated == 0) {
      return true;
    }
    if constexpr (HasDone<Algo>) {
      if (algo_ptr->Done(iter)) {
        return true;
      }
    }
    return engine->stats().iterations >= max_iterations;
  };
  job.extract = [engine, extract_state] {
    JobOutput out;
    out.per_vertex.assign(engine->num_vertices(), 0.0);
    engine->VertexMap([&](VertexId v, const typename Algo::VertexState& st) {
      out.per_vertex[v] = extract_state(st);
    });
    return out;
  };
  return job;
}

struct ModeRun {
  uint64_t edge_read_bytes = 0;
  uint64_t edge_seeks = 0;
  double edge_busy_seconds = 0.0;
  std::vector<JobOutput> outs;
  uint64_t scans_saved = 0;
};

// k engines on ONE shared edge device, one iteration each in round-robin:
// the "just run them concurrently" strawman — same bytes as sequential, but
// the device seeks between k interleaved streams.
ModeRun RunInterleaved(const std::vector<JobSpec>& specs, const BenchSetup& s) {
  SimDevice edge_dev("edges", DeviceProfile::Ssd());
  SimDevice update_dev("updates", DeviceProfile::Ssd());
  SimDevice vertex_dev("vertices", DeviceProfile::Ssd());
  WriteEdgeFile(edge_dev, "fig30.input", s.edges);
  std::vector<InterleavedJob> jobs;
  for (size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& spec = specs[i];
    HybridConfig config = EngineConfig(s, "il" + std::to_string(i));
    if (spec.algo == "pagerank") {
      auto engine = std::make_shared<HybridEngine<PageRankAlgorithm>>(
          config, edge_dev, update_dev, vertex_dev, "fig30.input", s.info);
      jobs.push_back(MakeInterleaved(engine,
                                     PageRankAlgorithm(s.info.num_vertices, spec.iterations),
                                     spec.iterations + 1,
                                     [](const PageRankAlgorithm::VertexState& st) {
                                       return static_cast<double>(st.rank);
                                     }));
    } else if (spec.algo == "wcc") {
      auto engine = std::make_shared<HybridEngine<WccAlgorithm>>(
          config, edge_dev, update_dev, vertex_dev, "fig30.input", s.info);
      jobs.push_back(MakeInterleaved(engine, WccAlgorithm{}, UINT64_MAX,
                                     [](const WccAlgorithm::VertexState& st) {
                                       return static_cast<double>(st.label);
                                     }));
    } else if (spec.algo == "bfs") {
      auto engine = std::make_shared<HybridEngine<BfsAlgorithm>>(
          config, edge_dev, update_dev, vertex_dev, "fig30.input", s.info);
      jobs.push_back(MakeInterleaved(engine, BfsAlgorithm(spec.root), UINT64_MAX,
                                     [](const BfsAlgorithm::VertexState& st) {
                                       return static_cast<double>(st.level);
                                     }));
    } else if (spec.algo == "sssp") {
      auto engine = std::make_shared<HybridEngine<SsspAlgorithm>>(
          config, edge_dev, update_dev, vertex_dev, "fig30.input", s.info);
      jobs.push_back(MakeInterleaved(engine, SsspAlgorithm(spec.root), UINT64_MAX,
                                     [](const SsspAlgorithm::VertexState& st) {
                                       return static_cast<double>(st.dist);
                                     }));
    }
  }
  std::vector<bool> done(jobs.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!done[i]) {
        done[i] = jobs[i].step();
        progress = true;
      }
    }
  }
  ModeRun run;
  for (InterleavedJob& job : jobs) {
    run.outs.push_back(job.extract());
  }
  run.edge_read_bytes = edge_dev.stats().bytes_read;
  run.edge_seeks = edge_dev.stats().seeks;
  run.edge_busy_seconds = edge_dev.stats().busy_seconds;
  return run;
}

// The scheduler: one DeviceScanSource, k attached jobs, shared scans.
ModeRun RunShared(const std::vector<JobSpec>& specs, const BenchSetup& s) {
  SimDevice edge_dev("edges", DeviceProfile::Ssd());
  SimDevice update_dev("updates", DeviceProfile::Ssd());
  SimDevice vertex_dev("vertices", DeviceProfile::Ssd());
  WriteEdgeFile(edge_dev, "fig30.input", s.edges);
  ThreadPool pool(s.threads > 0 ? s.threads : NumCores());
  PartitionLayout layout(s.info.num_vertices, s.partitions);
  DeviceScanSource::Options sopts;
  sopts.io_unit_bytes = s.io_unit_bytes;
  sopts.file_prefix = "scan";
  sopts.collect_dst_tallies = false;  // no job in this bench pins
  sopts.keep_edge_weights = JobsReadEdgeWeights(specs);
  DeviceScanSource source(pool, layout, sopts, edge_dev, "fig30.input");

  JobScheduler scheduler(source);
  DeviceJobConfig jcfg;
  jcfg.io_unit_bytes = s.io_unit_bytes;
  std::vector<std::shared_ptr<JobOutput>> outputs;
  for (size_t i = 0; i < specs.size(); ++i) {
    outputs.push_back(std::make_shared<JobOutput>());
    scheduler.Submit(MakeDeviceJob(specs[i], source, update_dev, vertex_dev, jcfg,
                                   "job" + std::to_string(i), outputs.back()));
  }
  scheduler.RunAll();

  ModeRun run;
  for (const auto& out : outputs) {
    run.outs.push_back(*out);
  }
  run.edge_read_bytes = edge_dev.stats().bytes_read;
  run.edge_seeks = edge_dev.stats().seeks;
  run.edge_busy_seconds = edge_dev.stats().busy_seconds;
  run.scans_saved = scheduler.stats().scans_saved;
  return run;
}

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

}  // namespace
}  // namespace xstream

int main(int argc, char** argv) {
  using namespace xstream;
  Options opts(argc, argv);
  BenchHeader("Figure 30", "Multi-job scheduler: shared vs naive edge scans (SSD model)",
              "shared-scan edge-read bytes stay ~flat as concurrent jobs grow, bounded "
              "by the longest job's solo volume; naive modes grow ~linearly in k, with "
              "the interleaved mode adding a seek storm; results identical to solo runs");

  bool smoke = opts.GetBool("smoke", false);
  BenchSetup s;
  // threads=1 keeps spill batches byte-deterministic so the bit-identity
  // acceptance check is exact; raise --threads to measure, not to verify.
  s.threads = static_cast<int>(opts.GetInt("threads", 1));
  s.partitions = static_cast<uint32_t>(opts.GetUint("partitions", 8));
  s.io_unit_bytes = static_cast<size_t>(opts.GetUint("io-unit-kb", smoke ? 16 : 64)) << 10;
  uint32_t scale = static_cast<uint32_t>(opts.GetUint("scale", smoke ? 12 : 16));
  uint64_t seed = opts.GetUint("seed", 1);

  s.edges = MakeRmat(scale, 16, true, seed + 1);
  s.info = ScanEdges(s.edges);
  std::printf("rmat scale %u: %s vertices, %s edge records, %u partitions, %d thread(s)\n\n",
              scale, HumanCount(s.info.num_vertices).c_str(),
              HumanCount(s.info.num_edges).c_str(), s.partitions, s.threads);

  std::vector<size_t> ks = smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};

  Table table({"k jobs", "solo max MB", "shared MB", "x solo", "naive-seq MB", "x solo",
               "interleaved MB", "il seeks", "scans saved"});
  BenchJson json(opts, "fig30");
  bool ok = true;
  for (size_t k : ks) {
    std::vector<JobSpec> specs = JobsForK(k);

    std::vector<SoloRun> solos;
    uint64_t naive_seq_bytes = 0;
    uint64_t solo_max_bytes = 0;
    for (const JobSpec& spec : specs) {
      solos.push_back(RunSolo(spec, s));
      naive_seq_bytes += solos.back().edge_read_bytes;
      solo_max_bytes = std::max(solo_max_bytes, solos.back().edge_read_bytes);
    }
    ModeRun shared = RunShared(specs, s);
    ModeRun interleaved = RunInterleaved(specs, s);

    double shared_ratio = static_cast<double>(shared.edge_read_bytes) /
                          static_cast<double>(solo_max_bytes);
    double naive_ratio = static_cast<double>(naive_seq_bytes) /
                         static_cast<double>(solo_max_bytes);
    table.AddRow({std::to_string(k), FormatDouble(Mb(solo_max_bytes), 1),
                  FormatDouble(Mb(shared.edge_read_bytes), 1), FormatDouble(shared_ratio, 2),
                  FormatDouble(Mb(naive_seq_bytes), 1), FormatDouble(naive_ratio, 2),
                  FormatDouble(Mb(interleaved.edge_read_bytes), 1),
                  std::to_string(interleaved.edge_seeks),
                  std::to_string(shared.scans_saved)});
    std::string mkey = "k" + std::to_string(k);
    json.Exact(mkey + ".solo_max_bytes", static_cast<double>(solo_max_bytes));
    json.Exact(mkey + ".shared_bytes", static_cast<double>(shared.edge_read_bytes));
    json.Exact(mkey + ".naive_seq_bytes", static_cast<double>(naive_seq_bytes));
    json.Exact(mkey + ".interleaved_bytes", static_cast<double>(interleaved.edge_read_bytes));
    json.Exact(mkey + ".scans_saved", static_cast<double>(shared.scans_saved));
    json.Ratio(mkey + ".shared_over_solo", shared_ratio);
    json.Ratio(mkey + ".naive_over_solo", naive_ratio);
    json.Info(mkey + ".interleaved_seeks", static_cast<double>(interleaved.edge_seeks));

    // --- Acceptance: identical results, flat shared-scan volume.
    if (s.threads == 1) {
      for (size_t i = 0; i < specs.size(); ++i) {
        if (shared.outs[i].per_vertex != solos[i].out.per_vertex) {
          std::printf("FAIL: k=%zu job %s (shared) diverges from its solo run\n", k,
                      specs[i].name.c_str());
          ok = false;
        }
        if (interleaved.outs[i].per_vertex != solos[i].out.per_vertex) {
          std::printf("FAIL: k=%zu job %s (interleaved) diverges from its solo run\n", k,
                      specs[i].name.c_str());
          ok = false;
        }
      }
    }
    if (shared_ratio > 1.25) {
      std::printf("FAIL: k=%zu shared scan read %.2fx the single-job volume (budget 1.25x)\n",
                  k, shared_ratio);
      ok = false;
    }
    if (k > 1 && shared.scans_saved == 0) {
      std::printf("FAIL: k=%zu shared mode saved no scans\n", k);
      ok = false;
    }
  }
  table.Print();

  std::printf("\nacceptance: solo-identical results, shared edge reads <= 1.25x single-job "
              "volume at every k: %s\n", ok ? "yes" : "NO");
  json.Exact("acceptance", ok ? 1 : 0);
  if (!json.Write()) {
    return 1;
  }
  return ok ? 0 : 1;
}
