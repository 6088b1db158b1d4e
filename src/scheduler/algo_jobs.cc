#include "scheduler/algo_jobs.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/spmv.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/phase_runtime.h"
#include "core/stream_store.h"
#include "util/logging.h"

namespace xstream {

namespace {

uint64_t ParseUint(const std::string& value, const std::string& spec) {
  XS_CHECK(!value.empty() && value.find_first_not_of("0123456789") == std::string::npos)
      << "bad number '" << value << "' in job spec '" << spec << "'";
  return std::stoull(value);
}

// ---- Per-algorithm output extraction --------------------------------------

double ExtractWcc(const WccAlgorithm::VertexState& s) { return static_cast<double>(s.label); }
double ExtractBfs(const BfsAlgorithm::VertexState& s) { return static_cast<double>(s.level); }
double ExtractPageRank(const PageRankAlgorithm::VertexState& s) {
  return static_cast<double>(s.rank);
}
double ExtractSssp(const SsspAlgorithm::VertexState& s) { return static_cast<double>(s.dist); }
double ExtractSpmv(const SpmvAlgorithm::VertexState& s) { return static_cast<double>(s.y); }

std::string SummarizeWcc(const JobOutput& out) {
  uint64_t components = 0;
  for (uint64_t v = 0; v < out.per_vertex.size(); ++v) {
    components += out.per_vertex[v] == static_cast<double>(v) ? 1 : 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 " components", components);
  return buf;
}

std::string SummarizeReached(const JobOutput& out) {
  uint64_t reached = 0;
  for (double level : out.per_vertex) {
    reached += (level != static_cast<double>(UINT32_MAX) && std::isfinite(level)) ? 1 : 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 " vertices reached", reached);
  return buf;
}

std::string SummarizePageRank(const JobOutput& out) {
  uint64_t best = 0;
  for (uint64_t v = 1; v < out.per_vertex.size(); ++v) {
    if (out.per_vertex[v] > out.per_vertex[best]) {
      best = v;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "top vertex %" PRIu64 " (rank %.3e)", best,
                out.per_vertex.empty() ? 0.0 : out.per_vertex[best]);
  return buf;
}

std::string SummarizeSpmv(const JobOutput& out) {
  double norm = 0;
  for (double y : out.per_vertex) {
    norm += y * y;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "|A*x|_2 = %.4f", std::sqrt(norm));
  return buf;
}

// ---- Generic job assembly -------------------------------------------------

template <EdgeCentricAlgorithm Algo, StreamStoreFor Store>
std::unique_ptr<ScheduledJob> FinishBuild(const JobSpec& spec, Algo algo,
                                          std::unique_ptr<Store> store, uint64_t max_iters,
                                          std::shared_ptr<JobOutput> out,
                                          double (*extract)(const typename Algo::VertexState&),
                                          std::string (*summarize)(const JobOutput&)) {
  using Driver = StreamingPhaseDriver<Algo, Store>;
  typename TypedJob<Algo, Store>::Finalizer finalize;
  if (out != nullptr) {
    finalize = [out, extract, summarize](Driver& driver, Algo&) {
      out->stats = driver.stats();
      out->per_vertex.assign(driver.layout().num_vertices(), 0.0);
      driver.VertexMap([&out, extract](VertexId v, typename Algo::VertexState& s) {
        out->per_vertex[v] = extract(s);
      });
      out->summary = summarize(*out);
    };
  }
  PhaseDriverOptions dopts;
  // Per-job gauge namespace ("job.<name>.iteration", ...) so concurrent
  // jobs' live progress does not collide on the solo "run." prefix.
  dopts.progress_prefix = "job." + spec.name;
  return std::make_unique<TypedJob<Algo, Store>>(spec.name, std::move(algo), std::move(store),
                                                 dopts, max_iters, std::move(finalize));
}

DeviceStoreOptions AttachedStoreOptions(DeviceScanSource& source, const DeviceJobConfig& cfg,
                                        const std::string& prefix) {
  DeviceStoreOptions opts;
  opts.memory_budget_bytes = cfg.memory_budget_bytes;
  opts.io_unit_bytes = cfg.io_unit_bytes;
  opts.allow_vertex_memory_opt = cfg.allow_vertex_memory_opt;
  opts.allow_update_memory_opt = cfg.allow_update_memory_opt;
  opts.absorb_local_updates = cfg.absorb_local_updates;
  opts.async_spill = cfg.async_spill;
  opts.spill_queue_depth = cfg.spill_queue_depth;
  opts.compress_updates = cfg.compress_updates;
  opts.stage_bytes = cfg.stage_bytes;
  opts.file_prefix = prefix;
  opts.pin_budget_bytes = cfg.pin_budget_bytes;
  opts.residency_hysteresis = cfg.residency_hysteresis;
  opts.residency_decay = cfg.residency_decay;
  opts.pin_edges = cfg.pin_edges;
  if (cfg.pin_edges) {
    opts.shared_edge_cache = source.EnsureEdgeCache();
  }
  source.ConfigureAttachedStore(opts);
  return opts;
}

// The driver's ScatterChunk spills before appending a chunk's worst-case
// updates, which only works if one scan-source chunk fits the job's fill
// buffer — true by construction in solo runs, checked here for the shared
// seam so a mismatched source/job I/O-unit pairing fails at submit time.
template <typename Store>
void CheckChunkFitsBuffer(const DeviceScanSource& source, const Store& store,
                          const JobSpec& spec) {
  XS_CHECK(source.MaxChunkEdges() * sizeof(typename Store::Update) <= store.buffer_bytes())
      << "job '" << spec.name << "': one scan-source chunk ("
      << source.MaxChunkEdges() << " edges) can overflow the job's "
      << store.buffer_bytes() << "-byte update buffer; lower the source "
      << "io_unit_bytes or raise the job's streaming budget/io unit";
}

template <EdgeCentricAlgorithm Algo>
std::unique_ptr<ScheduledJob> MakeDeviceJobFor(
    const JobSpec& spec, Algo algo, uint64_t max_iters,
    double (*extract)(const typename Algo::VertexState&),
    std::string (*summarize)(const JobOutput&), DeviceScanSource& source,
    StorageDevice& update_dev, StorageDevice& vertex_dev, const DeviceJobConfig& cfg,
    const std::string& prefix, std::shared_ptr<JobOutput> out) {
  XS_CHECK(source.keeps_edge_weights() || !ReadsEdgeWeight<Algo>)
      << "job '" << spec.name << "': " << spec.algo
      << " reads edge weights, but the scan source stores none (keep_edge_weights is off)";
  auto store = std::make_unique<DeviceStreamStore<Algo>>(
      source.pool(), source.layout(), AttachedStoreOptions(source, cfg, prefix),
      source.edge_device(), update_dev, vertex_dev, std::string());
  CheckChunkFitsBuffer(source, *store, spec);
  return FinishBuild(spec, std::move(algo), std::move(store), max_iters, std::move(out),
                     extract, summarize);
}

template <EdgeCentricAlgorithm Algo>
std::unique_ptr<ScheduledJob> MakeMemoryJobFor(
    const JobSpec& spec, Algo algo, uint64_t max_iters,
    double (*extract)(const typename Algo::VertexState&),
    std::string (*summarize)(const JobOutput&), MemoryScanSource& source,
    std::shared_ptr<JobOutput> out) {
  auto store = std::make_unique<MemoryStreamStore<Algo>>(source.pool(), source.layout(),
                                                         source.shared_edges());
  return FinishBuild(spec, std::move(algo), std::move(store), max_iters, std::move(out),
                     extract, summarize);
}

// Dispatches one spec through `make`, a callable invoked as
// make(algo_instance, max_iters, extract, summarize).
template <typename Make>
std::unique_ptr<ScheduledJob> DispatchAlgo(const JobSpec& spec, uint64_t num_vertices,
                                           Make&& make) {
  if (spec.algo == "wcc") {
    return make(WccAlgorithm{}, spec.max_iterations, &ExtractWcc, &SummarizeWcc);
  }
  if (spec.algo == "bfs") {
    return make(BfsAlgorithm(spec.root), spec.max_iterations, &ExtractBfs,
                &SummarizeReached);
  }
  if (spec.algo == "sssp") {
    return make(SsspAlgorithm(spec.root), spec.max_iterations, &ExtractSssp,
                &SummarizeReached);
  }
  if (spec.algo == "pagerank") {
    uint64_t iters = std::min(spec.max_iterations, spec.iterations + 1);
    return make(PageRankAlgorithm(num_vertices, spec.iterations), iters, &ExtractPageRank,
                &SummarizePageRank);
  }
  if (spec.algo == "spmv") {
    return make(SpmvAlgorithm(spec.seed), uint64_t{1}, &ExtractSpmv, &SummarizeSpmv);
  }
  XS_CHECK(false) << "unknown job algorithm '" << spec.algo << "'";
  return nullptr;
}

}  // namespace

const std::vector<std::string>& KnownJobAlgorithms() {
  static const std::vector<std::string> kKnown = {"wcc", "bfs", "sssp", "pagerank", "spmv"};
  return kKnown;
}

JobSpec ParseJobSpec(const std::string& spec) {
  JobSpec job;
  job.name = spec;
  size_t pos = spec.find(':');
  job.algo = spec.substr(0, pos);
  const auto& known = KnownJobAlgorithms();
  XS_CHECK(std::find(known.begin(), known.end(), job.algo) != known.end())
      << "unknown job algorithm in spec '" << spec << "'";
  while (pos != std::string::npos) {
    size_t next = spec.find(':', pos + 1);
    std::string kv = spec.substr(pos + 1, next == std::string::npos ? next : next - pos - 1);
    size_t eq = kv.find('=');
    XS_CHECK(eq != std::string::npos) << "expected key=value, got '" << kv << "' in job spec '"
                                      << spec << "'";
    std::string key = kv.substr(0, eq);
    std::string value = kv.substr(eq + 1);
    if (key == "src" || key == "root") {
      job.root = static_cast<VertexId>(ParseUint(value, spec));
    } else if (key == "iters" || key == "iterations") {
      job.iterations = ParseUint(value, spec);
    } else if (key == "seed") {
      job.seed = ParseUint(value, spec);
    } else if (key == "max-iters") {
      job.max_iterations = ParseUint(value, spec);
    } else if (key == "name") {
      job.name = value;
    } else {
      XS_CHECK(false) << "unknown key '" << key << "' in job spec '" << spec << "'";
    }
    pos = next;
  }
  return job;
}

std::vector<JobSpec> ParseJobList(const std::string& comma_separated) {
  std::vector<JobSpec> specs;
  size_t begin = 0;
  while (begin <= comma_separated.size()) {
    size_t end = comma_separated.find(',', begin);
    std::string one = comma_separated.substr(
        begin, end == std::string::npos ? end : end - begin);
    if (!one.empty()) {
      specs.push_back(ParseJobSpec(one));
    }
    if (end == std::string::npos) {
      break;
    }
    begin = end + 1;
  }
  XS_CHECK(!specs.empty()) << "empty job list";
  return specs;
}

bool JobsReadEdgeWeights(const std::vector<JobSpec>& specs) {
  bool reads = false;
  for (const JobSpec& spec : specs) {
    DispatchAlgo(spec, 1, [&](auto algo, uint64_t, auto, auto) {
      reads = reads || ReadsEdgeWeight<decltype(algo)>;
      return std::unique_ptr<ScheduledJob>();
    });
  }
  return reads;
}

std::unique_ptr<ScheduledJob> MakeDeviceJob(const JobSpec& spec, DeviceScanSource& source,
                                            StorageDevice& update_dev,
                                            StorageDevice& vertex_dev,
                                            const DeviceJobConfig& config,
                                            const std::string& file_prefix,
                                            std::shared_ptr<JobOutput> out) {
  uint64_t n = source.layout().num_vertices();
  return DispatchAlgo(spec, n, [&](auto algo, uint64_t max_iters, auto extract,
                                   auto summarize) {
    return MakeDeviceJobFor(spec, std::move(algo), max_iters, extract, summarize, source,
                            update_dev, vertex_dev, config, file_prefix, out);
  });
}

std::unique_ptr<ScheduledJob> MakeMemoryJob(const JobSpec& spec, MemoryScanSource& source,
                                            std::shared_ptr<JobOutput> out) {
  uint64_t n = source.layout().num_vertices();
  return DispatchAlgo(spec, n,
                      [&](auto algo, uint64_t max_iters, auto extract, auto summarize) {
                        return MakeMemoryJobFor(spec, std::move(algo), max_iters, extract,
                                                summarize, source, out);
                      });
}

}  // namespace xstream
