// Named-job factory: turn "pagerank", "bfs:src=5", ... into ScheduledJobs.
//
// Shared by the CLI's --jobs batch mode, the fig30 scan-sharing bench and
// the scheduler tests, so all three agree on job spec syntax, store wiring
// (attach mode against a scan source) and result extraction. Each job's
// output lands in a caller-held JobOutput after the scheduler finalizes it.
#ifndef XSTREAM_SCHEDULER_ALGO_JOBS_H_
#define XSTREAM_SCHEDULER_ALGO_JOBS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "graph/types.h"
#include "scheduler/job.h"
#include "scheduler/scan_source.h"
#include "storage/device.h"

namespace xstream {

// One parsed job request. Spec syntax: "<algo>[:key=value]...", e.g.
//   pagerank            pagerank:iters=10          bfs:src=42
//   wcc                 sssp:src=7                 spmv:seed=3
struct JobSpec {
  std::string algo;
  std::string name;                       // display name; defaults to the spec
  VertexId root = 0;                      // bfs / sssp
  uint64_t iterations = 5;                // pagerank rank rounds
  uint64_t seed = 0;                      // spmv input vector
  uint64_t max_iterations = UINT64_MAX;   // safety cap
};

// Aborts with a usage message on malformed specs / unknown algorithms.
JobSpec ParseJobSpec(const std::string& spec);
std::vector<JobSpec> ParseJobList(const std::string& comma_separated);
const std::vector<std::string>& KnownJobAlgorithms();

// Whether any of the jobs' algorithms reads edge weights (ReadsEdgeWeight):
// a DeviceScanSource built only for these jobs may turn keep_edge_weights
// off when none does.
bool JobsReadEdgeWeights(const std::vector<JobSpec>& specs);

// Where a finalized job delivers its results. per_vertex is indexed by
// original vertex id; the value is the algorithm's principal output (WCC
// label, BFS level, PageRank rank, SSSP distance, SpMV y).
struct JobOutput {
  std::string summary;
  std::vector<double> per_vertex;
  RunStats stats;
};

// Store/driver knobs for jobs built against a device scan source. Mirrors
// the HybridConfig fields that make sense per job.
struct DeviceJobConfig {
  uint64_t memory_budget_bytes = 64ull << 20;  // §3.4 streaming budget
  size_t io_unit_bytes = 1 << 20;
  // §3.2 optimization 1. Off keeps the job's vertices in files, which lets
  // it pin partitions when its scan source collected destination tallies;
  // the scheduler's budget re-split then drives its residency planner.
  bool allow_vertex_memory_opt = true;
  bool allow_update_memory_opt = true;
  bool absorb_local_updates = true;
  bool async_spill = true;
  int spill_queue_depth = 2;
  // Delta+varint compression of the job's spilled update streams.
  bool compress_updates = false;
  // Per-thread staging for the job's single-stage shuffles; 0 = legacy.
  size_t stage_bytes = 0;
  // Pinning jobs only (file-resident vertices, tallying scan source):
  uint64_t pin_budget_bytes = 0;  // initial; a scheduler budget overrides it
  // Iterations a partition must win/lose its pin before the incremental
  // re-plan migrates it (0 = stop-the-world full re-plan).
  uint32_t residency_hysteresis = 2;
  // EWMA decay for the planner's observed-update-volume signal (0 = last
  // iteration only).
  double residency_decay = 0.0;
  // Cache pinned partitions' edge streams in the scan source's shared
  // PinnedEdgeCache — all jobs hit one RAM copy, priced centrally against
  // the scheduler budget.
  bool pin_edges = false;
};

// Builds a job whose DeviceStreamStore attaches to the scan source's edge
// files; update and vertex files are created on the given devices under
// `file_prefix`. Aborts if the job reads edge weights and the source stores
// none.
std::unique_ptr<ScheduledJob> MakeDeviceJob(const JobSpec& spec, DeviceScanSource& source,
                                            StorageDevice& update_dev,
                                            StorageDevice& vertex_dev,
                                            const DeviceJobConfig& config,
                                            const std::string& file_prefix,
                                            std::shared_ptr<JobOutput> out);

// Builds a job whose MemoryStreamStore shares the source's edge chunks.
std::unique_ptr<ScheduledJob> MakeMemoryJob(const JobSpec& spec, MemoryScanSource& source,
                                            std::shared_ptr<JobOutput> out);

}  // namespace xstream

#endif  // XSTREAM_SCHEDULER_ALGO_JOBS_H_
