// Shared edge-stream scan sources for the multi-job scheduler.
//
// X-Stream's one unavoidable cost is the sequential pass over every
// partition's edge stream (paper §2-3): each algorithm iteration streams all
// edges, and the edge list dwarfs vertex and update data on real graphs. N
// concurrent jobs over the same graph therefore should not pay for N scans.
// A ScanSource owns the partitioned edge representation exactly once — the
// per-partition edge files of the device path, or the shuffled in-RAM chunk
// array of the memory path — and the JobScheduler (scheduler.h) streams it
// once per round on behalf of every active job. Per-job stores *attach* to
// the source (DeviceStoreOptions::shared_edge_files, MemoryStreamStore's
// SharedEdgeChunks constructor) instead of partitioning the input
// themselves, so both the setup pass and the per-iteration scans are shared.
#ifndef XSTREAM_SCHEDULER_SCAN_SOURCE_H_
#define XSTREAM_SCHEDULER_SCAN_SOURCE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/stream_store.h"
#include "graph/types.h"
#include "obs/attribution.h"
#include "storage/device.h"
#include "threads/thread_pool.h"

namespace xstream {

// Type-erased provider of per-partition edge streams. One scan = one call to
// ForEachEdgeChunk; the scheduler fans each loaded chunk out to every active
// job's driver.
class ScanSource {
 public:
  virtual ~ScanSource() = default;

  virtual const PartitionLayout& layout() const = 0;
  virtual ThreadPool& pool() = 0;

  // Streams partition s's edges once, in chunks.
  virtual void ForEachEdgeChunk(uint32_t s,
                                const std::function<void(const Edge*, uint64_t)>& f) = 0;

  // Bytes one pass over partition s's edge stream moves (scan accounting),
  // at the size of the record the source stores.
  virtual uint64_t PartitionEdgeBytes(uint32_t s) const = 0;

  // Upper bound on the edges one ForEachEdgeChunk callback delivers. Job
  // factories check it against their stores' fill buffers so a mismatched
  // source/job I/O-unit pairing fails at submit time, not mid-scatter.
  virtual uint64_t MaxChunkEdges() const = 0;

  // RAM this source currently holds on behalf of its attached jobs beyond
  // the shared edge representation itself — the pinned-edge cache bytes
  // pinning jobs requested. Introspection only: the bytes are already
  // bounded by the jobs' pin budgets, since every pinning job prices edge
  // bytes into its own plan.
  virtual uint64_t PinnedResidentBytes() const { return 0; }
  // Cumulative edge bytes this source served from its pinned-edge cache
  // instead of the edge device (SchedulerStats::edge_reads_avoided_bytes).
  virtual uint64_t EdgeReadsAvoidedBytes() const { return 0; }
};

// Device-backed scan source: partitions the unordered input file into
// per-partition edge files once — the same setup pass a DeviceStreamStore
// runs, including the residency planner's destination tallies — and streams
// them with the same double-buffered chunked reader. The files store whole
// Edges unless the owner declares that no job it will run reads weights
// (Options::keep_edge_weights), in which case they store 8-byte EdgePairs
// and every scan moves a third fewer bytes.
class DeviceScanSource : public ScanSource {
 public:
  struct Options {
    size_t io_unit_bytes = 1 << 20;
    // Shuffle-batch capacity for the setup pass; 0 = io_unit * partitions
    // (the store's stream-buffer sizing).
    uint64_t buffer_bytes = 0;
    std::string file_prefix = "scan";
    // Tally destination/local edges during setup (one extra PartitionOf per
    // edge) so attached jobs with file-resident vertices can price pins
    // without their own pass. Without them, attached jobs never pin.
    bool collect_dst_tallies = true;
    // Store edge weights. Only an owner that knows every job it will run
    // may turn this off — when none reads weights (ReadsEdgeWeight; see
    // JobsReadEdgeWeights in algo_jobs.h). Attaching a weight-reading job
    // to a source without weights aborts.
    bool keep_edge_weights = true;
  };

  DeviceScanSource(ThreadPool& pool, PartitionLayout layout, const Options& opts,
                   StorageDevice& edge_dev, const std::string& input_edge_file);

  const PartitionLayout& layout() const override { return layout_; }
  ThreadPool& pool() override { return pool_; }
  void ForEachEdgeChunk(uint32_t s,
                        const std::function<void(const Edge*, uint64_t)>& f) override;
  uint64_t PartitionEdgeBytes(uint32_t s) const override;
  uint64_t MaxChunkEdges() const override { return EdgeChunkEdges(opts_.io_unit_bytes); }

  StorageDevice& edge_device() { return edge_dev_; }
  const std::string& file_prefix() const { return opts_.file_prefix; }
  bool keeps_edge_weights() const { return opts_.keep_edge_weights; }
  const std::vector<uint64_t>& edge_counts() const { return edge_counts_; }
  const std::vector<uint64_t>& dst_edge_counts() const { return dst_edge_counts_; }
  const std::vector<uint64_t>& local_edge_counts() const { return local_edge_counts_; }

  // The shared pinned-edge cache (created eagerly at construction, so
  // handing it to concurrently built jobs is race-free): attached pinning
  // jobs with pin_edges on Request()/Release() partitions in it as their
  // residency plans migrate, and the shared scan fills it and serves sealed
  // partitions from RAM — N concurrent jobs hit one copy of the cached
  // edges. Empty (and free) until the first Request; bounded by the
  // requesting jobs' pin budgets (each prices edge bytes into its plan).
  std::shared_ptr<PinnedEdgeCache> EnsureEdgeCache() { return edge_cache_; }

  uint64_t PinnedResidentBytes() const override { return edge_cache_->bytes(); }
  uint64_t EdgeReadsAvoidedBytes() const override { return edge_cache_->served_bytes(); }

  // Points a job store's options at this source's edge files, so it opens
  // them instead of partitioning its own, with their record, counts and
  // (when collected) setup tallies.
  void ConfigureAttachedStore(DeviceStoreOptions& opts) const {
    opts.shared_edge_files = &shared_files_;
  }

 private:
  void StreamPartition(uint32_t s, const std::function<void(const Edge*, uint64_t)>& f);

  ThreadPool& pool_;
  PartitionLayout layout_;
  Options opts_;
  StorageDevice& edge_dev_;
  std::vector<FileId> edge_files_;
  std::vector<uint64_t> edge_counts_;
  std::vector<uint64_t> dst_edge_counts_;
  std::vector<uint64_t> local_edge_counts_;
  SharedEdgeFiles shared_files_;  // what attached stores are told
  std::shared_ptr<PinnedEdgeCache> edge_cache_;  // never null; empty until requested
  // Shared-scan read stalls, attributed under the source's file prefix
  // ("scan" by default). Job drivers never see this wait — the scheduler
  // owns the scan — so without it the batch diagnosis would call a
  // scan-bound workload compute-bound.
  obs::PhaseAccountant acct_;
};

// In-RAM scan source: the edges are shuffled into per-partition chunks once
// (SharedEdgeChunks); attached MemoryStreamStores reference the same chunk
// array, and the shared scan walks it partition by partition so N jobs make
// one pass through memory instead of N. The source picks the shuffle fanout
// from the host's cache, as InMemoryEngine does, and every attached store
// uses it.
class MemoryScanSource : public ScanSource {
 public:
  MemoryScanSource(ThreadPool& pool, PartitionLayout layout, const EdgeList& edges);

  const PartitionLayout& layout() const override { return layout_; }
  ThreadPool& pool() override { return pool_; }
  void ForEachEdgeChunk(uint32_t s,
                        const std::function<void(const Edge*, uint64_t)>& f) override;
  uint64_t PartitionEdgeBytes(uint32_t s) const override;
  // A chunk is one slice's span of a partition; never more than the whole
  // edge set, which memory-store update buffers are sized for anyway.
  uint64_t MaxChunkEdges() const override { return std::max<uint64_t>(1, shared_->num_edges); }

  // The shared chunk array a job's MemoryStreamStore attaches to.
  std::shared_ptr<const SharedEdgeChunks> shared_edges() const { return shared_; }

 private:
  ThreadPool& pool_;
  PartitionLayout layout_;
  std::shared_ptr<const SharedEdgeChunks> shared_;
};

}  // namespace xstream

#endif  // XSTREAM_SCHEDULER_SCAN_SOURCE_H_
