// The device streaming engine (paper §3), with partially resident
// partitions.
//
// The graph lives on storage devices as one edge file, one update file and
// one vertex file per streaming partition. Properties carried over from the
// paper:
//
//  * Input is a flat *unordered* edge-list file; the only pre-processing is
//    one streaming pass that shuffles edges into per-partition files using
//    the in-memory shuffle (§3.2). No sorting.
//  * The shuffle phase is folded into scatter: updates accumulate in an
//    in-memory stream buffer; when it fills, an in-memory shuffle splits it
//    into per-partition chunks which are appended to the partitions' update
//    files (§3, Fig 6).
//  * Prefetch distance 1 on input (StreamReader double-buffering); on
//    output the spill writes are double-buffered on the update device's I/O
//    thread, so the shuffle and scatter of batch k+1 overlap the write of
//    batch k (§3.3). `async_spill = false` restores a fully synchronous
//    spill for comparison (fig 28).
//  * Partition count from the §3.4 inequality N/K + 5·S·K ≤ M. The five
//    buffers of that inequality map to: 2 StreamReader input buffers, the
//    scatter fill buffer, and the two alternating shuffle/write buffers.
//  * Optimizations (§3.2): with `allow_vertex_memory_opt`, vertex files are
//    skipped when the whole vertex set fits in half the streaming budget;
//    when a full scatter phase's updates fit in one stream buffer, they are
//    gathered straight from memory and never touch storage.
//  * Update files are truncated as soon as their stream is consumed,
//    modelling TRIM (§3.3).
//  * Within a loaded chunk, work spreads over cores in the spirit of §4.3
//    (the in-memory engine layered above the disk engine): scatter
//    parallelizes over the chunk's edges; gather sub-partitions the chunk's
//    updates by destination and runs sub-partitions in parallel.
//
// Beyond the paper: an optional streaming partitioner (src/partitioning/)
// replaces the §2.2 range assignment; local-update absorption gathers
// updates destined to the partition being scattered straight into a shadow
// of its loaded states, so high-locality mappings shrink the update files
// (fig27); and with file-resident vertices a ResidencyPlanner
// (core/residency.h) pins the partitions with the best
// disk-traffic-avoided-per-resident-byte density under `memory_budget_bytes`
// — vertex states held resident, incoming updates buffered in memory,
// optionally edge streams cached — while unpinned partitions keep the full
// device path.
//
// Budget semantics: `memory_budget_bytes` prices only the pin set (resident
// vertex states + worst-case update buffers); the working memory — the §3.4
// stream buffers and the partition-count inequality — stays under
// `streaming_budget_bytes`. Budget 0 pins nothing: that is the paper's §3
// engine. At a budget covering every partition, vertex and update traffic
// never touch the devices and only edges stream.
//
// This class is a thin facade: it sizes the layout, builds a
// DeviceStreamStore (core/stream_store.h) over the given devices, and
// forwards the streaming loop to the shared StreamingPhaseDriver
// (core/phase_runtime.h) in its partition-sequential shape.
#ifndef XSTREAM_CORE_HYBRID_ENGINE_H_
#define XSTREAM_CORE_HYBRID_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "core/partition.h"
#include "core/phase_runtime.h"
#include "core/sizing.h"
#include "core/stats.h"
#include "core/stream_store.h"
#include "graph/types.h"
#include "partitioning/partitioner.h"
#include "storage/device.h"
#include "threads/thread_pool.h"
#include "util/env.h"
#include "util/timer.h"

namespace xstream {

struct HybridConfig {
  // Sentinel: auto-detect the pin budget from the host (half of physical
  // memory) via ResolveMemoryBudget.
  static constexpr uint64_t kAutoMemoryBudget = UINT64_MAX;

  int threads = 0;  // 0 = all cores
  // Residency pin budget (the --memory-budget flag). 0 pins nothing;
  // kAutoMemoryBudget = auto-detect; any other value is clamped to
  // physical memory with a warning (sizing.h).
  uint64_t memory_budget_bytes = 0;
  // The §3.4 working budget M: stream buffers + the partition count
  // inequality, independent of the pin budget.
  uint64_t streaming_budget_bytes = 64ull << 20;
  // I/O unit S needed to reach streaming bandwidth (16 MB on the paper's
  // testbed, Fig 9). Benches/tests shrink it along with their graphs.
  size_t io_unit_bytes = 1 << 20;
  uint32_t num_partitions = 0;  // 0 = auto from §3.4
  // §3.2 optimization 1: keep the vertex array in RAM when it fits in half
  // the streaming budget. Pins are per-partition choices between RAM and
  // the vertex files, so a store whose vertices sit in RAM never pins.
  bool allow_vertex_memory_opt = false;
  bool allow_update_memory_opt = true;  // §3.2 optimization 2
  // Ablation of the §3.3 TRIM discipline: true truncates each partition's
  // update file the moment its stream is consumed; false defers all
  // truncation to the end of the gather phase, so consumed update streams
  // occupy the device until the phase completes (higher peak occupancy,
  // more SSD GC pressure).
  bool eager_update_truncate = true;
  // Locality optimization enabled by the streaming-partitioner subsystem:
  // when a spill happens while partition s is being scattered, updates
  // destined to s itself are gathered immediately into a shadow copy of s's
  // (already loaded) vertex states instead of being written to — and later
  // read back from — s's update file. Legal because X-Stream updates are
  // unordered within an iteration (the shuffle never sorts), so gathers may
  // be applied in any order; the shadow keeps scatter reading pre-iteration
  // state. Costs one extra partition-sized vertex array on top of the §3.4
  // budget. Only active with file-resident vertices; the better the
  // vertex->partition mapping, the more traffic it removes.
  bool absorb_local_updates = true;
  bool async_spill = true;
  int spill_queue_depth = 2;  // rotating spill write buffers (>= 2)
  // Delta+varint compression of spilled update streams (--compress-updates);
  // pinned partitions' RAM-resident updates are unaffected.
  bool compress_updates = false;
  // Per-thread staging for the single-stage shuffles (--stage-bytes); 0 =
  // legacy fused counting shuffle.
  size_t stage_bytes = 0;
  bool replan_between_iterations = true;
  // Iterations a partition must win/lose its place in the target pin set
  // before the incremental re-plan migrates it (CLI --residency-hysteresis).
  // 0 = stop-the-world full re-plan between iterations.
  uint32_t residency_hysteresis = 2;
  // EWMA decay for the observed-update-volume re-plan signal (CLI
  // --residency-decay); 0 = last iteration only.
  double residency_decay = 0.0;
  // Cache pinned partitions' edge streams in RAM after their first scan
  // (CLI --pin-edges): a fully resident partition stops touching the edge
  // device entirely. Edge bytes are priced into the pin budget.
  bool pin_edges = false;
  bool keep_iteration_log = true;
  // Optional streaming partitioner (src/partitioning/). Null keeps the
  // paper's equal contiguous ranges. When set, its passes stream the input
  // edge file during setup and vertex state is sliced in the mapping's
  // dense order (not owned; must outlive the engine).
  Partitioner* partitioner = nullptr;
  std::string file_prefix = "xs";
};

template <EdgeCentricAlgorithm Algo>
class HybridEngine {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using Store = DeviceStreamStore<Algo>;
  using Driver = StreamingPhaseDriver<Algo, Store>;

  // Devices may all be the same object (single disk), split between edges
  // and updates (the Fig 15 "independent disks" configuration), or RAID-0
  // wrappers. `input_edge_file` must exist on `edge_dev`; `info` comes from
  // ScanEdgeFile or the generator.
  HybridEngine(const HybridConfig& config, StorageDevice& edge_dev,
               StorageDevice& update_dev, StorageDevice& vertex_dev,
               const std::string& input_edge_file, GraphInfo info)
      : pool_(config.threads > 0 ? config.threads : NumCores()),
        num_vertices_(info.num_vertices),
        num_edges_(info.num_edges) {
    WallTimer setup_timer;

    uint64_t vertex_bytes = num_vertices_ * sizeof(VertexState);
    uint32_t k = config.num_partitions > 0
                     ? config.num_partitions
                     : ChooseOutOfCorePartitions(vertex_bytes, config.streaming_budget_bytes,
                                                 config.io_unit_bytes);
    PartitionLayout layout;
    if (config.partitioner != nullptr) {
      // The partitioner's passes stream the raw input file; like the store's
      // shuffle pass they are part of setup (X-Stream charges pre-processing
      // to the run).
      auto mapping = std::make_shared<VertexMapping>(config.partitioner->Partition(
          MakeEdgeStream(edge_dev, input_edge_file, config.io_unit_bytes), num_vertices_, k));
      layout = PartitionLayout(std::move(mapping));
    } else {
      layout = PartitionLayout(num_vertices_, k);
    }

    typename Store::Options opts;
    opts.memory_budget_bytes = config.streaming_budget_bytes;
    opts.io_unit_bytes = config.io_unit_bytes;
    opts.allow_vertex_memory_opt = config.allow_vertex_memory_opt;
    opts.allow_update_memory_opt = config.allow_update_memory_opt;
    opts.eager_update_truncate = config.eager_update_truncate;
    opts.absorb_local_updates = config.absorb_local_updates;
    opts.async_spill = config.async_spill;
    opts.spill_queue_depth = config.spill_queue_depth;
    opts.compress_updates = config.compress_updates;
    opts.stage_bytes = config.stage_bytes;
    opts.file_prefix = config.file_prefix;
    opts.replan_between_iterations = config.replan_between_iterations;
    opts.residency_hysteresis = config.residency_hysteresis;
    opts.residency_decay = config.residency_decay;
    opts.pin_edges = config.pin_edges;
    uint64_t budget = config.memory_budget_bytes;
    if (budget == HybridConfig::kAutoMemoryBudget) {
      budget = ResolveMemoryBudget(0);
    } else if (budget > 0) {
      budget = ResolveMemoryBudget(budget);
    }
    opts.pin_budget_bytes = budget;
    store_ = std::make_unique<Store>(pool_, std::move(layout), opts, edge_dev, update_dev,
                                     vertex_dev, input_edge_file);
    PhaseDriverOptions dopts;
    dopts.keep_iteration_log = config.keep_iteration_log;
    driver_ = std::make_unique<Driver>(*store_, dopts);
    stats().setup_seconds = setup_timer.Seconds();
  }

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t num_partitions() const { return store_->layout().num_partitions(); }
  bool vertices_in_memory() const { return store_->vertices_in_memory(); }
  const PartitionLayout& layout() const { return store_->layout(); }
  uint64_t buffer_bytes() const { return store_->buffer_bytes(); }

  // Residency introspection.
  uint64_t pin_budget_bytes() const { return store_->pin_budget_bytes(); }
  uint32_t resident_partitions() const { return store_->residency_plan().resident_count(); }
  uint64_t replans() const { return store_->replans(); }
  // The budget at which every partition pins (benches sweep fractions).
  uint64_t FullPinBytes() const { return store_->FullPinBytes(); }

  RunStats& stats() { return driver_->stats(); }
  const RunStats& stats() const { return driver_->stats(); }

  // The engine's store and driver, for advanced callers (the multi-job
  // scheduler drives stores/drivers directly; see src/scheduler/).
  Store& store() { return *store_; }
  Driver& driver() { return *driver_; }

  // Appends more raw edges to the partitioned store (the Fig 17 ingest
  // path): each batch goes through the same in-memory shuffle and is
  // appended to the per-partition edge files.
  void IngestEdges(const EdgeList& batch) {
    WallTimer timer;
    store_->IngestEdges(batch);
    num_edges_ += batch.size();
    stats().setup_seconds += timer.Seconds();
  }

  // Vertex iteration (§2.5). With file-resident vertices this loads, maps
  // and stores one partition at a time.
  template <typename F>
  void VertexMap(F&& f) {
    driver_->VertexMap(std::forward<F>(f));
  }

  // Sequential fold over all vertex states (dense/partition order).
  template <typename T, typename F>
  T VertexFold(T init, F&& f) {
    return driver_->VertexFoldDense(std::move(init), std::forward<F>(f));
  }

  void InitVertices(Algo& algo) { driver_->InitVertices(algo); }

  // One scatter(+folded shuffle) -> gather round over storage (Fig 6).
  IterationStats RunIteration(Algo& algo) { return driver_->RunIteration(algo); }

  RunStats Run(Algo& algo, uint64_t max_iterations = UINT64_MAX) {
    return driver_->Run(algo, max_iterations);
  }

  // Folds device counters into stats() (sim_io_seconds, bytes moved).
  // Run() calls this automatically; manual RunIteration drivers (SCC, MCST,
  // ALS, HyperANF) should call it before reading stats().
  void FinalizeStats() { driver_->FinalizeStats(); }

  // Clears run statistics and re-baselines the devices; lets one engine
  // time several consecutive computations (the Fig 17 ingest loop).
  void ResetStats() { driver_->ResetStats(); }

  // Checkpointing: persists all vertex state (one sequential write) so a
  // multi-hour run can resume after a restart. States are written in the
  // layout's dense order, so a checkpoint is only portable to an engine
  // configured with the same partitioner and partition count.
  void SaveVertexStates(StorageDevice& dev, const std::string& file) {
    driver_->SaveVertexStates(dev, file);
  }

  void LoadVertexStates(StorageDevice& dev, const std::string& file) {
    driver_->LoadVertexStates(dev, file);
  }

 private:
  ThreadPool pool_;
  uint64_t num_vertices_;
  uint64_t num_edges_;
  std::unique_ptr<Store> store_;
  std::unique_ptr<Driver> driver_;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_HYBRID_ENGINE_H_
