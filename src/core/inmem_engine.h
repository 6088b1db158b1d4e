// The in-memory streaming engine (paper §4).
//
// Processes graphs whose vertices, edges and updates fit in memory. The
// design goals from the paper, and where they land here:
//
//  * Partition count: chosen so the vertex *footprint* (state + edge +
//    update bytes) of each partition fits the per-core CPU cache (§4), and
//    raised toward 16 per thread on graphs large enough that gather's work
//    stealing needs the smaller partitions (core/sizing.h).
//  * Stream buffers owned by MemoryStreamStore (core/stream_store.h): one
//    holding the (partitioned) edges, one collecting generated updates, and
//    shuffle scratch only when the partitions outnumber the fanout.
//  * Parallel scatter-gather with work stealing (§4.1): scatter steals
//    runs of at most kScatterItemEdges edges, gather whole partitions;
//    update appends go through thread-private staging blocks, one per
//    destination bucket, flushed by atomic reservation (BucketedAppender).
//  * Multi-stage shuffler over per-thread slices with a fanout bounded by
//    the cacheline budget (§4.2, Fig 7), its first level done by scatter's
//    buckets. The auto fanout is capped at the partition count, so by
//    default the buckets are the partitions and no shuffle pass runs at all
//    between scatter and gather; a forced smaller fanout (Fig 25) runs the
//    levels below the first.
//
// The engine consumes an *unordered* edge list; its own setup shuffle (timed
// as setup_seconds) is the only pre-processing — there is no sort.
//
// This class is a thin facade: it sizes the layout and fanout, builds a
// MemoryStreamStore, and forwards the streaming loop to the shared
// StreamingPhaseDriver (core/phase_runtime.h) in its partition-parallel
// shape.
#ifndef XSTREAM_CORE_INMEM_ENGINE_H_
#define XSTREAM_CORE_INMEM_ENGINE_H_

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

struct InMemoryConfig {
  int threads = 0;            // 0 = all cores
  size_t cache_bytes = 0;     // 0 = probe the host (per-core L2)
  uint32_t num_partitions = 0;  // 0 = auto (§4); otherwise forced (Fig 24)
  uint32_t shuffle_fanout = 0;  // 0 = auto from cachelines (§4.2); Fig 25
  // Ablation: false = static round-robin assignment of scatter's edge runs
  // and gather's partitions (paper §4.1 argues stealing is needed because
  // partitions have skewed edge counts).
  bool enable_work_stealing = true;
  bool keep_iteration_log = true;
  // Optional streaming partitioner (src/partitioning/). Null keeps the
  // paper's equal contiguous ranges. When set, the engine runs the
  // partitioner's passes over the input during setup and slices vertex
  // state in the mapping's dense order (not owned; must outlive the engine).
  Partitioner* partitioner = nullptr;
};

template <EdgeCentricAlgorithm Algo>
class InMemoryEngine {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using Store = MemoryStreamStore<Algo>;
  using Driver = StreamingPhaseDriver<Algo, Store>;

  InMemoryEngine(const InMemoryConfig& config, const EdgeList& edges, uint64_t num_vertices)
      : pool_(config.threads > 0 ? config.threads : NumCores()),
        num_vertices_(num_vertices),
        num_edges_(edges.size()) {
    WallTimer setup_timer;

    size_t cache = config.cache_bytes > 0 ? config.cache_bytes : PerCoreCacheBytes();
    uint32_t k = config.num_partitions > 0
                     ? RoundUpPow2(config.num_partitions)
                     : ChooseInMemoryPartitions(num_vertices_, sizeof(VertexState),
                                                sizeof(Edge), sizeof(Update), cache,
                                                pool_.num_threads(), num_edges_);
    PartitionLayout layout;
    if (config.partitioner != nullptr) {
      auto mapping = std::make_shared<VertexMapping>(
          config.partitioner->Partition(MakeEdgeStream(edges), num_vertices_, k));
      layout = PartitionLayout(std::move(mapping));
    } else {
      layout = PartitionLayout(num_vertices_, k);
    }
    uint32_t fanout = config.shuffle_fanout > 0 ? RoundUpPow2(config.shuffle_fanout)
                                                : ChooseShuffleFanout(k, cache, CachelineBytes());

    store_ = std::make_unique<Store>(pool_, std::move(layout), fanout, edges);
    PhaseDriverOptions opts;
    opts.enable_work_stealing = config.enable_work_stealing;
    opts.keep_iteration_log = config.keep_iteration_log;
    driver_ = std::make_unique<Driver>(*store_, opts);

    stats().setup_seconds = setup_timer.Seconds();
    stats().streaming_seconds += stats().setup_seconds;  // the setup is itself a stream+shuffle
  }

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t num_partitions() const { return store_->layout().num_partitions(); }
  uint32_t shuffle_fanout() const { return store_->shuffle_fanout(); }
  const PartitionLayout& layout() const { return store_->layout(); }
  ThreadPool& pool() { return pool_; }

  // Vertex state is stored in the layout's dense order so each partition's
  // states stay contiguous (the cache-locality point of partitioning); these
  // accessors translate from original vertex ids.
  const VertexState& State(VertexId v) const {
    return store_->states()[store_->layout().DenseId(v)];
  }
  const std::vector<VertexState>& states() const { return store_->states(); }  // dense order

  RunStats& stats() { return driver_->stats(); }
  const RunStats& stats() const { return driver_->stats(); }

  // The engine's store and driver, for advanced callers (the multi-job
  // scheduler drives stores/drivers directly; see src/scheduler/).
  Store& store() { return *store_; }
  Driver& driver() { return *driver_; }

  // Vertex iteration (§2.5): applies f(v, state) to every vertex, in
  // parallel over partition-aligned (dense) ranges.
  template <typename F>
  void VertexMap(F&& f) {
    driver_->VertexMap(std::forward<F>(f));
  }

  // Sequential fold over vertex states (aggregations, result extraction),
  // always in original vertex-id order regardless of the mapping.
  template <typename T, typename F>
  T VertexFold(T init, F&& f) const {
    return driver_->VertexFoldOriginal(std::move(init), std::forward<F>(f));
  }

  void InitVertices(Algo& algo) { driver_->InitVertices(algo); }

  // One synchronous scatter -> gather round (Fig 4), with scatter doing the
  // shuffle's first level.
  IterationStats RunIteration(Algo& algo) { return driver_->RunIteration(algo); }

  // Runs Init + iterations until a scatter emits no updates, the algorithm
  // reports Done, or max_iterations is reached.
  RunStats Run(Algo& algo, uint64_t max_iterations = UINT64_MAX) {
    return driver_->Run(algo, max_iterations);
  }

  // Folds scheduler counters into stats(). Run() calls this automatically;
  // manual RunIteration drivers should call it before reading stats().
  void FinalizeStats() { driver_->FinalizeStats(); }

  // Checkpointing: persists the vertex state array so a long computation can
  // resume in a fresh engine (graph runs in the paper last up to 26 hours).
  // States are written in the layout's dense order, so a checkpoint is only
  // portable to an engine configured with the same partitioner and count.
  void SaveVertexStates(StorageDevice& dev, const std::string& file) {
    driver_->SaveVertexStates(dev, file);
  }

  // Restores states saved by SaveVertexStates. The graph (vertex count and
  // state type) must match; aborts otherwise.
  void LoadVertexStates(StorageDevice& dev, const std::string& file) {
    driver_->LoadVertexStates(dev, file);
  }

  // Clears run statistics (multi-computation reuse of one engine).
  void ResetStats() { driver_->ResetStats(); }

 private:
  ThreadPool pool_;
  uint64_t num_vertices_;
  uint64_t num_edges_;
  std::unique_ptr<Store> store_;
  std::unique_ptr<Driver> driver_;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_INMEM_ENGINE_H_
