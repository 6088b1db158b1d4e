// StreamingPhaseDriver: the one scatter-shuffle-gather loop behind both
// engines.
//
// X-Stream applies the same edge-centric iteration structure to in-memory
// and out-of-core streaming partitions (paper §3 Fig 6, §4 Fig 4). This
// driver owns that structure once — partition iteration, scatter emission
// through thread-private staging blocks (threads/bucketed_appender.h),
// shuffle plumbing, gather draining, vertex iteration, checkpointing and
// IterationStats/RunStats folding — and is parameterized over a StreamStore
// (core/stream_store.h) that decides where the streams and vertex states
// physically live.
//
// Both shapes scatter through one BucketedAppender: each update is staged
// in a per-thread block for its destination bucket, so scatter's output is
// already grouped by partition. The two stores imply two phase shapes,
// selected statically by the store's kPartitionParallel trait:
//
//  * Partition-parallel (MemoryStreamStore, §4): partitions are cache-sized
//    and plentiful, so scatter and gather run concurrently under work
//    stealing. Scatter's work items are runs of at most kScatterItemEdges
//    edges, so one heavy partition spreads over every thread; gather's are
//    whole partitions, since each owns its vertices. The buckets are the
//    first level of the §4.2 multi-stage shuffle: with at most `fanout`
//    partitions they are the partitions and no shuffle pass runs; with
//    more, only the tree levels below the first run between scatter and
//    gather.
//  * Partition-sequential (DeviceStreamStore, §3): one partition's streams
//    are loaded at a time; parallelism lives inside each loaded chunk (§4.3
//    layering). The buckets are the partitions, and every consumer reads
//    their blocks where scatter flushed them: a spill copies each file-bound
//    partition's blocks into one run for its update file, and gather
//    sub-partitions each loaded chunk by destination so threads touch
//    disjoint vertex ranges. Thread t scatters the t-th contiguous slice of
//    each chunk, so at a fixed thread count every bucket's blocks, and
//    hence every gather order, repeat exactly from run to run.
//
// Both shapes schedule selectively when the algorithm has an Active hook
// (core/algorithm.h): the driver keeps one "holds an Active vertex" flag per
// partition, refreshed where it already visits every vertex (after Init and
// in each partition's EndVertex pass), and a partition without one streams
// no edges in the next scatter — a scan that could only have been wasted
// (Fig 12b). Gather still visits every partition.
//
// Engines (core/inmem_engine.h, core/hybrid_engine.h) are thin facades: they
// pick the store, size the layout/buffers, and forward their public API
// here.
#ifndef XSTREAM_CORE_PHASE_RUNTIME_H_
#define XSTREAM_CORE_PHASE_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "buffers/shuffler.h"
#include "core/algorithm.h"
#include "core/partition.h"
#include "core/sizing.h"
#include "core/stats.h"
#include "core/stream_store.h"
#include "graph/types.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/device.h"
#include "storage/stream_io.h"
#include "threads/bucketed_appender.h"
#include "threads/thread_pool.h"
#include "threads/work_stealing.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

// Vertex-state checkpoints (version 2): a fixed header, then — when the
// engine runs under a streaming partitioner — the active vertex->partition
// assignment, then the states in the layout's dense order. Storing the
// mapping makes restores validatable: dense order depends on the mapping,
// so loading a checkpoint into an engine with a different `--partitioner`
// used to scramble states silently; now it fails with a clear error. Range
// layouts (the paper's contiguous ranges) write no mapping — their dense
// order is the identity for every partition count, so those checkpoints
// stay portable across partition counts.
struct CheckpointHeader {
  static constexpr uint64_t kMagic = 0x58532D434B505432ull;  // "XS-CKPT2"
  static constexpr uint32_t kVersion = 2;

  uint64_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t num_partitions = 0;
  uint64_t num_vertices = 0;
  uint64_t state_bytes = 0;
  uint64_t mapping_entries = 0;  // num_vertices when mapped, else 0
};
static_assert(std::is_trivially_copyable_v<CheckpointHeader>);

struct PhaseDriverOptions {
  // Partition-parallel shape only: false = static round-robin assignment of
  // the work items (the §4.1 work-stealing ablation).
  bool enable_work_stealing = true;
  bool keep_iteration_log = true;
  // Registry prefix for the driver's live progress gauges
  // (<prefix>.iteration, .partition_cursor, .active_vertices,
  // .edge_bytes_per_sec), published at iteration and partition boundaries
  // so a telemetry scrape sees mid-run progress. Scheduler jobs get
  // "job.<name>" so concurrent jobs do not clobber one another.
  std::string progress_prefix = "run";
};

template <EdgeCentricAlgorithm Algo, StreamStoreFor Store>
class StreamingPhaseDriver {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using ScatterAppender = BucketedAppender<Update>;

  StreamingPhaseDriver(Store& store, const PhaseDriverOptions& opts)
      : store_(store),
        opts_(opts),
        queues_(store.pool().num_threads()),
        accountant_(opts.progress_prefix, store.layout().num_partitions()),
        active_(store.layout().num_partitions(), 1) {
    store_.BindStats(&stats_);
    if constexpr (Store::kPartitionParallel) {
      // Scatter buckets by the top fanout bits of the partition id: the
      // partitions themselves when they do not outnumber the fanout.
      const uint32_t k = store_.layout().num_partitions();
      const uint32_t fanout = store_.shuffle_fanout();
      if (ShuffleStages(k, fanout) > 1) {
        bucket_shift_ = CeilLog2(k) - CeilLog2(fanout);
      }
    }
    // Stores that can attribute their internal waits (spill-write stalls,
    // edge-scan and gather read stalls) and spill routing feed the same
    // accountant the driver charges its phase sections to.
    if constexpr (requires(Store& st, obs::PhaseAccountant* a) { st.BindAccountant(a); }) {
      store_.BindAccountant(&accountant_);
    }
    // Gauge handles are resolved once; the boundary publishes are then one
    // relaxed store each (no-ops under -DXSTREAM_DISABLE_OBS). Gauges are
    // registry-owned, so two drivers with the same prefix share them
    // (last writer wins — fine for monitoring).
    obs::MetricGroup progress(obs::MetricsRegistry::Global(), opts_.progress_prefix);
    progress_iteration_ = &progress.gauge("iteration");
    progress_cursor_ = &progress.gauge("partition_cursor");
    progress_active_ = &progress.gauge("active_vertices");
    progress_throughput_ = &progress.gauge("edge_bytes_per_sec");
  }

  const PartitionLayout& layout() const { return store_.layout(); }
  RunStats& stats() { return stats_; }
  const RunStats& stats() const { return stats_; }
  obs::PhaseAccountant& accountant() { return accountant_; }
  const obs::PhaseAccountant& accountant() const { return accountant_; }

  // ---- Vertex iteration (§2.5) -------------------------------------------

  // Applies f(original_id, state) to every vertex: in parallel over
  // partition-aligned dense ranges when the states are resident, otherwise
  // one loaded partition at a time.
  // f may rewrite any state, so every partition is eligible for the next
  // scatter until a gather refreshes the activity flags.
  template <typename F>
  void VertexMap(F&& f) {
    std::fill(active_.begin(), active_.end(), 1);
    const PartitionLayout& layout = store_.layout();
    if (store_.all_resident()) {
      VertexState* states = store_.resident_states();
      store_.pool().ParallelFor(0, layout.num_vertices(), 4096,
                                [&](uint64_t lo, uint64_t hi) {
                                  for (uint64_t i = lo; i < hi; ++i) {
                                    f(layout.OriginalId(i), states[i]);
                                  }
                                });
      return;
    }
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      if (layout.Size(p) == 0) {
        continue;
      }
      store_.LoadPartition(p);
      VertexState* states = store_.partition_states();
      VertexId base = layout.Begin(p);
      store_.pool().ParallelFor(0, layout.Size(p), 4096, [&](uint64_t lo, uint64_t hi) {
        for (uint64_t i = lo; i < hi; ++i) {
          f(layout.OriginalId(base + i), states[i]);
        }
      });
      store_.StorePartition(p);
    }
  }

  // Sequential fold over vertex states in dense (partition) order.
  template <typename T, typename F>
  T VertexFoldDense(T init, F&& f) {
    const PartitionLayout& layout = store_.layout();
    T acc = init;
    if (store_.all_resident()) {
      const VertexState* states = store_.resident_states();
      for (uint64_t i = 0; i < layout.num_vertices(); ++i) {
        acc = f(acc, layout.OriginalId(i), states[i]);
      }
      return acc;
    }
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      if (layout.Size(p) == 0) {
        continue;
      }
      store_.LoadPartition(p);
      const VertexState* states = store_.partition_states();
      VertexId base = layout.Begin(p);
      for (uint64_t i = 0; i < layout.Size(p); ++i) {
        acc = f(acc, layout.OriginalId(base + i), states[i]);
      }
    }
    return acc;
  }

  // Sequential fold in original vertex-id order regardless of the mapping.
  // Requires resident states (the in-memory engine's contract).
  template <typename T, typename F>
  T VertexFoldOriginal(T init, F&& f) const {
    const PartitionLayout& layout = store_.layout();
    XS_CHECK(store_.all_resident());
    const VertexState* states = store_.resident_states();
    T acc = init;
    for (uint64_t v = 0; v < layout.num_vertices(); ++v) {
      acc = f(acc, static_cast<VertexId>(v), states[layout.DenseId(static_cast<VertexId>(v))]);
    }
    return acc;
  }

  void InitVertices(Algo& algo) {
    const PartitionLayout& layout = store_.layout();
    if (store_.all_resident()) {
      VertexMap([&algo](VertexId v, VertexState& s) { algo.Init(v, s); });
      for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
        NoteActivity(algo, p, store_.resident_states() + layout.Begin(p));
      }
      return;
    }
    // Vertex files hold zeroes, not algorithm state, until the first store;
    // write initial states partition-wise without the wasted load.
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      if (layout.Size(p) == 0) {
        continue;
      }
      VertexState* states = store_.partition_states();
      VertexId base = layout.Begin(p);
      for (uint64_t i = 0; i < layout.Size(p); ++i) {
        algo.Init(layout.OriginalId(base + i), states[i]);
      }
      NoteActivity(algo, p, states);
      store_.StorePartition(p);
    }
  }

  // ---- The streaming loop -------------------------------------------------

  // One synchronous scatter -> shuffle -> gather round (Fig 4 / Fig 6),
  // assembled from the externally drivable pieces below so the single-job
  // loop and the scheduler's shared-scan mode cannot drift.
  IterationStats RunIteration(Algo& algo) {
    BeginIterationScatter(algo);
    if constexpr (Store::kPartitionParallel) {
      ScatterAllPartitionsParallel(algo);
    } else {
      const PartitionLayout& layout = store_.layout();
      for (uint32_t s = 0; s < layout.num_partitions(); ++s) {
        if (!PartitionNeedsScatter(s)) {
          continue;
        }
        BeginScatterPartition(s);
        store_.ForEachEdgeChunk(s,
                                [&](const Edge* es, uint64_t n) { ScatterChunk(algo, es, n); });
        EndScatterPartition(algo);
      }
    }
    return FinishIterationScatter(algo);
  }

  // ---- Multi-job (externally driven) scatter mode -------------------------
  //
  // The JobScheduler (src/scheduler/) owns the edge scan: it streams each
  // partition's edge chunks once and feeds them to every active job's
  // driver, so N concurrent jobs pay for one sequential pass instead of N.
  // Protocol per iteration:
  //
  //   BeginIterationScatter(algo, first)
  //   for each partition s, in cyclic order from `first`:
  //     if PartitionNeedsScatter(s):
  //       BeginScatterPartition(s)
  //       ScatterChunk(algo, es, n)*   // chunks come from the scan owner
  //       EndScatterPartition(algo)
  //   FinishIterationScatter(algo)     // spill tail + gather + stats fold
  //
  // Every partition that PartitionNeedsScatter accepts must be visited
  // exactly once per iteration; a rejected one is simply not visited — it
  // holds no vertex that could emit. Any rotation works — updates are
  // unordered within an iteration (§2.3), so a job admitted mid-round simply
  // starts its cycle at the next partition boundary. CancelIterationScatter()
  // abandons a half-done iteration (job cancellation), draining any in-flight
  // spill writes.

  void BeginIterationScatter(Algo& algo, uint32_t first_partition = 0) {
    XS_CHECK(!in_iteration_scatter_) << "iteration scatter already in progress";
    in_iteration_scatter_ = true;
    progress_iteration_->Set(static_cast<double>(stats_.iterations));
    iter_span_.Start(static_cast<int64_t>(stats_.iterations));
    accountant_.BeginIteration(stats_.iterations);
    cur_iter_ = IterationStats{};
    cur_iter_.iteration = stats_.iterations;
    iter_timer_.Reset();
    streaming_.Clear();
    if constexpr (HasBeforeIteration<Algo>) {
      algo.BeforeIteration(stats_.iterations);
    }
    store_.BeginIteration();
    next_boundary_ = first_partition;
    boundaries_left_ = store_.layout().num_partitions();
    scatter_appender_ = std::make_unique<ScatterAppender>(
        store_.update_records(), store_.pool().num_threads(),
        store_.layout().num_partitions() >> bucket_shift_, DefaultShuffleStageBytes());
  }

  // Whether partition s takes part in this iteration's scatter: not when
  // the last gather left it without an Active vertex (selective scheduling),
  // nor when it is empty and its vertices are file-resident.
  bool PartitionNeedsScatter(uint32_t s) const {
    if constexpr (HasActive<Algo>) {
      if (!active_[s]) {
        return false;
      }
    }
    return Store::kPartitionParallel || store_.all_resident() || store_.layout().Size(s) > 0;
  }

  void BeginScatterPartition(uint32_t s) {
    XS_CHECK(in_iteration_scatter_);
    attr_partition_ = s;
    if constexpr (Store::kPartitionParallel) {
      scatter_state_base_ = store_.resident_states();
      scatter_part_base_ = 0;
    } else {
      PassBoundariesThrough(s);
      PublishPartitionProgress(s);
      scatter_span_.Start(s);
      store_.BeginPartitionScatter(s);
      scatter_state_base_ =
          store_.all_resident() ? store_.resident_states() : store_.partition_states();
      scatter_part_base_ = store_.all_resident() ? 0 : store_.layout().Begin(s);
    }
  }

  // Streams one loaded span of the current partition's edges: spill when the
  // worst-case output may not fit (device shape), scatter the span in
  // parallel, flush the blocks the spill check counts (device shape; the
  // memory shape's blocks flush when the iteration's scatter ends). Thread t
  // takes the t-th contiguous slice (a short span runs on thread 0 alone),
  // so which blocks a bucket holds depends only on the chunks. Chunks may
  // come from the store's own reader (solo runs) or from a scheduler's
  // shared scan.
  void ScatterChunk(Algo& algo, const Edge* es, uint64_t n) {
    ScatterAppender& appender = *scatter_appender_;
    if constexpr (!Store::kPartitionParallel) {
      if ((appender.records() + n) * sizeof(Update) > store_.buffer_bytes()) {
        store_.SpillUpdates(algo, appender);
        appender.Reset();  // scatter continues into the drained fill buffer
      }
    }
    std::atomic<uint64_t> wasted{0};
    {
      obs::PhaseTimer pt(&accountant_, obs::Phase::kScatter, attr_partition_);
      ThreadPool& pool = store_.pool();
      const uint64_t threads = static_cast<uint64_t>(pool.num_threads());
      if (threads == 1 || n <= kMinSplitEdges) {
        wasted = ScatterSpan(algo, es, n, scatter_state_base_, scatter_part_base_, 0, appender);
      } else {
        pool.RunOnAll([&](int tid) {
          const uint64_t lo = n * static_cast<uint64_t>(tid) / threads;
          const uint64_t hi = n * static_cast<uint64_t>(tid + 1) / threads;
          uint64_t w = ScatterSpan(algo, es + lo, hi - lo, scatter_state_base_,
                                   scatter_part_base_, tid, appender);
          wasted.fetch_add(w, std::memory_order_relaxed);
        });
      }
      if constexpr (!Store::kPartitionParallel) {
        appender.FlushAll();
      }
    }
    cur_iter_.edges_streamed += n;
    cur_iter_.wasted_edges += wasted.load();
  }

  void EndScatterPartition(Algo& algo) {
    if constexpr (!Store::kPartitionParallel) {
      store_.EndPartitionScatter(algo, *scatter_appender_);
      scatter_span_.Stop("scatter");
    }
  }

  // Ends the scatter phase (tail spill, §3.2 memory gather, or the shuffle
  // levels below scatter's buckets), runs the full gather phase, and folds
  // the iteration into stats().
  IterationStats FinishIterationScatter(Algo& algo) {
    XS_CHECK(in_iteration_scatter_);
    ScatterAppender& appender = *scatter_appender_;
    if constexpr (Store::kPartitionParallel) {
      appender.FlushAll();
      cur_iter_.updates_generated = appender.records();
      if (bucket_shift_ == 0) {
        // The buckets are the partitions: gather reads each partition's
        // blocks where scatter flushed them.
        GatherPartitionParallel(
            algo, [&](uint32_t p) { return appender.BucketRecords(p); },
            [&](uint32_t p, auto&& gather) { appender.ForEachBlock(p, gather); });
      } else {
        const PartitionLayout& layout = store_.layout();
        ShuffleOutput<Update> shuffled;
        if (cur_iter_.updates_generated > 0) {
          ScopedInterval si(streaming_);
          obs::TraceSpan span("shuffle");
          // Wall only: the shuffle levels have no per-partition owner, and
          // a phantom cell would dilute the skew index.
          obs::PhaseTimer pt(&accountant_, obs::Phase::kShuffle, obs::kNoPartition,
                             obs::PhaseTimerMode::kWallOnly);
          shuffled = ShuffleLevels(
              store_.pool(), store_.update_records().data(), store_.scratch_records(),
              appender.chunks(), layout.num_partitions(), store_.shuffle_fanout(),
              CeilLog2(layout.num_partitions()) - bucket_shift_,
              [&layout](const Update& u) { return layout.PartitionOf(u.dst); });
        }
        GatherPartitionParallel(
            algo, [&](uint32_t p) { return shuffled.PartitionRecords(p); },
            [&](uint32_t p, auto&& gather) {
              for (const auto& slice : shuffled.slices) {
                gather(shuffled.data + slice[p].begin, slice[p].count);
              }
            });
      }
      stats_.streaming_seconds += streaming_.TotalSeconds();
    } else {
      PassBoundariesThrough(kAllBoundaries);
      auto plan = store_.FinishScatter(algo, appender);
      // Drained updates were removed from the buffer before the tail count,
      // but they were generated (and gathered) all the same. A spilled tail
      // is already inside spilled_updates(); only a memory-resident tail
      // needs adding on top.
      cur_iter_.updates_generated = store_.spilled_updates() + store_.drained_updates() +
                                    (plan.memory_gather ? plan.tail_records : 0);
      cur_iter_.updates_absorbed = store_.absorbed_updates() + store_.drained_updates();
      GatherPartitionSequential(algo, plan);
    }
    scatter_appender_.reset();
    in_iteration_scatter_ = false;
    iter_span_.Stop("iteration");
    accountant_.EndIteration();

    cur_iter_.seconds = iter_timer_.Seconds();
    stats_.edges_streamed += cur_iter_.edges_streamed;
    stats_.updates_generated += cur_iter_.updates_generated;
    stats_.wasted_edges += cur_iter_.wasted_edges;
    stats_.updates_absorbed += cur_iter_.updates_absorbed;
    ++stats_.iterations;
    if (opts_.keep_iteration_log) {
      stats_.per_iteration.push_back(cur_iter_);
    }
    progress_iteration_->Set(static_cast<double>(stats_.iterations));
    progress_active_->Set(static_cast<double>(cur_iter_.vertices_changed));
    PublishThroughput(stats_.edges_streamed);
    return cur_iter_;
  }

  // Abandons a half-done iteration (the scheduler cancelled this job
  // mid-round): in-flight spill writes are drained and already spilled
  // updates discarded; stats() keeps only completed iterations. Vertex
  // state is NOT rewound — partitions scattered before the cancel may hold
  // absorbed mid-iteration updates — so a cancelled driver/store pair is
  // only safe to destroy, not to resume.
  void CancelIterationScatter() {
    if (!in_iteration_scatter_) {
      return;
    }
    if constexpr (!Store::kPartitionParallel) {
      store_.AbortScatter();
    }
    scatter_span_.Cancel();
    iter_span_.Cancel();
    accountant_.EndIteration();
    scatter_appender_.reset();
    in_iteration_scatter_ = false;
  }

  // Runs Init + iterations until a scatter emits no updates, the algorithm
  // reports Done, or max_iterations is reached.
  RunStats Run(Algo& algo, uint64_t max_iterations = UINT64_MAX) {
    WallTimer timer;
    InitVertices(algo);
    while (stats_.iterations < max_iterations) {
      IterationStats iter = RunIteration(algo);
      if (iter.updates_generated == 0) {
        break;
      }
      if constexpr (HasDone<Algo>) {
        if (algo.Done(iter)) {
          break;
        }
      }
    }
    stats_.compute_seconds += timer.Seconds();
    FinalizeStats();
    return stats_;
  }

  // Folds scheduler and device counters into stats(). Run() calls this
  // automatically; manual RunIteration drivers should call it before
  // reading stats().
  void FinalizeStats() {
    if constexpr (Store::kPartitionParallel) {
      stats_.steals = queues_.steal_count();
    }
    if constexpr (requires(Store& s, RunStats& r) { s.CollectDeviceStats(r); }) {
      store_.CollectDeviceStats(stats_);
    }
  }

  // Clears run statistics (multi-computation reuse of one engine).
  void ResetStats() {
    stats_ = RunStats{};
    queues_.reset_steal_count();
    if constexpr (requires(Store& s) { s.CaptureDeviceBaselines(); }) {
      store_.CaptureDeviceBaselines();
    }
  }

  // ---- Partition-parallel scatter work items (§4.1) -----------------------

  // A run of at most kScatterItemEdges edges of one partition, inside one of
  // its setup-shuffle chunks: `begin` indexes the store's edge chunk array
  // (MemoryStreamStore::VisitEdgeChunks). Any thread may scatter any item:
  // its appender blocks are its own, and scatter only reads source states.
  struct ScatterItem {
    uint32_t partition = 0;
    uint64_t begin = 0;
    uint64_t count = 0;
  };

  // Replaces `items` with this iteration's scatter work: the chunks of every
  // partition PartitionNeedsScatter accepts, cut into items, in partition,
  // slice and edge order.
  void BuildScatterItems(std::vector<ScatterItem>& items) const
    requires(Store::kPartitionParallel)
  {
    items.clear();
    store_.VisitEdgeChunks([&](const auto& chunks) {
      for (uint32_t p = 0; p < store_.layout().num_partitions(); ++p) {
        if (!PartitionNeedsScatter(p)) {
          continue;
        }
        for (const auto& slice : chunks.slices) {
          const ChunkRef& c = slice[p];
          for (uint64_t lo = 0; lo < c.count; lo += kScatterItemEdges) {
            items.push_back({p, c.begin + lo, std::min(kScatterItemEdges, c.count - lo)});
          }
        }
      }
    });
    XS_CHECK_LE(items.size(), uint64_t{UINT32_MAX});
  }

  // ---- Checkpointing ------------------------------------------------------

  // Persists all vertex state (one sequential write stream) so a long
  // computation can resume in a fresh engine. States are written in the
  // layout's dense order behind a CheckpointHeader that also records the
  // active vertex mapping, so a restore under a different `--partitioner`
  // fails loudly instead of scrambling states. Write errors raised on the
  // checkpoint device's I/O thread propagate (StreamWriter Close, not the
  // quiet Finish).
  void SaveVertexStates(StorageDevice& dev, const std::string& file) {
    const PartitionLayout& layout = store_.layout();
    FileId f = dev.Create(file);
    StreamWriter writer(dev, f, kCheckpointChunkBytes);
    CheckpointHeader hdr;
    hdr.num_partitions = layout.num_partitions();
    hdr.num_vertices = layout.num_vertices();
    hdr.state_bytes = sizeof(VertexState);
    hdr.mapping_entries = layout.mapped() ? layout.num_vertices() : 0;
    writer.AppendRecord(hdr);
    if (layout.mapped()) {
      const std::vector<uint32_t>& po = layout.mapping()->partition_of;
      writer.Append(std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(po.data()), po.size() * sizeof(uint32_t)));
    }
    if (store_.all_resident()) {
      writer.Append(std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(store_.resident_states()),
          layout.num_vertices() * sizeof(VertexState)));
    } else {
      for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
        if (layout.Size(p) == 0) {
          continue;
        }
        store_.LoadPartition(p);
        writer.Append(std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(store_.partition_states()),
            layout.Size(p) * sizeof(VertexState)));
      }
    }
    writer.Close();
  }

  // Restores states saved by SaveVertexStates. The graph (vertex count,
  // state type) and the vertex mapping must match the checkpoint; aborts
  // with a clear message otherwise — a mapping mismatch would otherwise
  // restore every state into the wrong vertex silently. The restored states
  // are not inspected, so every partition scatters in the next iteration.
  void LoadVertexStates(StorageDevice& dev, const std::string& file) {
    const PartitionLayout& layout = store_.layout();
    std::fill(active_.begin(), active_.end(), 1);
    FileId f = dev.Open(file);
    XS_CHECK_GE(dev.FileSize(f), sizeof(CheckpointHeader))
        << "checkpoint does not match: file smaller than a checkpoint header";
    CheckpointHeader hdr;
    dev.Read(f, 0,
             std::span<std::byte>(reinterpret_cast<std::byte*>(&hdr), sizeof(hdr)));
    XS_CHECK_EQ(hdr.magic, CheckpointHeader::kMagic)
        << "checkpoint does not match: bad magic (not an xstream checkpoint, or one "
           "written before the mapping-aware format)";
    XS_CHECK_EQ(hdr.version, CheckpointHeader::kVersion)
        << "checkpoint does not match: unsupported checkpoint version";
    XS_CHECK_EQ(hdr.num_vertices, layout.num_vertices())
        << "checkpoint does not match this graph (vertex count)";
    XS_CHECK_EQ(hdr.state_bytes, sizeof(VertexState))
        << "checkpoint does not match this algorithm (vertex state size)";
    uint64_t base = sizeof(CheckpointHeader) + hdr.mapping_entries * sizeof(uint32_t);
    XS_CHECK_EQ(dev.FileSize(f), base + layout.num_vertices() * sizeof(VertexState))
        << "checkpoint does not match: truncated or trailing bytes";
    if (layout.mapped() || hdr.mapping_entries > 0) {
      XS_CHECK_EQ(hdr.mapping_entries, layout.mapped() ? layout.num_vertices() : 0)
          << "checkpoint does not match: it was written under a "
          << (hdr.mapping_entries > 0 ? "streaming-partitioner mapping" : "range layout")
          << " but this engine runs the other; restore with the same --partitioner";
      XS_CHECK_EQ(hdr.num_partitions, layout.num_partitions())
          << "checkpoint does not match: partition count differs under a mapped layout";
      std::vector<uint32_t> saved(hdr.mapping_entries);
      dev.Read(f, sizeof(CheckpointHeader),
               std::span<std::byte>(reinterpret_cast<std::byte*>(saved.data()),
                                    saved.size() * sizeof(uint32_t)));
      XS_CHECK(saved == layout.mapping()->partition_of)
          << "checkpoint does not match: it was written under a different vertex "
             "mapping (same --partitioner family but a different assignment); states "
             "would restore into the wrong vertices";
    }
    if (store_.all_resident()) {
      dev.Read(f, base,
               std::span<std::byte>(reinterpret_cast<std::byte*>(store_.resident_states()),
                                    layout.num_vertices() * sizeof(VertexState)));
      return;
    }
    uint64_t offset = base;
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      uint64_t n = layout.Size(p);
      if (n == 0) {
        continue;
      }
      dev.Read(f, offset,
               std::span<std::byte>(reinterpret_cast<std::byte*>(store_.partition_states()),
                                    n * sizeof(VertexState)));
      store_.StorePartition(p);
      offset += n * sizeof(VertexState);
    }
  }

 private:
  static constexpr size_t kCheckpointChunkBytes = 4 * 1024 * 1024;

  // ScatterChunk scatters a span of at most this many edges on one thread:
  // waking the pool would cost more than the span's work.
  static constexpr uint64_t kMinSplitEdges = 2048;

  // Shared scatter inner loop: streams one span of stored edge records
  // (Edge, or EdgePair seen as an Edge of weight 0) against the given state
  // slice, appending emitted updates from thread `tid` to their destination
  // bucket. Returns the number of wasted edges (streamed, no update sent —
  // Fig 12b).
  template <typename EdgeRecord>
  uint64_t ScatterSpan(Algo& algo, const EdgeRecord* es, uint64_t count,
                       const VertexState* state_base, VertexId part_base, int tid,
                       ScatterAppender& appender) {
    const PartitionLayout& layout = store_.layout();
    uint64_t wasted = 0;
    for (uint64_t i = 0; i < count; ++i) {
      Update out;
      if (algo.Scatter(state_base[layout.DenseId(es[i].src) - part_base], ToEdge(es[i]),
                       out)) {
        appender.Append(tid, layout.PartitionOf(out.dst) >> bucket_shift_, out);
      } else {
        ++wasted;
      }
    }
    return wasted;
  }

  // Partition-boundary migration hook: partially resident stores apply
  // staged residency changes (evictions/promotions) one partition at a time
  // as the scatter passes each boundary, instead of in a stop-the-world
  // phase between iterations. Boundaries pass in the iteration's visit order
  // (cyclic from BeginIterationScatter's first partition) up to and
  // including `last`: a partition skipped for want of an Active vertex
  // passes its boundary when the next visited partition does, or at the end
  // of scatter, so a skip moves no migration relative to any streamed
  // update. Reached only through the drivable pieces, so solo loops, the
  // scheduler's shared scans and hand-built loops that `continue` past a
  // rejected partition all migrate alike.
  static constexpr uint32_t kAllBoundaries = UINT32_MAX;

  void PassBoundariesThrough(uint32_t last)
    requires(!Store::kPartitionParallel)
  {
    const uint32_t k = store_.layout().num_partitions();
    while (boundaries_left_ > 0) {
      const uint32_t p = next_boundary_;
      next_boundary_ = (p + 1) % k;
      --boundaries_left_;
      if constexpr (requires(Store& st, uint32_t q) { st.AtPartitionBoundary(q); }) {
        obs::PhaseTimer pt(&accountant_, obs::Phase::kMigration, p);
        store_.AtPartitionBoundary(p);
      }
      if (p == last) {
        return;
      }
    }
  }

  // Records whether partition p's states (at `states`) hold an Active
  // vertex, for the next scatter's PartitionNeedsScatter.
  void NoteActivity(const Algo& algo, uint32_t p, const VertexState* states) {
    if constexpr (HasActive<Algo>) {
      const uint64_t n = store_.layout().Size(p);
      active_[p] = std::any_of(states, states + n,
                               [&algo](const VertexState& s) { return algo.Active(s); });
    }
  }

  // ---- Partition-parallel shape (memory store, §4) ------------------------

  // Scatter phase: scatter every accepted partition's edges concurrently, in
  // work items stolen edge run by edge run, appending updates to the shared
  // update buffer grouped by destination bucket. Each item times itself
  // into its partition's cell.
  void ScatterAllPartitionsParallel(Algo& algo)
    requires(Store::kPartitionParallel)
  {
    ThreadPool& pool = store_.pool();
    ScatterAppender& appender = *scatter_appender_;
    BuildScatterItems(scatter_items_);
    std::atomic<uint64_t> edges_streamed{0};
    std::atomic<uint64_t> wasted{0};
    std::vector<double> busy(static_cast<size_t>(pool.num_threads()), 0.0);
    queues_.Distribute(static_cast<uint32_t>(scatter_items_.size()));
    {
      ScopedInterval si(streaming_);
      obs::TraceSpan span("scatter");
      WallTimer section;
      const VertexState* states = store_.resident_states();
      store_.VisitEdgeChunks([&](const auto& chunks) {
        pool.RunOnAll([&](int tid) {
          uint64_t local_edges = 0;
          uint64_t local_wasted = 0;
          double local_busy = 0.0;
          uint32_t i = 0;
          while (queues_.Pop(tid, i, opts_.enable_work_stealing)) {
            const ScatterItem& item = scatter_items_[i];
            WallTimer timer;
            local_wasted +=
                ScatterSpan(algo, chunks.data + item.begin, item.count, states, 0, tid, appender);
            local_edges += item.count;
            const double seconds = timer.Seconds();
            accountant_.RecordCell(obs::Phase::kScatter, item.partition, seconds);
            local_busy += seconds;
          }
          busy[static_cast<size_t>(tid)] = local_busy;
          edges_streamed.fetch_add(local_edges, std::memory_order_relaxed);
          wasted.fetch_add(local_wasted, std::memory_order_relaxed);
        });
      });
      appender.FlushAll();
      RecordParallelSection(obs::Phase::kScatter, section.Seconds(), busy);
    }
    cur_iter_.edges_streamed = edges_streamed.load();
    cur_iter_.wasted_edges = wasted.load();
  }

  // Gather phase: stream each partition's update chunks into its vertex
  // states; EndVertex and the activity flag run per partition right after
  // its gather (legal because gather only touches the partition's own
  // vertices). Partitions are dealt out heaviest first, by update count, so
  // the items left to steal when the phase drains are the lightest; the
  // order cannot change a result, since partitions share no vertex.
  // records(p) is partition p's update count; for_each_chunk(p, gather)
  // calls gather(updates, count) once per chunk of partition p.
  template <typename Records, typename ForEachChunk>
  void GatherPartitionParallel(Algo& algo, Records&& records, ForEachChunk&& for_each_chunk)
    requires(Store::kPartitionParallel)
  {
    const PartitionLayout& layout = store_.layout();
    ThreadPool& pool = store_.pool();
    std::atomic<uint64_t> changed{0};
    std::vector<double> busy(static_cast<size_t>(pool.num_threads()), 0.0);
    std::vector<std::pair<uint64_t, uint32_t>> by_weight(layout.num_partitions());
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      by_weight[p] = {records(p), p};
    }
    std::stable_sort(by_weight.begin(), by_weight.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    queues_.Distribute(layout.num_partitions());
    {
      ScopedInterval si(streaming_);
      obs::TraceSpan span("gather");
      WallTimer section;
      VertexState* states = store_.resident_states();
      pool.RunOnAll([&](int tid) {
        uint64_t local_changed = 0;
        double local_busy = 0.0;
        uint32_t i = 0;
        while (queues_.Pop(tid, i, opts_.enable_work_stealing)) {
          const uint32_t p = by_weight[i].second;
          WallTimer timer;
          if (cur_iter_.updates_generated > 0) {
            for_each_chunk(p, [&](const Update* us, uint64_t count) {
              for (uint64_t i = 0; i < count; ++i) {
                if (algo.Gather(states[layout.DenseId(us[i].dst)], us[i])) {
                  ++local_changed;
                }
              }
            });
          }
          if constexpr (HasEndVertex<Algo>) {
            for (VertexId i = layout.Begin(p); i < layout.End(p); ++i) {
              algo.EndVertex(layout.OriginalId(i), states[i]);
            }
          }
          NoteActivity(algo, p, states + layout.Begin(p));
          const double seconds = timer.Seconds();
          accountant_.RecordCell(obs::Phase::kGather, p, seconds);
          local_busy += seconds;
        }
        busy[static_cast<size_t>(tid)] = local_busy;
        changed.fetch_add(local_changed, std::memory_order_relaxed);
      });
      RecordParallelSection(obs::Phase::kGather, section.Seconds(), busy);
    }
    cur_iter_.vertices_changed = changed.load();
  }

  // Charges one partition-parallel section: its wall time on the driving
  // thread, and the thread-seconds the pool's threads sat idle in it
  // (threads x wall - the items' busy time), which is what a straggler
  // costs.
  void RecordParallelSection(obs::Phase ph, double wall, const std::vector<double>& busy) {
    double total = 0.0;
    for (double b : busy) {
      total += b;
    }
    accountant_.RecordWall(ph, wall);
    accountant_.RecordIdle(ph, static_cast<double>(busy.size()) * wall - total);
  }

  // ---- Partition-sequential shape (device store, §3) ----------------------

  // Gather phase: absorbed updates already mutated their partition's stored
  // state during scatter; count them with the file/memory gathers.
  template <typename Plan>
  void GatherPartitionSequential(Algo& algo, const Plan& plan)
    requires(!Store::kPartitionParallel)
  {
    const PartitionLayout& layout = store_.layout();
    ThreadPool& pool = store_.pool();
    std::atomic<uint64_t> changed{store_.absorbed_changed()};
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      if (layout.Size(p) == 0) {
        continue;
      }
      obs::TraceSpan span("gather", "phase", p);
      obs::PhaseTimer pt(&accountant_, obs::Phase::kGather, p);
      store_.BeginPartitionGather(p);
      VertexState* state_base =
          store_.all_resident() ? store_.resident_states() : store_.partition_states();
      VertexId part_base = store_.all_resident() ? 0 : layout.Begin(p);

      if (plan.memory_gather) {
        // p's bucket blocks, where scatter flushed them: one slice per
        // scattering thread.
        SliceNodes slices(plan.chunks->size());
        uint64_t count = 0;
        for (size_t t = 0; t < slices.size(); ++t) {
          const ChunkList& blocks = (*plan.chunks)[t][p];
          slices[t] = {blocks};
          for (const ChunkRef& c : blocks) {
            count += c.count;
          }
        }
        GatherChunk(algo, plan.resident, slices, count, state_base, part_base, p, plan.scratch,
                    changed);
      } else {
        const uint64_t threads = static_cast<uint64_t>(pool.num_threads());
        store_.ForEachUpdateChunk(p, [&](const Update* us, uint64_t count) {
          // One loaded chunk: one contiguous slice per thread.
          SliceNodes slices(threads);
          for (uint64_t t = 0; t < threads; ++t) {
            const uint64_t lo = count * t / threads;
            slices[t] = {ChunkList{ChunkRef{lo, count * (t + 1) / threads - lo}}};
          }
          GatherChunk(algo, us, slices, count, state_base, part_base, p, plan.scratch, changed);
        });
      }

      VertexId base = layout.Begin(p);
      if constexpr (HasEndVertex<Algo>) {
        pool.ParallelFor(0, layout.Size(p), 4096, [&](uint64_t lo, uint64_t hi) {
          for (uint64_t i = lo; i < hi; ++i) {
            algo.EndVertex(layout.OriginalId(base + i), state_base[base + i - part_base]);
          }
        });
      }
      NoteActivity(algo, p, state_base + (base - part_base));
      store_.EndPartitionGather(p, plan.memory_gather);
    }
    store_.FinishGather(plan.memory_gather);
    cur_iter_.vertices_changed = changed.load();
  }

  // Gathers `count` updates of partition p that sit in `in` as one slice of
  // chunks per pool thread (`slices[t]` holds a single node: the slice's
  // chunks in order). With multiple threads the updates are first
  // sub-partitioned by destination (the §4.3 layering), read in place and
  // written to `scratch`, so threads gather disjoint vertex ranges without
  // synchronization; `scratch` must hold `count` updates and not alias
  // `in`. Every vertex sees its updates in slice order, then chunk order.
  void GatherChunk(Algo& algo, const Update* in, const SliceNodes& slices, uint64_t count,
                   VertexState* state_base, VertexId part_base, uint32_t p, Update* scratch,
                   std::atomic<uint64_t>& changed) {
    const PartitionLayout& layout = store_.layout();
    ThreadPool& pool = store_.pool();
    if (pool.num_threads() == 1 || count < 4096) {
      uint64_t local = 0;
      for (const auto& slice : slices) {
        for (const ChunkRef& c : slice.front()) {
          for (uint64_t i = c.begin; i < c.begin + c.count; ++i) {
            if (algo.Gather(state_base[layout.DenseId(in[i].dst) - part_base], in[i])) {
              ++local;
            }
          }
        }
      }
      changed.fetch_add(local, std::memory_order_relaxed);
      return;
    }
    uint32_t sub_k = RoundUpPow2(static_cast<uint64_t>(pool.num_threads()) * 4);
    uint64_t part_size = std::max<uint64_t>(1, layout.Size(p));
    uint64_t sub_span = (part_size + sub_k - 1) / sub_k;
    VertexId begin = layout.Begin(p);
    // Fanout sub_k: a single level, which reads `in` and writes `scratch`.
    auto sub = ShuffleLevelsFrom(pool, in, scratch, scratch, slices, sub_k, sub_k, 0,
                                 [&](const Update& u) {
                                   return static_cast<uint32_t>(
                                       (layout.DenseId(u.dst) - begin) / sub_span);
                                 });
    std::atomic<uint32_t> next{0};
    pool.RunOnAll([&](int) {
      uint64_t local = 0;
      for (;;) {
        uint32_t sp = next.fetch_add(1, std::memory_order_relaxed);
        if (sp >= sub_k) {
          break;
        }
        for (const auto& slice : sub.slices) {
          const ChunkRef& c = slice[sp];
          const Update* rec = sub.data + c.begin;
          for (uint64_t i = 0; i < c.count; ++i) {
            if (algo.Gather(state_base[layout.DenseId(rec[i].dst) - part_base], rec[i])) {
              ++local;
            }
          }
        }
      }
      changed.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Live progress publishes for the telemetry endpoints: the partition
  // cursor at every scatter boundary, cumulative edge throughput whenever
  // the cursor or an iteration lands. Mid-run readers (the HTTP exporter
  // thread) see the last boundary's values — a deliberate snapshot
  // granularity that keeps the publish cost to a few relaxed stores.
  void PublishPartitionProgress(uint32_t s) {
    progress_cursor_->Set(static_cast<double>(s));
    PublishThroughput(stats_.edges_streamed + cur_iter_.edges_streamed);
  }

  void PublishThroughput(uint64_t edges) {
    double elapsed = progress_clock_.Seconds();
    if (elapsed > 0.0) {
      progress_throughput_->Set(static_cast<double>(edges) *
                                static_cast<double>(store_.edge_record_bytes()) / elapsed);
    }
  }

  Store& store_;
  PhaseDriverOptions opts_;
  WorkStealingQueues queues_;
  // Per-phase/per-partition wall-time cells (obs/attribution.h). Named after
  // the progress prefix, so solo runs show up as "run" and scheduler jobs
  // as "job.<name>" in GET /attribution and --explain.
  obs::PhaseAccountant accountant_;
  RunStats stats_;
  obs::Gauge* progress_iteration_ = nullptr;
  obs::Gauge* progress_cursor_ = nullptr;
  obs::Gauge* progress_active_ = nullptr;
  obs::Gauge* progress_throughput_ = nullptr;
  WallTimer progress_clock_;  // driver lifetime, for cumulative bytes/s

  // Partition-parallel shape: scatter's bucket is the destination partition
  // shifted right by this (0 when the buckets are the partitions), and the
  // scatter work items, rebuilt each iteration into one allocation.
  uint32_t bucket_shift_ = 0;
  std::vector<ScatterItem> scatter_items_;
  // In-flight iteration state for the drivable scatter pieces (RunIteration
  // and the scheduler's shared-scan mode alike).
  std::unique_ptr<ScatterAppender> scatter_appender_;
  IterationStats cur_iter_;
  WallTimer iter_timer_;
  IntervalAccumulator streaming_;
  // Tracer spans for the externally driven scatter protocol, where begin
  // and end live in different calls (obs/trace.h; no-ops unless --trace).
  obs::ManualSpan iter_span_;
  obs::ManualSpan scatter_span_;
  const VertexState* scatter_state_base_ = nullptr;
  VertexId scatter_part_base_ = 0;
  // Partition whose chunks ScatterChunk is currently streaming (set by
  // BeginScatterPartition), for cell attribution.
  uint32_t attr_partition_ = 0;
  bool in_iteration_scatter_ = false;
  // Selective scheduling (HasActive algorithms): per partition, whether it
  // held an Active vertex after the last Init or gather. All set — "unknown,
  // scan everything" — at construction and whenever states change outside
  // the driver's sight (VertexMap, LoadVertexStates).
  std::vector<uint8_t> active_;
  // Device shape: the next partition boundary to pass this iteration and
  // how many are left (PassBoundariesThrough).
  uint32_t next_boundary_ = 0;
  uint32_t boundaries_left_ = 0;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_PHASE_RUNTIME_H_
