// StreamStore: where a streaming computation's edge streams, update streams
// and vertex state physically live.
//
// X-Stream's scatter-shuffle-gather loop (paper §3, §4) is the same whether
// the streams sit in RAM or on storage devices; only the residency mechanics
// differ. The StreamingPhaseDriver (core/phase_runtime.h) owns the loop and
// is parameterized over one of the two stores here:
//
//  * MemoryStreamStore — the in-memory engine's substrate (§4): an edge
//    buffer pre-shuffled into per-partition chunks once at setup (8-byte
//    EdgePairs when the algorithm reads no weights), an update
//    buffer that scatter appends into already grouped by destination, a
//    shuffle-scratch buffer only when the partitions outnumber the shuffle
//    fanout, and all vertex state resident in one dense-ordered array.
//    Never spills.
//  * DeviceStreamStore — the device engine's substrate (§3): one edge
//    (Edge or EdgePair records, see below), update and vertex file per
//    streaming partition on StorageDevices, chunked StreamReader input, and
//    a fill buffer that scatter appends into already grouped by destination
//    partition (BucketedAppender blocks). A spill copies each file-bound
//    partition's blocks into one contiguous run of a slot buffer and appends
//    the runs to the update files on the device's I/O thread; no shuffle
//    pass runs. Spill writes are double-buffered: the copy of batch k+1 runs
//    while the write of batch k is in flight (§3.3 "writes to disk of the
//    chunks in one output buffer are overlapped with computing ... into
//    another output buffer"), waiting only when a slot buffer is still
//    owned by the write two batches back. `async_spill = false` degrades to
//    a fully synchronous spill (the fig28 baseline). A pin budget keeps
//    planner-chosen partitions in RAM; budget 0 is the paper's out-of-core
//    store.
//
// The common surface the driver relies on is captured by the StreamStoreFor
// concept below; the phase-shape extensions (partition-parallel scatter for
// the memory store, sequential partition streaming with spills for the
// device store) are selected by the store's kPartitionParallel trait.
#ifndef XSTREAM_CORE_STREAM_STORE_H_
#define XSTREAM_CORE_STREAM_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "buffers/shuffler.h"
#include "buffers/stream_buffer.h"
#include "core/algorithm.h"
#include "core/partition.h"
#include "core/residency.h"
#include "core/stats.h"
#include "core/stream_codec.h"
#include "graph/types.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/device.h"
#include "storage/io_executor.h"
#include "storage/stream_io.h"
#include "threads/bucketed_appender.h"
#include "threads/thread_pool.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

// The store surface the driver's residency-generic code (vertex iteration,
// checkpointing, gather targets) is written against. Phase-shape specifics
// are intentionally outside the concept: the driver selects them with
// `if constexpr (Store::kPartitionParallel)`.
template <typename S>
concept StreamStoreFor = requires(S s, const S cs, uint32_t p, RunStats stats) {
  typename S::VertexState;
  typename S::Update;
  { S::kPartitionParallel } -> std::convertible_to<bool>;
  { s.pool() } -> std::same_as<ThreadPool&>;
  { cs.layout() } -> std::same_as<const PartitionLayout&>;
  { cs.all_resident() } -> std::convertible_to<bool>;
  { s.resident_states() } -> std::same_as<typename S::VertexState*>;
  { s.partition_states() } -> std::same_as<typename S::VertexState*>;
  { s.LoadPartition(p) } -> std::same_as<void>;
  { s.StorePartition(p) } -> std::same_as<void>;
  { s.BindStats(&stats) } -> std::same_as<void>;
  { s.BeginIteration() } -> std::same_as<void>;
};

// ---------------------------------------------------------------------------
// Shared edge-partitioning plumbing, and the device edge-file format.
//
// The device store's setup and ingest paths, and the multi-job scheduler's
// shared-scan substrate (src/scheduler/scan_source.h), all run the same
// pass: stream unordered edges, shuffle each loaded stretch by source
// partition, append the chunks to per-partition files, and optionally tally
// destination/local edges for the residency planner.
//
// A partitioned edge file stores the narrowest record its readers need:
// whole 12-byte Edges when some reader reads weights (`weights`), 8-byte
// EdgePairs otherwise (core/algorithm.h, kReadsEdgeWeight). The writer
// (ShuffleAppendEdgeBlock), the one reader (StreamEdgeFile) and the
// bytes-per-edge figure (EdgeRecordBytes) below are the only code that
// knows which; every reader sees `const Edge*` chunks of the same size
// either way.

// Bytes one stored edge occupies in a partitioned edge file (and moves per
// scan).
inline size_t EdgeRecordBytes(bool weights) {
  return weights ? sizeof(Edge) : sizeof(EdgePair);
}

// Edges per chunk a device edge scan hands out: one I/O unit of Edges,
// whatever the stored record, so chunk counts, spill points and buffer
// sizing do not depend on the format.
inline uint64_t EdgeChunkEdges(size_t io_unit_bytes) {
  return std::max<uint64_t>(1, io_unit_bytes / sizeof(Edge));
}

struct EdgeShuffleTallies {
  std::vector<uint64_t>* src = nullptr;    // edges by source partition
  std::vector<uint64_t>* dst = nullptr;    // edges by destination partition
  std::vector<uint64_t>* local = nullptr;  // src and dst share the partition
  bool collect_dst = false;                // one extra PartitionOf per edge
};

// Shuffles `count` edges sitting at the start of `data` by source partition
// into `scratch` (which must also hold `count` Edges), narrowing them to
// EdgePairs unless `weights`, and appends each partition's spans to its
// file. Callers guarantee no spill write owns `scratch`.
inline void ShuffleAppendEdgeBlock(ThreadPool& pool, const PartitionLayout& layout,
                                   StorageDevice& dev, const std::vector<FileId>& files,
                                   const Edge* data, Edge* scratch, uint64_t count,
                                   const EdgeShuffleTallies& tallies, bool weights,
                                   size_t stage_bytes = 0) {
  if (count == 0) {
    return;
  }
  auto append = [&](auto* out) {
    using Stored = std::remove_pointer_t<decltype(out)>;
    // Fanout K: one step (K == 1 copies), so the records land in `out`.
    auto shuffled = ShuffleRecordsFrom(
        pool, data, out, out, count, layout.num_partitions(), layout.num_partitions(),
        [&layout](const auto& e) { return layout.PartitionOf(e.src); }, stage_bytes);
    for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
      for (const auto& slice : shuffled.slices) {
        const ChunkRef& c = slice[p];
        if (c.count > 0) {
          dev.Append(files[p],
                     std::span<const std::byte>(
                         reinterpret_cast<const std::byte*>(shuffled.data + c.begin),
                         c.count * sizeof(Stored)));
          if (tallies.src != nullptr) {
            (*tallies.src)[p] += c.count;
          }
          // Within p's slice every edge has source partition p, so one
          // PartitionOf per edge classifies it as local or cross-partition.
          if (tallies.collect_dst) {
            for (uint64_t i = 0; i < c.count; ++i) {
              uint32_t pd = layout.PartitionOf(shuffled.data[c.begin + i].dst);
              ++(*tallies.dst)[pd];
              if (pd == p) {
                ++(*tallies.local)[p];
              }
            }
          }
        }
      }
    }
  };
  if (weights) {
    append(scratch);
  } else {
    append(reinterpret_cast<EdgePair*>(scratch));
  }
}

// Streams the unordered input file and partitions it through the block
// shuffle above, batching up to `capacity_bytes` of edges per shuffle.
inline void PartitionEdgeFileToParts(ThreadPool& pool, const PartitionLayout& layout,
                                     StorageDevice& in_dev, const std::string& input_file,
                                     StorageDevice& out_dev, const std::vector<FileId>& files,
                                     Edge* fill, Edge* scratch, uint64_t capacity_bytes,
                                     size_t io_unit_bytes, const EdgeShuffleTallies& tallies,
                                     bool weights, size_t stage_bytes = 0) {
  FileId input = in_dev.Open(input_file);
  size_t read_chunk =
      std::max<size_t>(sizeof(Edge), io_unit_bytes / sizeof(Edge) * sizeof(Edge));
  XS_CHECK_LE(read_chunk, capacity_bytes)
      << "edge-partitioning buffer smaller than one read chunk";
  StreamReader reader(in_dev, input, read_chunk);
  uint64_t buffered = 0;
  for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
    XS_CHECK_EQ(chunk.size() % sizeof(Edge), 0u);
    uint64_t n = chunk.size() / sizeof(Edge);
    if ((buffered + n) * sizeof(Edge) > capacity_bytes) {
      ShuffleAppendEdgeBlock(pool, layout, out_dev, files, fill, scratch, buffered, tallies,
                             weights, stage_bytes);
      buffered = 0;
    }
    std::memcpy(reinterpret_cast<std::byte*>(fill) + buffered * sizeof(Edge), chunk.data(),
                chunk.size());
    buffered += n;
  }
  ShuffleAppendEdgeBlock(pool, layout, out_dev, files, fill, scratch, buffered, tallies,
                         weights, stage_bytes);
}

// What an edge-file scan cost its thread outside the consumer: the seconds
// spent waiting on reads the prefetch did not hide (a storage wait), and the
// seconds spent widening pair chunks (scatter's input work).
struct EdgeScanSeconds {
  double read_wait = 0.0;
  double widen = 0.0;
};

// Streams one partitioned edge file as `const Edge*` chunks of at most
// EdgeChunkEdges(io_unit_bytes) edges (prefetch distance 1). A pair file
// reads 8 bytes per edge and widens each chunk in place, in the reader's
// own buffer, with weight 0.
template <typename F>
EdgeScanSeconds StreamEdgeFile(StorageDevice& dev, FileId file, size_t io_unit_bytes,
                               bool weights, F&& f) {
  const uint64_t chunk_edges = EdgeChunkEdges(io_unit_bytes);
  const size_t record = EdgeRecordBytes(weights);
  StreamReader reader(dev, file, chunk_edges * record, chunk_edges * sizeof(Edge));
  EdgeScanSeconds spent;
  for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
    const uint64_t n = chunk.size() / record;
    if (!weights) {
      WallTimer widen;
      // Back to front: pair i is read before Edge i's slot, which starts at
      // or after it, is written, and every pair before i lies below it.
      for (uint64_t i = n; i-- > 0;) {
        EdgePair pair;
        std::memcpy(&pair, chunk.data() + i * sizeof(EdgePair), sizeof(pair));
        const Edge e = ToEdge(pair);
        std::memcpy(chunk.data() + i * sizeof(Edge), &e, sizeof(e));
      }
      spent.widen += widen.Seconds();
    }
    f(reinterpret_cast<const Edge*>(chunk.data()), n);
  }
  spent.read_wait = reader.wait_seconds();
  return spent;
}

// ---------------------------------------------------------------------------
// PinnedEdgeCache: per-partition edge streams cached in RAM.
//
// A fully resident pinned partition still pays one device pass per
// iteration for its edge stream — the last traffic between it and true
// memory speed. This cache closes that gap: a partition whose residency
// plan requests edge pinning captures its chunks during the next device
// scan and serves every later ForEachEdgeChunk from RAM, so at a full pin
// budget the edge device is never touched after the first iteration.
//
// One cache can back several consumers: a solo DeviceStreamStore owns a
// private instance, while in scheduler runs the DeviceScanSource owns one
// shared instance that every attached pinning job Request()s partitions
// into — N concurrent jobs hit one copy of the cached edges, mirroring how
// attach mode already shares the edge files themselves. Requests are
// refcounted so a partition stays cached while any job still pins it.
//
// Thread-safety: mutators (Request/Release/capture/seal) are serialized by
// the caller — the store's compute loop, or the scheduler's single-driver
// protocol — and additionally take an internal mutex so driver-role
// handoffs across threads see consistent state. TryServe reads sealed data
// lock-free behind an acquire load; sealed chunk data is immutable until
// the (caller-serialized) Release that drops it. No call blocks on I/O.
class PinnedEdgeCache {
 public:
  /// `chunk_edges` is the granularity served back to readers — pass the
  /// same io-unit-derived chunk size the device reader uses, so cached and
  /// streamed scans deliver identically shaped chunks. `stored_edge_bytes`
  /// is what the edge file spends per edge (EdgeRecordBytes): a served edge
  /// saves that many device bytes, while the cache itself holds whole Edges.
  PinnedEdgeCache(uint32_t num_partitions, uint64_t chunk_edges, size_t stored_edge_bytes)
      : chunk_edges_(std::max<uint64_t>(1, chunk_edges)),
        stored_edge_bytes_(stored_edge_bytes),
        parts_(num_partitions),
        hits_(&obs::MetricsRegistry::Global().counter("edge_cache.hits")),
        served_bytes_counter_(
            &obs::MetricsRegistry::Global().counter("edge_cache.served_bytes")),
        pinned_gauge_(&obs::MetricsRegistry::Global().gauge("edge_cache.pinned_bytes")) {}

  /// A consumer wants partition p cached (refcounted). Capture happens on
  /// the next scan that streams p from the device.
  void Request(uint32_t p) {
    std::lock_guard<std::mutex> lk(mu_);
    ++parts_[p].refs;
  }

  /// Drops one reference; at zero the cached chunks are freed and the next
  /// Request must re-capture.
  void Release(uint32_t p) {
    std::lock_guard<std::mutex> lk(mu_);
    Part& part = parts_[p];
    if (part.refs > 0 && --part.refs == 0) {
      if (part.sealed.load(std::memory_order_relaxed)) {
        bytes_.fetch_sub(part.edges.size() * sizeof(Edge), std::memory_order_relaxed);
      }
      part.sealed.store(false, std::memory_order_release);
      part.edges = {};
    }
  }

  /// How ServeOrCapture delivered (or declined to deliver) a partition.
  enum class ServeResult {
    kMiss,      // not cached, not wanted: caller streams from the device
    kServed,    // delivered from RAM, no device I/O
    kCaptured,  // streamed from the device once, now cached for next time
  };

  /// The chunk consumer a capture-time stream feeds (type-erased: the
  /// capture path runs once per partition lifetime, so the indirection per
  /// chunk is noise).
  using ChunkConsumer = std::function<void(const Edge*, uint64_t)>;

  /// The one serve/capture protocol: serves p from RAM when a sealed
  /// capture exists; otherwise, when some consumer requested p, invokes
  /// `stream(consumer)` — the caller's device scan — capturing each chunk
  /// as it passes through and sealing at the end; otherwise kMiss and the
  /// caller streams normally. `*bytes_served` receives the edge-device
  /// bytes the serve avoided (kServed only), for avoided-read accounting.
  template <typename F>
  ServeResult ServeOrCapture(uint32_t p, F&& f,
                             const std::function<void(const ChunkConsumer&)>& stream,
                             uint64_t* bytes_served = nullptr) {
    if (TryServe(p, f, bytes_served)) {
      return ServeResult::kServed;
    }
    if (!WantsCapture(p)) {
      return ServeResult::kMiss;
    }
    BeginCapture(p);
    stream([&](const Edge* es, uint64_t n) {
      CaptureChunk(p, es, n);
      f(es, n);
    });
    Seal(p);
    return ServeResult::kCaptured;
  }

  /// Serves partition p's chunks from RAM if a complete capture exists.
  /// Returns false (touching nothing) otherwise. `*bytes_served` (optional)
  /// receives the edge-device bytes avoided, for avoided-read accounting.
  template <typename F>
  bool TryServe(uint32_t p, F&& f, uint64_t* bytes_served = nullptr) {
    Part& part = parts_[p];
    if (!part.sealed.load(std::memory_order_acquire)) {
      return false;
    }
    const std::vector<Edge>& edges = part.edges;
    for (uint64_t i = 0; i < edges.size(); i += chunk_edges_) {
      f(edges.data() + i, std::min<uint64_t>(chunk_edges_, edges.size() - i));
    }
    uint64_t bytes = edges.size() * stored_edge_bytes_;
    served_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    hits_->Add();
    served_bytes_counter_->Add(bytes);
    if (bytes_served != nullptr) {
      *bytes_served = bytes;
    }
    return true;
  }

  /// True if some consumer requested p and no complete capture exists yet —
  /// the scan streaming p from the device should capture as it goes.
  bool WantsCapture(uint32_t p) const {
    std::lock_guard<std::mutex> lk(mu_);
    return parts_[p].refs > 0 && !parts_[p].sealed.load(std::memory_order_relaxed);
  }

  /// Starts (or restarts, discarding a partial capture an aborted scan left
  /// behind) capturing partition p.
  void BeginCapture(uint32_t p) {
    std::lock_guard<std::mutex> lk(mu_);
    parts_[p].edges.clear();
  }

  void CaptureChunk(uint32_t p, const Edge* es, uint64_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    parts_[p].edges.insert(parts_[p].edges.end(), es, es + n);
  }

  /// Marks p's capture complete; later TryServe calls hit RAM.
  void Seal(uint32_t p) {
    std::lock_guard<std::mutex> lk(mu_);
    bytes_.fetch_add(parts_[p].edges.size() * sizeof(Edge), std::memory_order_relaxed);
    parts_[p].sealed.store(true, std::memory_order_release);
    pinned_gauge_->Set(static_cast<double>(bytes_.load(std::memory_order_relaxed)));
  }

  /// Bytes currently held by sealed captures (the pinned_edge_bytes gauge).
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  /// Cumulative edge-device bytes the cache's serves avoided reading.
  uint64_t served_bytes() const { return served_bytes_.load(std::memory_order_relaxed); }

 private:
  struct Part {
    std::vector<Edge> edges;
    std::atomic<bool> sealed{false};
    uint32_t refs = 0;
  };

  uint64_t chunk_edges_;
  size_t stored_edge_bytes_;
  mutable std::mutex mu_;
  std::deque<Part> parts_;  // deque: Part holds an atomic, so no moves
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> served_bytes_{0};
  // Registry handles, wired once at construction (obs/metrics.h).
  obs::Counter* hits_;
  obs::Counter* served_bytes_counter_;
  obs::Gauge* pinned_gauge_;
};

// Shuffles `edges` by source partition straight into `*records`, a fresh
// buffer of one `Record` (EdgePair or Edge) per edge; a multi-stage shuffle
// borrows a second such buffer for the setup only. Returns the per-slice,
// per-partition chunks, which index the buffer left in `*records`.
template <typename Record>
ShuffleOutput<Record> PartitionEdgeList(ThreadPool& pool, const PartitionLayout& layout,
                                        uint32_t shuffle_fanout, const EdgeList& edges,
                                        StreamBuffer* records) {
  const size_t capacity = std::max<size_t>(1, edges.size()) * sizeof(Record);
  *records = StreamBuffer(capacity);
  StreamBuffer scratch;
  if (ShuffleStages(layout.num_partitions(), shuffle_fanout) > 1) {
    scratch = StreamBuffer(capacity);
  }
  obs::TraceSpan span("setup", "setup");
  ShuffleOutput<Record> chunks = ShuffleRecordsFrom(
      pool, edges.data(), scratch.template records<Record>(),
      records->template records<Record>(), edges.size(), layout.num_partitions(),
      shuffle_fanout, [&layout](const auto& e) { return layout.PartitionOf(e.src); });
  if (chunks.data == scratch.template records<Record>()) {
    // An even number of steps ends in the scratch buffer; keep that one. The
    // move transfers the allocation, so chunks.data stays valid.
    *records = std::move(scratch);
  }
  return chunks;
}

// Partitioned in-RAM edges shared by several MemoryStreamStores (the
// scheduler's memory-engine scan sharing): the setup shuffle runs once and
// every job's store references the same chunk array instead of copying it.
// Any job may read weights, so the chunks hold whole Edges.
struct SharedEdgeChunks {
  StreamBuffer buffer;         // the shuffled edges
  ShuffleOutput<Edge> chunks;  // per-slice, per-partition index into it
  uint64_t num_edges = 0;
  uint32_t shuffle_fanout = 2;  // the §4.2 fanout attached stores shuffle with
};

inline std::shared_ptr<const SharedEdgeChunks> MakeSharedEdgeChunks(
    ThreadPool& pool, const PartitionLayout& layout, uint32_t shuffle_fanout,
    const EdgeList& edges) {
  auto shared = std::make_shared<SharedEdgeChunks>();
  shared->num_edges = edges.size();
  shared->shuffle_fanout = shuffle_fanout;
  shared->chunks = PartitionEdgeList<Edge>(pool, layout, shuffle_fanout, edges, &shared->buffer);
  return shared;
}

// ---------------------------------------------------------------------------
// MemoryStreamStore: chunked in-RAM edge/update streams (paper §4).
//
// The edges sit in one stream buffer, shuffled into per-partition chunks at
// setup — as 8-byte EdgePairs when the algorithm never reads weights
// (StoredEdge), whole Edges otherwise. Scatter appends updates into a
// second buffer, sized for the worst case (one update per edge), through
// per-thread blocks that each hold one destination bucket
// (BucketedAppender). When the partition count is at most the shuffle
// fanout the buckets are the partitions and gather reads the update buffer
// in place. Otherwise the buckets are the first level of the §4.2 shuffle
// tree, and the remaining levels need a third buffer as shuffle scratch,
// which only then is allocated.
template <EdgeCentricAlgorithm Algo>
class MemoryStreamStore {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  // What a solo store keeps per edge; shared-edges stores read the scan
  // source's Edges.
  using EdgeRecord = StoredEdge<Algo>;
  // Partitions are cache-sized and many: scatter and gather run them
  // concurrently under work stealing (§4.1), scatter in runs of edges.
  static constexpr bool kPartitionParallel = true;

  // Shuffles the unordered edges straight from `edges` into per-partition
  // chunks; this replaces the sort+index pre-processing of traditional
  // engines and is charged to setup time by the engine facade.
  MemoryStreamStore(ThreadPool& pool, PartitionLayout layout, uint32_t shuffle_fanout,
                    const EdgeList& edges)
      : pool_(pool), layout_(std::move(layout)), shuffle_fanout_(shuffle_fanout) {
    edge_chunks_ =
        PartitionEdgeList<EdgeRecord>(pool_, layout_, shuffle_fanout_, edges, &edge_buf_);
    AllocateUpdateBuffers(edges.size());
    // The setup shuffle never writes the update buffer, so the first scatter
    // would fault it in page by page, on the solve's critical path; fault it
    // in here, from every thread, as part of setup.
    std::byte* updates = update_buf_.data();
    pool_.ParallelFor(0, update_buf_.capacity_bytes(), 1 << 20,
                      [updates](uint64_t lo, uint64_t hi) {
                        std::memset(updates + lo, 0, hi - lo);
                      });
    states_.resize(layout_.num_vertices());
  }

  // Shared-edges mode (multi-job scheduler): the partitioned edges live in a
  // SharedEdgeChunks owned by the scan source, which also fixed the shuffle
  // fanout; this store allocates only its own update buffer (sized for one
  // update per edge), shuffle scratch when needed, and vertex states.
  MemoryStreamStore(ThreadPool& pool, PartitionLayout layout,
                    std::shared_ptr<const SharedEdgeChunks> shared_edges)
      : pool_(pool), layout_(std::move(layout)), shared_edges_(std::move(shared_edges)) {
    XS_CHECK(shared_edges_ != nullptr);
    shuffle_fanout_ = shared_edges_->shuffle_fanout;
    AllocateUpdateBuffers(shared_edges_->num_edges);
    states_.resize(layout_.num_vertices());
  }

  // Approximate RAM held for this store's lifetime (admission pricing for
  // the multi-job scheduler). Shared edge chunks are charged to their owner,
  // not to each attached store.
  uint64_t ResidentFootprintBytes() const {
    return layout_.num_vertices() * sizeof(VertexState) + edge_buf_.capacity_bytes() +
           update_buf_.capacity_bytes() + scratch_buf_.capacity_bytes();
  }

  ThreadPool& pool() { return pool_; }
  const PartitionLayout& layout() const { return layout_; }
  // The §4.2 shuffler fanout: the setup shuffle's, and the number of
  // destination buckets scatter groups updates into when it is below the
  // partition count.
  uint32_t shuffle_fanout() const { return shuffle_fanout_; }

  // Vertex residency: everything lives in one array in the layout's dense
  // order, so each partition's states stay contiguous.
  bool all_resident() const { return true; }
  VertexState* resident_states() { return states_.data(); }
  const VertexState* resident_states() const { return states_.data(); }
  std::vector<VertexState>& states() { return states_; }
  const std::vector<VertexState>& states() const { return states_; }
  // Partition-residency interface, never reached when all_resident().
  VertexState* partition_states() { return nullptr; }
  void LoadPartition(uint32_t) { XS_CHECK(false) << "memory store is fully resident"; }
  void StorePartition(uint32_t) { XS_CHECK(false) << "memory store is fully resident"; }

  void BindStats(RunStats*) {}
  void BeginIteration() {}

  // Bytes each stored edge occupies, and so moves per scan.
  size_t edge_record_bytes() const {
    return shared_edges_ != nullptr ? sizeof(Edge) : sizeof(EdgeRecord);
  }

  // Scatter inputs: calls f(chunks) once with the setup shuffle's output,
  // where chunks.slices[t][p] locates partition p's edges from slice t in
  // chunks.data. The records are the stored ones — EdgeRecord in solo mode,
  // the scan source's Edges in shared mode.
  template <typename F>
  void VisitEdgeChunks(F&& f) const {
    if (shared_edges_ != nullptr) {
      f(shared_edges_->chunks);
    } else {
      f(edge_chunks_);
    }
  }

  // Scatter output: the bucketed append target, one update per edge.
  std::span<Update> update_records() {
    return {update_buf_.template records<Update>(),
            update_buf_.template capacity_records<Update>()};
  }
  // Shuffle scratch for the levels below the first; null when the
  // partition count does not exceed the fanout.
  Update* scratch_records() {
    return scratch_buf_.capacity_bytes() > 0 ? scratch_buf_.template records<Update>() : nullptr;
  }

 private:
  void AllocateUpdateBuffers(uint64_t num_edges) {
    const uint64_t bytes = std::max<uint64_t>(1, num_edges) * sizeof(Update);
    update_buf_ = StreamBuffer(bytes);
    if (layout_.num_partitions() > shuffle_fanout_) {
      scratch_buf_ = StreamBuffer(bytes);
    }
  }

  ThreadPool& pool_;
  PartitionLayout layout_;
  uint32_t shuffle_fanout_ = 2;
  // Solo mode: the partitioned edges. Shared-edges mode: empty, and the
  // chunks live in shared_edges_.
  StreamBuffer edge_buf_;
  ShuffleOutput<EdgeRecord> edge_chunks_;
  std::shared_ptr<const SharedEdgeChunks> shared_edges_;
  StreamBuffer update_buf_;
  StreamBuffer scratch_buf_;  // empty unless the partitions outnumber the fanout
  std::vector<VertexState> states_;
};

// ---------------------------------------------------------------------------
// DeviceStreamStore: per-partition edge/update/vertex files on storage
// devices (paper §3), with scatter output bucketed by destination partition
// as it is appended and a planner-chosen set of partitions held in RAM.
//
// When vertex states live in files, a ResidencyPlanner (core/residency.h)
// pins partitions under `pin_budget_bytes`, pricing each from the setup
// pass's destination tallies. For every pinned partition
//
//  * vertex states are held in RAM (vertex-file loads/stores become
//    memcpys in/out of the pin),
//  * updates destined to it are appended to an in-RAM buffer at each spill
//    instead of being written to — and later read back from — its update
//    file: the §3.2 memory-gather optimization applied per partition
//    instead of all-or-nothing, and
//  * with `pin_edges` on, its edge stream is captured into a
//    PinnedEdgeCache on the first device scan and served from RAM
//    afterwards, so at a full budget the store runs at memory speed.
//
// Unpinned partitions keep the full device path, including local-update
// absorption and the async double-buffered spill. Pin budget 0 pins
// nothing: that is the paper's §3 store.
//
// Residency is incremental: between iterations the store asks the planner
// for a PlanDelta against the observed per-partition update volume — only
// partitions whose win (or loss) survived the hysteresis filter migrate,
// each at its own scatter boundary (the driver's AtPartitionBoundary hook)
// instead of in a stop-the-world phase. Mid-iteration flips are safe
// because the gather always drains both homes of a partition's updates:
// its RAM buffer and its update file. `residency_hysteresis = 0` restores
// the stop-the-world full re-plan (the fig31 baseline).

// What an attached store (scheduler jobs, src/scheduler/) learns about the
// edge files it shares from their owner, a scan source: where they are,
// which record they store and what the owner's setup pass counted.
struct SharedEdgeFiles {
  std::string prefix;  // the files are "<prefix>.edges.N"
  bool weights = true;  // Edge records; false = EdgePair records
  // Edges per source partition. Not owned, like the tallies below.
  const std::vector<uint64_t>* edge_counts = nullptr;
  // Destination/local tallies for the residency planner; null = the owner
  // collected none, so the store cannot price pins and never pins.
  const std::vector<uint64_t>* dst_tallies = nullptr;
  const std::vector<uint64_t>* local_tallies = nullptr;
};

struct DeviceStoreOptions {
  // The §3.4 streaming budget: the stream buffers, plus the vertex array
  // when §3.2 optimization 1 keeps it in RAM.
  uint64_t memory_budget_bytes = 64ull << 20;
  size_t io_unit_bytes = 1 << 20;
  bool allow_vertex_memory_opt = true;
  bool allow_update_memory_opt = true;
  bool eager_update_truncate = true;
  bool absorb_local_updates = true;
  // Double-buffered asynchronous spill writes (§3.3). Off = each spill
  // waits for its own update-file write (the fig28 sync baseline).
  bool async_spill = true;
  // Spill write-pipeline depth: how many slot buffers the spill path
  // rotates through. 2 = the paper's double buffering; RAID update devices
  // that absorb several streams can take more writes in flight. Clamped to
  // >= 2.
  int spill_queue_depth = 2;
  std::string file_prefix = "xs";
  // Shared-scan attach mode (src/scheduler/): non-null = open these
  // existing per-partition edge files instead of creating them and
  // partitioning `input_edge_file` (ignored, may be empty), and take their
  // counts and tallies from the owner (read once, at construction; not
  // owned). Update and vertex files are still created under file_prefix.
  // IngestEdges is disabled — the scan source owns the edge streams.
  const SharedEdgeFiles* shared_edge_files = nullptr;
  // Delta+varint compression of the spilled update streams (StreamCodec,
  // --compress-updates): spills encode on the I/O thread, gathers decode
  // frame by frame. Results are bit-identical either way; only the
  // update-file bytes change. Off by default — it trades codec CPU for
  // update-device bandwidth, a win exactly when the update device is the
  // bottleneck. Pinned partitions' RAM-resident updates are unaffected.
  bool compress_updates = false;
  // Per-thread staging bytes for the setup edge shuffle (--stage-bytes):
  // routes it through StagedSingleStageShuffle when > 0 (~L2 is the
  // intended size; see DefaultShuffleStageBytes). 0 keeps the legacy fused
  // counting shuffle. Output is identical either way. Scatter output needs
  // no shuffle: it is appended already bucketed.
  size_t stage_bytes = 0;

  // ---- Residency (file-resident vertices only) ----
  // Byte budget for the pin set (vertex states + worst-case update buffers
  // + cached edge streams of the resident partitions). A planning target,
  // not an enforced cap: an iteration that out-produces the estimate grows
  // a pinned buffer past it.
  uint64_t pin_budget_bytes = 0;
  // Re-plan the pin set at each iteration boundary from the previous
  // iteration's observed update volume.
  bool replan_between_iterations = true;
  // EWMA decay for the observed-update-volume signal the re-plan consumes
  // (CLI --residency-decay): smoothed = decay * previous + (1 - decay) *
  // observed. 0 (the default) reacts to the last iteration only; values
  // toward 1 age in history, damping pin-set churn on algorithms whose
  // per-iteration volumes oscillate (BFS/WCC frontiers). Clamped to [0, 1)
  // at construction. The smoothed total is surfaced as the registry gauge
  // "residency.<file_prefix>.smoothed_update_bytes".
  double residency_decay = 0.0;
  // Iterations a partition must win (or lose) its place in the target pin
  // set before the incremental re-plan migrates it. 0 = a stop-the-world
  // full re-plan between iterations (the fig31 baseline).
  uint32_t residency_hysteresis = 2;
  // Cache pinned partitions' edge streams in RAM after their first device
  // scan, so fully resident partitions stop touching the edge device.
  bool pin_edges = false;
  // Scheduler runs: the scan source's shared PinnedEdgeCache, so N
  // concurrent jobs hit one copy of the cached edges. Every pinning store
  // — shared or private — prices edge bytes into its own planner inputs,
  // so the pin budget bounds the cache it can request; with a shared
  // cache that is conservative (jobs pinning the same partition each
  // charge the one copy), never an under-count, and keeps the plan a
  // self-consistent knapsack (no budget/cache feedback loop). Null (solo
  // runs) = the store creates and owns a private cache.
  std::shared_ptr<PinnedEdgeCache> shared_edge_cache;
};

// Threading: one compute loop drives the phase surface (scatter / gather /
// iteration hooks) from a single thread at a time — the solo driver's loop
// or the scheduler's single-driver protocol — while spill writes run on the
// update device's I/O thread. SetPinBudget is the one member safe to call
// from another thread between the driving thread's calls (the scheduler
// invokes it at admit/retire boundaries it drives itself, so in practice
// it is serialized too).
template <EdgeCentricAlgorithm Algo>
class DeviceStreamStore {
 public:
  using VertexState = typename Algo::VertexState;
  using Update = typename Algo::Update;
  using Options = DeviceStoreOptions;
  // Partitions stream sequentially (one loaded at a time); parallelism is
  // inside each loaded chunk (§4.3 layering).
  static constexpr bool kPartitionParallel = false;

  // Devices may all be the same object (single disk), split between edges
  // and updates (the Fig 15 "independent disks" configuration), or RAID-0
  // wrappers. `input_edge_file` must exist on `edge_dev`. Runs the setup
  // pass (blocks on edge-device I/O) and applies the setup-time pin plan
  // (blocks on vertex-device reads for the initial promotions).
  DeviceStreamStore(ThreadPool& pool, PartitionLayout layout, const Options& opts,
                    StorageDevice& edge_dev, StorageDevice& update_dev,
                    StorageDevice& vertex_dev, const std::string& input_edge_file)
      : pool_(pool),
        layout_(std::move(layout)),
        opts_(opts),
        edge_dev_(edge_dev),
        update_dev_(update_dev),
        vertex_dev_(vertex_dev),
        codec_(&layout_, std::max<uint64_t>(1, opts.io_unit_bytes / sizeof(Update))) {
    uint32_t k = layout_.num_partitions();
    uint64_t vertex_bytes = layout_.num_vertices() * sizeof(VertexState);

    // §3.2 optimization 1: memory-resident vertex array when it fits in half
    // the budget (the other half belongs to the stream buffers).
    vertices_in_memory_ =
        opts_.allow_vertex_memory_opt && vertex_bytes <= opts_.memory_budget_bytes / 2;

    // Stream buffer capacity: S bytes per partition chunk (§3.4), with a
    // floor of twice the worst-case updates of one loaded edge chunk so a
    // single chunk's scatter output always fits.
    size_t record = std::max(sizeof(Edge), sizeof(Update));
    uint64_t chunk_edges = EdgeChunkEdges(opts_.io_unit_bytes);
    uint64_t floor_bytes = 2 * chunk_edges * sizeof(Update);
    buffer_bytes_ =
        std::max<uint64_t>(static_cast<uint64_t>(opts_.io_unit_bytes) * k, floor_bytes);
    buffer_bytes_ = std::max<uint64_t>(buffer_bytes_, record * 1024);
    fill_ = StreamBuffer(buffer_bytes_);
    int spill_slots = std::max(2, opts_.spill_queue_depth);
    alt_.reserve(static_cast<size_t>(spill_slots));
    for (int i = 0; i < spill_slots; ++i) {
      alt_.emplace_back(buffer_bytes_);
    }
    pending_write_.resize(static_cast<size_t>(spill_slots));

    // Create (or, in attach mode, open the scan source's) per-partition
    // files. Solo stores write the record the algorithm needs; attached
    // ones read whatever the source wrote, which must carry weights if the
    // algorithm reads them.
    const SharedEdgeFiles* shared = opts_.shared_edge_files;
    edge_weights_ = shared != nullptr ? shared->weights : ReadsEdgeWeight<Algo>;
    XS_CHECK(edge_weights_ || !ReadsEdgeWeight<Algo>)
        << "the algorithm reads edge weights, but the shared edge files store none";
    edge_files_.resize(k);
    update_files_.resize(k);
    vertex_files_.resize(k);
    edge_counts_.assign(k, 0);
    dst_edge_counts_.assign(k, 0);
    local_edge_counts_.assign(k, 0);
    for (uint32_t p = 0; p < k; ++p) {
      edge_files_[p] = shared != nullptr ? edge_dev_.Open(EdgeFileName(p))
                                         : edge_dev_.Create(EdgeFileName(p));
      update_files_[p] = update_dev_.Create(PartFile("updates", p));
      if (!vertices_in_memory_) {
        vertex_files_[p] = vertex_dev_.Create(PartFile("vertices", p));
      }
    }
    if (vertices_in_memory_) {
      // Indexed in the layout's dense order (== original ids in range mode)
      // so each partition's states stay contiguous.
      mem_states_.resize(layout_.num_vertices());
    } else {
      part_states_.resize(layout_.MaxPartitionSize());
      if (opts_.absorb_local_updates) {
        shadow_states_.resize(layout_.MaxPartitionSize());
      }
      // Materialize zero-initialized vertex files so the first VertexMap /
      // scatter can load them before any algorithm Init ran.
      std::fill(part_states_.begin(), part_states_.end(), VertexState{});
      for (uint32_t p = 0; p < k; ++p) {
        if (layout_.Size(p) > 0) {
          StorePartitionFrom(p, part_states_.data());
        }
      }
    }

    // Device baselines: sim_io_seconds reports busy time accrued from here
    // on, which includes the input-partitioning pass below (X-Stream
    // charges its own pre-processing to the run).
    CaptureDeviceBaselines();
    if (shared != nullptr) {
      // The scan source already partitioned the input and counted it.
      XS_CHECK(shared->edge_counts != nullptr) << "attached store without edge counts";
      edge_counts_ = *shared->edge_counts;
      if (shared->dst_tallies != nullptr) {
        dst_edge_counts_ = *shared->dst_tallies;
      }
      if (shared->local_tallies != nullptr) {
        local_edge_counts_ = *shared->local_tallies;
      }
    } else {
      PartitionInputEdges(input_edge_file);
    }

    plan_.resident.assign(k, false);
    pinned_.resize(k);
    pinned_updates_.resize(k);
    observed_updates_.assign(k, 0);
    smoothed_updates_.assign(k, 0.0);
    pending_promote_.assign(k, 0);
    pending_evict_.assign(k, 0);
    // A pin is a per-partition choice between RAM and the vertex file, priced
    // from the destination tallies: the setup pass collects them whenever
    // vertices are file-resident, and an attached store has them only if its
    // scan source collected them.
    if (vertices_in_memory_ || (shared != nullptr && shared->dst_tallies == nullptr)) {
      return;
    }
    planner_.emplace(opts_.pin_budget_bytes);
    planner_->set_hysteresis(opts_.residency_hysteresis);
    if (opts_.residency_decay < 0.0 || opts_.residency_decay >= 1.0) {
      XS_LOG(Warning) << "residency decay " << opts_.residency_decay
                      << " outside [0, 1); clamping";
      opts_.residency_decay = std::clamp(opts_.residency_decay, 0.0, 0.999);
    }
    smoothed_gauge_ = &obs::MetricsRegistry::Global().gauge(
        "residency." + opts_.file_prefix + ".smoothed_update_bytes");
    if (opts_.pin_edges) {
      owns_edge_cache_ = opts_.shared_edge_cache == nullptr;
      edge_cache_ = owns_edge_cache_ ? std::make_shared<PinnedEdgeCache>(
                                           k, chunk_edges, edge_record_bytes())
                                     : opts_.shared_edge_cache;
    }
    ApplyPlan(planner_->Plan(InitialPlanInputs()));
    replans_ = 0;  // the construction-time plan is not a re-plan
  }

  // Releases this store's shares of the (possibly scheduler-shared) edge
  // cache, so a retired job's cached edge streams are freed instead of
  // leaking for the scan source's lifetime.
  ~DeviceStreamStore() {
    if (edge_cache_ != nullptr) {
      for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
        if (plan_.resident[p]) {
          edge_cache_->Release(p);
        }
      }
    }
    WaitAllWritesQuietly();
  }

  ThreadPool& pool() { return pool_; }
  const PartitionLayout& layout() const { return layout_; }
  uint64_t buffer_bytes() const { return buffer_bytes_; }
  bool vertices_in_memory() const { return vertices_in_memory_; }

  bool all_resident() const { return vertices_in_memory_; }
  VertexState* resident_states() { return mem_states_.data(); }
  VertexState* partition_states() { return part_states_.data(); }

  // ---- Residency ----------------------------------------------------------

  // True when the store has file-resident vertices and tallies to price
  // pins with, so a pin budget can change what it keeps in RAM.
  bool CanPin() const { return planner_.has_value(); }
  uint64_t pin_budget_bytes() const { return planner_ ? planner_->budget_bytes() : 0; }

  // The currently applied pin set. During an iteration with staged
  // migrations the bitmap transitions partition by partition as scatter
  // boundaries pass; the byte/savings accounting already reflects the
  // staged target.
  const ResidencyPlan& residency_plan() const { return plan_; }
  // Re-plans that changed (or staged a change to) the pin set.
  uint64_t replans() const { return replans_; }

  // Accounted cost of pinning every partition (the planner inputs' total,
  // including edge streams when pin_edges is on): the budget at which the
  // store is fully resident. Benches sweep fractions of this.
  uint64_t FullPinBytes() const {
    uint64_t total = 0;
    for (const PartitionResidencyStats& p : InitialPlanInputs()) {
      total += p.cost();
    }
    return total;
  }

  // Stop-the-world re-plan against explicit inputs (tests; operators with
  // external knowledge). Migrates immediately — blocks on vertex-device I/O
  // for the state moves. Must be called between iterations, from the
  // driving thread. Automatic re-planning uses the observed update volume
  // and the incremental delta path instead — see BeginIteration.
  void Replan(const std::vector<PartitionResidencyStats>& inputs) {
    XS_CHECK(CanPin());
    ApplyPlan(planner_->Plan(inputs));
    PushResidencyStats();
  }

  // Budget handed down by the multi-job scheduler as jobs come and go.
  // Takes effect at the next iteration boundary — including a first
  // boundary with no observations yet (scheduler admission), which
  // re-plans against the setup-time inputs — never mid-iteration (the
  // pinned update buffers hold mid-iteration state, so re-planning
  // immediately would drop updates). Bypasses the hysteresis (budget
  // reassignments must land promptly) but the resulting migrations still
  // apply one partition at a time, at scatter boundaries. Honored even
  // when automatic re-planning is off. Never blocks.
  void SetPinBudget(uint64_t bytes) {
    XS_CHECK(CanPin());
    planner_->set_budget_bytes(bytes);
    budget_dirty_ = true;
  }

  void BindStats(RunStats* stats) {
    stats_ = stats;
    PushResidencyStats();
  }

  // Optional (driver probes with a requires-clause): the accountant the
  // store's internal waits and spill routing — spill-write stalls,
  // edge-scan and gather read stalls, and the spill's absorption and copies
  // (as scatter) — are attributed to (obs/attribution.h).
  void BindAccountant(obs::PhaseAccountant* acct) { acct_ = acct; }

  // Iteration boundary. With a planner, runs the incremental re-plan
  // (PlanDelta with hysteresis) against the observed update volume and
  // stages the resulting migrations; they apply as the scatter reaches each
  // partition's boundary. With residency_hysteresis == 0 it re-plans
  // stop-the-world instead (blocks on the vertex-device I/O of every
  // migration at once).
  void BeginIteration() {
    spilled_ = false;
    spilled_updates_ = 0;
    absorbed_updates_ = 0;
    drained_updates_ = 0;
    absorbed_changed_ = 0;
    drain_watermark_ = 0;
    if (planner_) {
      bool first = iterations_seen_ == 0;
      if (!first) {
        // Age the volume signal: with decay 0 the smoothed series IS last
        // iteration's observation.
        double total = 0.0;
        for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
          smoothed_updates_[p] = opts_.residency_decay * smoothed_updates_[p] +
                                 (1.0 - opts_.residency_decay) *
                                     static_cast<double>(observed_updates_[p]);
          total += smoothed_updates_[p];
        }
        smoothed_gauge_->Set(total * sizeof(Update));
      }
      if ((!first && opts_.replan_between_iterations) || budget_dirty_) {
        // A budget assigned before the first iteration (scheduler admission)
        // has no observed volumes yet; re-plan from the setup tallies.
        std::vector<PartitionResidencyStats> inputs =
            first ? InitialPlanInputs() : ObservedPlanInputs();
        if (opts_.residency_hysteresis == 0) {
          ApplyPlan(planner_->Plan(inputs));
        } else {
          StageDelta(planner_->PlanDelta(plan_, inputs, /*force=*/budget_dirty_));
        }
        budget_dirty_ = false;
      }
      ++iterations_seen_;
      PushResidencyStats();
    }
    std::fill(observed_updates_.begin(), observed_updates_.end(), 0);
  }

  // Partition boundary (driver hook): applies the staged migration for
  // partition p, if any. Promotions read p's states from the vertex file
  // into the pin; evictions write the pin back — one partition's worth of
  // blocking vertex-device I/O, amortized across the iteration instead of
  // bundled into a stop-the-world phase. An evicted partition's already
  // collected in-RAM updates stay buffered; the gather drains both the
  // buffer and the update file, so mid-iteration flips lose nothing.
  void AtPartitionBoundary(uint32_t p) {
    if (pending_evict_[p]) {
      pending_evict_[p] = 0;
      EvictPartition(p);
      PushResidencyStats();
    } else if (pending_promote_[p]) {
      pending_promote_[p] = 0;
      PromotePartition(p);
      PushResidencyStats();
    }
  }

  // A pinned partition's vertex "file" is RAM: loads and stores are memcpys
  // between the pin and the one-partition scratch the driver works in.
  void LoadPartition(uint32_t p) {
    uint64_t bytes = layout_.Size(p) * sizeof(VertexState);
    if (plan_.resident[p]) {
      std::memcpy(part_states_.data(), pinned_[p].data(), bytes);
      stats_->avoided_spill_bytes += bytes;
      return;
    }
    vertex_dev_.Read(vertex_files_[p], 0,
                     std::span<std::byte>(reinterpret_cast<std::byte*>(part_states_.data()),
                                          bytes));
  }

  void StorePartition(uint32_t p) {
    if (plan_.resident[p]) {
      uint64_t bytes = layout_.Size(p) * sizeof(VertexState);
      std::memcpy(pinned_[p].data(), part_states_.data(), bytes);
      stats_->avoided_spill_bytes += bytes;
      return;
    }
    StorePartitionFrom(p, part_states_.data());
  }

  // Per-partition edge tallies from the setup/ingest shuffle passes, by
  // source (edge file sizes), by destination (worst-case incoming updates)
  // and edges whose endpoints share a partition (absorbable locally). The
  // residency planner prices pin candidates with these.
  const std::vector<uint64_t>& src_edge_counts() const { return edge_counts_; }
  const std::vector<uint64_t>& dst_edge_counts() const { return dst_edge_counts_; }
  const std::vector<uint64_t>& local_edge_counts() const { return local_edge_counts_; }

  // Bytes each edge of this store's edge files occupies, and so moves per
  // scan: 8 for EdgePair files, 12 for Edge files (EdgeRecordBytes).
  size_t edge_record_bytes() const { return EdgeRecordBytes(edge_weights_); }

  // ---- Scatter side -------------------------------------------------------

  // The shared append target for scatter output. Unlike the §3.3 sketch the
  // fill buffer is stable: spills consume it synchronously (the copy runs
  // on the compute threads), so only the slot buffers the writes own
  // alternate.
  std::span<Update> update_records() {
    return {fill_.template records<Update>(), fill_.template capacity_records<Update>()};
  }

  // Loads partition s's states and arms local-update absorption: spills
  // gather s-destined updates into a shadow next-state while scatter keeps
  // reading the pre-iteration states. A pinned partition's own updates go
  // to its RAM buffer anyway, so absorption would only duplicate work.
  void BeginPartitionScatter(uint32_t s) {
    attr_partition_ = s;  // cell owner for this partition's spills and waits
    if (vertices_in_memory_) {
      return;
    }
    LoadPartition(s);
    if (opts_.absorb_local_updates && !plan_.resident[s]) {
      std::memcpy(shadow_states_.data(), part_states_.data(),
                  layout_.Size(s) * sizeof(VertexState));
      shadow_dirty_ = false;
      absorb_partition_ = s;
    }
  }

  // Streams partition s's edges: from the PinnedEdgeCache when a sealed
  // capture exists (no device I/O at all), capturing into the cache while
  // streaming when s is pinned with pin_edges on, and otherwise from the
  // edge file in I/O-unit chunks (prefetch distance 1 via StreamReader
  // double-buffering). Either way f sees `const Edge*` chunks; EdgePair
  // files arrive widened, with weight 0.
  template <typename F>
  void ForEachEdgeChunk(uint32_t s, F&& f) {
    if (edge_cache_ != nullptr) {
      uint64_t served = 0;
      auto stream = [&](const PinnedEdgeCache::ChunkConsumer& consumer) {
        StreamPartitionEdges(s, consumer);
      };
      switch (edge_cache_->ServeOrCapture(s, f, stream, &served)) {
        case PinnedEdgeCache::ServeResult::kServed:
          stats_->edge_reads_avoided_bytes += served;
          return;
        case PinnedEdgeCache::ServeResult::kCaptured:
          stats_->pinned_edge_bytes = edge_cache_->bytes();
          return;
        case PinnedEdgeCache::ServeResult::kMiss:
          break;
      }
    }
    StreamPartitionEdges(s, std::forward<F>(f));
  }

  // Routes the fill buffer's updates by destination partition (the folded
  // shuffle phase, Fig 6, with the grouping already done by scatter's
  // buckets) and appends the file-bound ones asynchronously. Each file-bound
  // partition's blocks are copied, in parallel over partitions, into one
  // contiguous run of a slot buffer, so the writer issues one append per
  // partition; slot buffers rotate through spill_queue_depth slots so this
  // batch's copy overlaps the writes of the previous ones, and the only
  // wait is for the write `depth` batches back, which still owns the slot.
  //
  // When a scatter partition is active (absorb_partition_), its own blocks
  // are gathered straight into its shadow next-state here and never reach
  // its update file. Pinned partitions' blocks are appended to their RAM
  // buffers, in the same parallel copy. All of this reads the fill buffer
  // in place, before the write is submitted, and the write lambda works off
  // a routing snapshot, so a later re-plan can never race it. The caller
  // must Reset() the appender afterwards.
  void SpillUpdates(Algo& algo, BucketedAppender<Update>& appender) {
    appender.FlushAll();
    uint64_t n = appender.records();
    if (n == 0) {
      return;
    }
    obs::TraceSpan spill_span("spill");
    int slot = write_slot_;
    WaitWriteSlot(slot);
    spilled_ = true;
    spilled_updates_ += n;
    drain_watermark_ = 0;  // the fill buffer is fresh after this returns
    // The routing below is scatter's output path, charged like scatter (the
    // wait above is charged as a spill wait).
    obs::PhaseTimer route_pt(acct_, obs::Phase::kScatter, attr_partition_);

    const uint32_t absorb = absorb_partition_;
    if (absorb != kNoAbsorbPartition) {
      VertexId part_base = layout_.Begin(absorb);
      appender.ForEachBlock(absorb, [&](const Update* rec, uint64_t count) {
        for (uint64_t i = 0; i < count; ++i) {
          if (algo.Gather(shadow_states_[layout_.DenseId(rec[i].dst) - part_base], rec[i])) {
            ++absorbed_changed_;
          }
        }
      });
      uint64_t absorbed = appender.BucketRecords(absorb);
      if (absorbed > 0) {
        shadow_dirty_ = true;
        absorbed_updates_ += absorbed;
      }
    }

    // Route every destination partition: the scatter partition's blocks were
    // gathered into the shadow above, pinned partitions' blocks go to the
    // end of their RAM buffers, the rest to one run each of the slot buffer.
    // Every routed update counts toward next iteration's re-plan signal.
    const uint32_t k = layout_.num_partitions();
    std::vector<ChunkRef> runs(k);  // file-bound partitions' runs in the slot
    std::vector<uint64_t> pinned(k, 0);  // records bound for each RAM buffer
    uint64_t submitted = 0;
    uint64_t kept = 0;
    for (uint32_t p = 0; p < k; ++p) {
      uint64_t routed = appender.BucketRecords(p);
      observed_updates_[p] += routed;
      if (p == absorb) {
        continue;
      }
      if (plan_.resident[p]) {
        pinned[p] = routed;
        kept += routed;
      } else {
        runs[p] = ChunkRef{submitted, routed};
        submitted += routed;
      }
    }
    stats_->update_file_bytes += submitted * sizeof(Update);
    if (kept > 0) {
      // A kept byte skips both the update-file append and the gather
      // read-back.
      stats_->avoided_spill_bytes += 2 * kept * sizeof(Update);
    }

    // The copies, in parallel over partitions.
    Update* data = alt_[static_cast<size_t>(slot)].template records<Update>();
    if (submitted + kept > 0) {
      pool_.ParallelFor(0, k, 1, [&](uint64_t lo, uint64_t hi) {
        for (uint32_t p = static_cast<uint32_t>(lo); p < hi; ++p) {
          Update* out = data + runs[p].begin;
          if (pinned[p] > 0) {
            std::vector<Update>& buf = pinned_updates_[p];
            buf.resize(buf.size() + pinned[p]);
            out = buf.data() + buf.size() - pinned[p];
          } else if (runs[p].count == 0) {
            continue;
          }
          appender.ForEachBlock(p, [&](const Update* rec, uint64_t count) {
            std::memcpy(out, rec, count * sizeof(Update));
            out += count;
          });
        }
      });
    }
    route_pt.Stop();

    // The write lambda owns the slot buffer until WaitWriteSlot, so the
    // compressed path encodes there too — on the I/O thread, overlapped with
    // the next batch's scatter exactly like the raw appends.
    pending_write_[static_cast<size_t>(slot)] =
        update_dev_.executor().Submit([this, data, runs = std::move(runs)] {
          std::vector<std::byte> enc;  // reused across partitions when compressing
          for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
            const ChunkRef& run = runs[p];
            if (run.count == 0) {
              continue;  // gathered into the shadow, kept resident, or empty
            }
            if (opts_.compress_updates) {
              enc.clear();
              WallTimer codec_timer;
              codec_.EncodeChunk(p, data + run.begin, run.count, enc);
              double codec_seconds = codec_timer.Seconds();
              update_dev_.Append(update_files_[p],
                                 std::span<const std::byte>(enc.data(), enc.size()));
              auto& reg = obs::MetricsRegistry::Global();
              reg.counter("store.codec.raw_bytes").Add(run.count * sizeof(Update));
              reg.counter("store.codec.encoded_bytes").Add(enc.size());
              reg.histogram("store.codec.encode_ns_per_update")
                  .Observe(codec_seconds * 1e9 / static_cast<double>(run.count));
              continue;
            }
            update_dev_.Append(update_files_[p],
                               std::span<const std::byte>(
                                   reinterpret_cast<const std::byte*>(data + run.begin),
                                   run.count * sizeof(Update)));
          }
        });
    write_slot_ = (write_slot_ + 1) % static_cast<int>(alt_.size());
    if (opts_.async_spill) {
      stats_->async_spill_bytes += submitted * sizeof(Update);
    } else {
      WaitWriteSlot(slot);
    }
  }

  // Drain: s-destined updates still sitting in the fill buffer are gathered
  // now, while s's shadow is live — bucket s's blocks are handed out and the
  // later blocks compacted over them, no shuffle. Spill-time absorption
  // alone misses them whenever a partition's scatter output fits the buffer
  // (the common case for high-locality mappings, whose updates are mostly
  // s->s). Only blocks flushed since the last drain are drained (bucket s's
  // earlier blocks came from partitions scattered before s and stay for the
  // gather) — absorption is opportunistic, so skipping them is merely fewer
  // absorbed updates, never a correctness issue.
  void EndPartitionScatter(Algo& algo, BucketedAppender<Update>& appender) {
    if (absorb_partition_ == kNoAbsorbPartition) {
      return;
    }
    uint32_t s = absorb_partition_;
    // Scatter's output path, charged like scatter (as the spill's
    // absorption is).
    obs::PhaseTimer drain_pt(acct_, obs::Phase::kScatter, s);
    appender.FlushAll();
    VertexId drain_base = layout_.Begin(s);
    uint64_t drained =
        appender.DrainBucket(s, drain_watermark_, [&](const Update* rec, uint64_t count) {
          for (uint64_t i = 0; i < count; ++i) {
            if (algo.Gather(shadow_states_[layout_.DenseId(rec[i].dst) - drain_base], rec[i])) {
              ++absorbed_changed_;
            }
          }
        });
    drain_pt.Stop();
    if (drained > 0) {
      drained_updates_ += drained;
      observed_updates_[s] += drained;
      shadow_dirty_ = true;
    }
    drain_watermark_ = appender.records();
    // Absorbed updates became part of s's next state: persist them so the
    // gather phase reloads them along with the vertex file.
    if (shadow_dirty_) {
      StorePartitionFrom(s, shadow_states_.data());
    }
    absorb_partition_ = kNoAbsorbPartition;
  }

  // ---- Scatter -> gather transition ---------------------------------------

  // How the gather phase will consume the updates this iteration.
  struct GatherPlan {
    // §3.2 optimization 2: nothing was spilled, the whole update set stays
    // in memory and never touches storage.
    bool memory_gather = false;
    uint64_t tail_records = 0;
    // Memory gather: the buckets' blocks in the fill buffer, (*chunks)[t][p]
    // as BucketedAppender::chunks() lists them, valid until the appender is
    // reset or destroyed.
    const Update* resident = nullptr;
    const std::vector<std::vector<ChunkList>>* chunks = nullptr;
    // Scratch for gather's sub-shuffle: one partition's resident updates or
    // one loaded chunk. It aliases neither, nor the reader's buffers.
    Update* scratch = nullptr;
  };

  // End of scatter: either keep the whole update set in memory, where
  // scatter's buckets left it, or spill the tail like any other buffer,
  // then drain every outstanding write (errors raised on the I/O thread
  // propagate from here).
  GatherPlan FinishScatter(Algo& algo, BucketedAppender<Update>& appender) {
    GatherPlan plan;
    appender.FlushAll();
    plan.tail_records = appender.records();
    plan.memory_gather = !spilled_ && opts_.allow_update_memory_opt;
    if (plan.memory_gather) {
      plan.resident = fill_.template records<Update>();
      plan.chunks = &appender.chunks();
      // Memory-gathered tails still count toward the re-plan signal.
      for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
        observed_updates_[p] += appender.BucketRecords(p);
      }
    } else if (plan.tail_records > 0) {
      SpillUpdates(algo, appender);
    }
    WaitAllWrites();
    plan.scratch = alt_[0].template records<Update>();
    return plan;
  }

  // ---- Gather side --------------------------------------------------------

  void BeginPartitionGather(uint32_t p) {
    if (!vertices_in_memory_) {
      LoadPartition(p);
    }
  }

  // Streams partition p's updates in I/O-unit chunks. They may live in its
  // RAM buffer (pinned), its update file, or — when its residency flipped
  // at a mid-iteration boundary — both: the buffer drains first, then the
  // file. Time spent blocked on file reads the prefetch missed is charged to
  // gather_wait_seconds — the read-side half of the stall story
  // spill_wait_seconds tells for writes.
  template <typename F>
  void ForEachUpdateChunk(uint32_t p, F&& f) {
    uint64_t chunk_updates = std::max<uint64_t>(1, opts_.io_unit_bytes / sizeof(Update));
    const std::vector<Update>& pinned = pinned_updates_[p];
    for (uint64_t i = 0; i < pinned.size(); i += chunk_updates) {
      f(pinned.data() + i, std::min<uint64_t>(chunk_updates, pinned.size() - i));
    }
    if (update_dev_.FileSize(update_files_[p]) == 0) {
      return;
    }
    StreamReader reader(update_dev_, update_files_[p], chunk_updates * sizeof(Update));
    if (opts_.compress_updates) {
      // Compressed stream: the file holds self-delimiting codec frames (one
      // sink call per frame, each at most one I/O unit of records), which
      // the incremental decoder reassembles across read-chunk boundaries.
      typename StreamCodec<Update>::Decoder decoder(&codec_, p);
      uint64_t records = 0;
      double feed_seconds = 0;
      double sink_seconds = 0;
      for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
        WallTimer feed_timer;
        decoder.Feed(chunk, [&](const Update* u, uint64_t n) {
          WallTimer sink_timer;
          f(u, n);
          sink_seconds += sink_timer.Seconds();
          records += n;
        });
        feed_seconds += feed_timer.Seconds();
      }
      XS_CHECK(decoder.Finished())
          << "truncated compressed update stream for partition " << p;
      if (records > 0) {
        obs::MetricsRegistry::Global()
            .histogram("store.codec.decode_ns_per_update")
            .Observe(std::max(0.0, feed_seconds - sink_seconds) * 1e9 /
                     static_cast<double>(records));
      }
    } else {
      for (auto chunk = reader.Next(); !chunk.empty(); chunk = reader.Next()) {
        f(reinterpret_cast<const Update*>(chunk.data()), chunk.size() / sizeof(Update));
      }
    }
    stats_->gather_wait_seconds += reader.wait_seconds();
    obs::MetricsRegistry::Global()
        .histogram("store.gather_wait_us")
        .Observe(reader.wait_seconds() * 1e6);
    if (acct_ != nullptr) {
      // The driver's gather wall already covers this span; only flag the
      // wait slice so the diagnosis can call it I/O, not compute.
      acct_->RecordGatherReadWait(reader.wait_seconds());
    }
  }

  // Stores p's states back (into the pin when pinned) and recycles its RAM
  // update buffer: a pinned partition keeps the capacity for the next
  // iteration, an unpinned one frees what a mid-iteration eviction left.
  void EndPartitionGather(uint32_t p, bool memory_gather) {
    if (!vertices_in_memory_) {
      StorePartition(p);
    }
    if (plan_.resident[p]) {
      pinned_updates_[p].clear();
    } else {
      pinned_updates_[p] = {};
    }
    // The update stream is consumed: destroy it (truncation = TRIM, §3.3).
    if (!memory_gather && opts_.eager_update_truncate) {
      update_dev_.Truncate(update_files_[p], 0);
    }
    SampleUpdateOccupancy();
  }

  void FinishGather(bool memory_gather) {
    if (!memory_gather && !opts_.eager_update_truncate) {
      for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
        update_dev_.Truncate(update_files_[p], 0);
      }
    }
  }

  // Per-iteration accounting consumed by the driver's stats folding.
  uint64_t spilled_updates() const { return spilled_updates_; }
  uint64_t drained_updates() const { return drained_updates_; }
  uint64_t absorbed_updates() const { return absorbed_updates_; }
  uint64_t absorbed_changed() const { return absorbed_changed_; }

  // Cancelled mid-scatter (multi-job scheduler cancellation / teardown):
  // drop the absorption shadow, drain outstanding spill writes, and discard
  // anything already spilled or buffered for pinned partitions so nothing
  // references the store's buffers and teardown is safe. Runs on destructor
  // paths (a dropped job), so write errors are logged, never thrown — the
  // job's results are being discarded anyway. This does NOT rewind vertex
  // state: partitions whose scatter already completed this iteration may
  // have persisted absorbed updates, so an aborted store's results are
  // mid-iteration — discard the store (as the scheduler does) rather than
  // resuming computation on it.
  void AbortScatter() {
    absorb_partition_ = kNoAbsorbPartition;
    WaitAllWritesQuietly();
    for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
      update_dev_.Truncate(update_files_[p], 0);
      pinned_updates_[p].clear();
    }
    spilled_ = false;
    spilled_updates_ = 0;
    absorbed_updates_ = 0;
    drained_updates_ = 0;
    absorbed_changed_ = 0;
    drain_watermark_ = 0;
  }

  // Approximate RAM held for this store's lifetime (admission pricing for
  // the multi-job scheduler): stream buffers, whichever vertex arrays the
  // residency mode keeps, and the edge-cache bytes a privately owned cache
  // holds. The pin set is priced by the pin budget, not here; so is a
  // scheduler-shared edge cache, since every pinning job prices edge bytes
  // into its plan (see DeviceStoreOptions::shared_edge_cache).
  uint64_t ResidentFootprintBytes() const {
    uint64_t total = fill_.capacity_bytes();
    for (const auto& buf : alt_) {
      total += buf.capacity_bytes();
    }
    total += mem_states_.size() * sizeof(VertexState);
    total += (part_states_.size() + shadow_states_.size()) * sizeof(VertexState);
    if (edge_cache_ != nullptr && owns_edge_cache_) {
      total += edge_cache_->bytes();
    }
    return total;
  }

  // ---- Ingest / setup -----------------------------------------------------

  // Appends more raw edges to the partitioned store (the Fig 17 ingest
  // path): each batch goes through the same in-memory shuffle and is
  // appended to the per-partition edge files.
  void IngestEdges(const EdgeList& batch) {
    XS_CHECK(opts_.shared_edge_files == nullptr)
        << "attached stores share their edge files with a scan source; ingest "
           "through the source instead";
    for (const Edge& e : batch) {
      XS_CHECK_LT(e.src, layout_.num_vertices());
      XS_CHECK_LT(e.dst, layout_.num_vertices());
    }
    uint64_t capacity_edges = buffer_bytes_ / sizeof(Edge);
    uint64_t done = 0;
    while (done < batch.size()) {
      uint64_t n = std::min<uint64_t>(capacity_edges, batch.size() - done);
      std::memcpy(fill_.data(), batch.data() + done, n * sizeof(Edge));
      ShuffleAndAppendEdges(n);
      done += n;
    }
  }

  // ---- Device statistics --------------------------------------------------

  void CaptureDeviceBaselines() {
    baselines_.clear();
    for (StorageDevice* dev : UniqueDevices()) {
      baselines_[dev] = dev->stats();
    }
  }

  void CollectDeviceStats(RunStats& stats) {
    stats.sim_io_seconds = 0;
    stats.bytes_read = 0;
    stats.bytes_written = 0;
    for (StorageDevice* dev : UniqueDevices()) {
      DeviceStats s = dev->stats();
      DeviceStats base;  // zero if the device was attached after baselining
      auto it = baselines_.find(dev);
      if (it != baselines_.end()) {
        base = it->second;
      }
      stats.sim_io_seconds = std::max(stats.sim_io_seconds, s.busy_seconds - base.busy_seconds);
      stats.bytes_read += s.bytes_read - base.bytes_read;
      stats.bytes_written += s.bytes_written - base.bytes_written;
    }
  }

 private:
  std::string PartFile(const char* kind, uint32_t p) const {
    return opts_.file_prefix + "." + kind + "." + std::to_string(p);
  }

  // Edge files may belong to a shared scan source (attach mode), in which
  // case they carry the source's prefix rather than this store's.
  std::string EdgeFileName(uint32_t p) const {
    const SharedEdgeFiles* shared = opts_.shared_edge_files;
    return (shared != nullptr ? shared->prefix : opts_.file_prefix) + ".edges." +
           std::to_string(p);
  }

  template <typename F>
  void StreamPartitionEdges(uint32_t s, F&& f) {
    EdgeScanSeconds spent = StreamEdgeFile(edge_dev_, edge_files_[s], opts_.io_unit_bytes,
                                           edge_weights_, std::forward<F>(f));
    if (acct_ != nullptr) {
      acct_->Record(obs::Phase::kScanIo, s, spent.read_wait);
      acct_->Record(obs::Phase::kScatter, s, spent.widen);
    }
  }

  // Track peak update-file occupancy for the TRIM ablation. Called at
  // every gather boundary.
  void SampleUpdateOccupancy() {
    uint64_t occupancy = 0;
    for (uint32_t q = 0; q < layout_.num_partitions(); ++q) {
      occupancy += update_dev_.FileSize(update_files_[q]);
    }
    stats_->peak_update_bytes = std::max(stats_->peak_update_bytes, occupancy);
  }

  void StorePartitionFrom(uint32_t p, const VertexState* states) {
    uint64_t n = layout_.Size(p);
    vertex_dev_.Write(vertex_files_[p], 0,
                      std::span<const std::byte>(reinterpret_cast<const std::byte*>(states),
                                                 n * sizeof(VertexState)));
  }

  // Destination tallies cost one extra PartitionOf per edge; only stores
  // that can pin (file-resident vertices) consume them.
  EdgeShuffleTallies SetupTallies() {
    EdgeShuffleTallies tallies;
    tallies.src = &edge_counts_;
    tallies.dst = &dst_edge_counts_;
    tallies.local = &local_edge_counts_;
    tallies.collect_dst = !vertices_in_memory_;
    return tallies;
  }

  // Setup: stream the unordered input file, shuffle each loaded stretch by
  // source partition, append chunks to the per-partition edge files (§3.2).
  void PartitionInputEdges(const std::string& input_edge_file) {
    obs::TraceSpan span("setup", "setup");
    EdgeShuffleTallies tallies = SetupTallies();
    PartitionEdgeFileToParts(pool_, layout_, edge_dev_, input_edge_file, edge_dev_,
                             edge_files_, fill_.template records<Edge>(),
                             alt_[0].template records<Edge>(), buffer_bytes_,
                             opts_.io_unit_bytes, tallies, edge_weights_, opts_.stage_bytes);
  }

  // Shuffles `count` edges sitting at the start of the fill buffer by source
  // partition and appends each partition's spans to its edge file. Only
  // called at setup/ingest time, when no spill writes are outstanding.
  void ShuffleAndAppendEdges(uint64_t count) {
    EdgeShuffleTallies tallies = SetupTallies();
    ShuffleAppendEdgeBlock(pool_, layout_, edge_dev_, edge_files_,
                           fill_.template records<Edge>(), alt_[0].template records<Edge>(),
                           count, tallies, edge_weights_, opts_.stage_bytes);
  }

  // Waits for the spill write holding `slot`'s buffer; .get() rather than
  // .wait() so failures raised on the I/O thread propagate to the caller
  // instead of being dropped with the future.
  void WaitWriteSlot(int slot) {
    if (pending_write_[static_cast<size_t>(slot)].valid()) {
      WallTimer timer;
      pending_write_[static_cast<size_t>(slot)].get();
      double waited = timer.Seconds();
      stats_->spill_wait_seconds += waited;
      obs::MetricsRegistry::Global().histogram("store.spill_wait_us").Observe(waited * 1e6);
      if (acct_ != nullptr) {
        // Same timer value as spill_wait_seconds, so the attribution matrix
        // reconciles with RunStats exactly.
        acct_->Record(obs::Phase::kSpillWait, attr_partition_, waited);
      }
    }
  }

  void WaitAllWrites() {
    for (int slot = 0; slot < static_cast<int>(pending_write_.size()); ++slot) {
      WaitWriteSlot(slot);
    }
  }

  // Destructor-safe drain: the spill lambdas capture `this`, so a store
  // destroyed mid-scatter (a cancelled scheduler job) must wait for them;
  // errors are swallowed (destructors must not throw) — durable paths drain
  // through FinishScatter/AbortScatter, which propagate.
  void WaitAllWritesQuietly() {
    for (auto& pending : pending_write_) {
      if (pending.valid()) {
        try {
          pending.get();
        } catch (const std::exception& e) {
          XS_LOG(Error) << "dropped spill-write error during store teardown: " << e.what();
        }
      }
    }
  }

  std::vector<StorageDevice*> UniqueDevices() {
    std::set<StorageDevice*> unique{&edge_dev_, &update_dev_, &vertex_dev_};
    return {unique.begin(), unique.end()};
  }

  // ---- Residency internals ------------------------------------------------

  std::vector<PartitionResidencyStats> InitialPlanInputs() const {
    return BuildHybridPlanInputs(layout_, sizeof(VertexState), sizeof(Update),
                                 dst_edge_counts_, local_edge_counts_,
                                 opts_.absorb_local_updates,
                                 opts_.pin_edges ? &edge_counts_ : nullptr);
  }

  // Re-plan inputs: the worst-case one-update-per-edge buffer estimate is
  // replaced by the (EWMA-smoothed, see residency_decay) observed
  // per-partition volume. Slightly optimistic on the avoided side for
  // unpinned partitions (absorbed updates are counted although they never
  // hit the file), which only makes the planner favor locality-heavy
  // partitions it would pin anyway. Every pinning store prices edge bytes
  // into its plan, shared cache or not — the pin budget must see the full
  // cost of what it requests, or a budget/cache feedback loop forms.
  std::vector<PartitionResidencyStats> ObservedPlanInputs() const {
    std::vector<PartitionResidencyStats> inputs(layout_.num_partitions());
    for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
      uint64_t vbytes = layout_.Size(p) * sizeof(VertexState);
      uint64_t ubytes = static_cast<uint64_t>(smoothed_updates_[p] + 0.5) * sizeof(Update);
      uint64_t ebytes = opts_.pin_edges ? edge_counts_[p] * sizeof(Edge) : 0;
      inputs[p].vertex_bytes = vbytes;
      inputs[p].update_buffer_bytes = ubytes;
      inputs[p].edge_bytes = ebytes;
      inputs[p].avoided_bytes_per_iteration = PricePinSavings(vbytes, ubytes, ebytes);
    }
    return inputs;
  }

  // One promotion: p's states move vertex file -> RAM pin; its edge stream
  // becomes capture-eligible. Counted as migration traffic.
  void PromotePartition(uint32_t p) {
    obs::TraceSpan span("migration", "residency", p);
    obs::MetricsRegistry::Global().counter("residency.promotions").Add();
    uint64_t n = layout_.Size(p);
    uint64_t bytes = n * sizeof(VertexState);
    pinned_[p].resize(n);
    if (n > 0) {
      vertex_dev_.Read(vertex_files_[p], 0,
                       std::span<std::byte>(reinterpret_cast<std::byte*>(pinned_[p].data()),
                                            bytes));
    }
    plan_.resident[p] = true;
    if (edge_cache_ != nullptr) {
      edge_cache_->Request(p);
    }
    ++stats_->promotions;
    stats_->migration_bytes += bytes;
  }

  // One eviction: p's states move RAM pin -> vertex file; its cached edges
  // are released. The in-RAM update buffer is NOT dropped — updates already
  // routed there this iteration are gathered from it (see
  // ForEachUpdateChunk) and released at gather end.
  void EvictPartition(uint32_t p) {
    obs::TraceSpan span("migration", "residency", p);
    obs::MetricsRegistry::Global().counter("residency.evictions").Add();
    uint64_t n = layout_.Size(p);
    uint64_t bytes = n * sizeof(VertexState);
    if (n > 0) {
      StorePartitionFrom(p, pinned_[p].data());
    }
    pinned_[p] = {};
    plan_.resident[p] = false;
    if (edge_cache_ != nullptr) {
      edge_cache_->Release(p);
      stats_->pinned_edge_bytes = edge_cache_->bytes();
    }
    ++stats_->evictions;
    stats_->migration_bytes += bytes;
  }

  // Stop-the-world plan application (construction, explicit Replan, and
  // hysteresis 0): every differing partition migrates now.
  void ApplyPlan(ResidencyPlan next) {
    bool changed = false;
    for (uint32_t p = 0; p < layout_.num_partitions(); ++p) {
      if (next.resident[p] && !plan_.resident[p]) {
        PromotePartition(p);
        changed = true;
      } else if (!next.resident[p] && plan_.resident[p]) {
        EvictPartition(p);
        pinned_updates_[p] = {};  // between iterations: empty; free capacity
        changed = true;
      }
    }
    if (changed) {
      ++replans_;
    }
    plan_ = std::move(next);
  }

  // Incremental plan application: record which partitions migrate; each
  // lands at its own scatter boundary (AtPartitionBoundary). The byte and
  // savings accounting jumps to the delta's target immediately — it is a
  // planning gauge, while the resident bitmap tracks physical state.
  void StageDelta(ResidencyDelta delta) {
    plan_.resident_bytes = delta.plan.resident_bytes;
    plan_.avoided_bytes_per_iteration = delta.plan.avoided_bytes_per_iteration;
    if (delta.empty()) {
      return;
    }
    for (uint32_t p : delta.evict) {
      pending_evict_[p] = 1;
    }
    for (uint32_t p : delta.promote) {
      pending_promote_[p] = 1;
    }
    ++replans_;
  }

  void PushResidencyStats() {
    stats_->resident_partition_count = plan_.resident_count();
    stats_->resident_bytes = plan_.resident_bytes;
    stats_->pinned_edge_bytes = edge_cache_ != nullptr ? edge_cache_->bytes() : 0;
  }

  ThreadPool& pool_;
  PartitionLayout layout_;
  Options opts_;
  StorageDevice& edge_dev_;
  StorageDevice& update_dev_;
  StorageDevice& vertex_dev_;
  // Update-stream codec (opts_.compress_updates). Frames hold at most one
  // I/O unit of records, so the decoded gather callbacks stay chunk-sized.
  StreamCodec<Update> codec_;

  uint64_t buffer_bytes_ = 0;
  // Scatter output accumulates in fill_; spills copy it into rotating alt_
  // slot buffers (spill_queue_depth of them, >= 2) whose contents the async
  // update-file write owns until the matching WaitWriteSlot. alt_[0] doubles
  // as shuffle scratch at setup / ingest time and as gather's sub-shuffle
  // scratch, when no writes are outstanding.
  StreamBuffer fill_;
  std::vector<StreamBuffer> alt_;
  std::vector<std::future<void>> pending_write_;
  int write_slot_ = 0;

  bool vertices_in_memory_ = false;
  std::vector<VertexState> mem_states_;   // when vertices_in_memory_ (dense order)
  std::vector<VertexState> part_states_;  // one-partition scratch otherwise

  // Local-update absorption (opts_.absorb_local_updates, file-resident
  // vertices only): shadow next-state of the partition being scattered.
  static constexpr uint32_t kNoAbsorbPartition = UINT32_MAX;
  std::vector<VertexState> shadow_states_;
  uint32_t absorb_partition_ = kNoAbsorbPartition;
  bool shadow_dirty_ = false;

  bool edge_weights_ = true;  // edge files hold Edges; false = EdgePairs
  std::vector<FileId> edge_files_;
  std::vector<FileId> update_files_;
  std::vector<FileId> vertex_files_;
  std::vector<uint64_t> edge_counts_;        // by source partition
  std::vector<uint64_t> dst_edge_counts_;    // by destination partition
  std::vector<uint64_t> local_edge_counts_;  // src and dst share the partition

  bool spilled_ = false;
  uint64_t spilled_updates_ = 0;   // this iteration, via spills
  uint64_t absorbed_updates_ = 0;  // this iteration, via spill-time blocks
  uint64_t drained_updates_ = 0;   // this iteration, via end-of-partition drain
  uint64_t absorbed_changed_ = 0;  // this iteration
  uint64_t drain_watermark_ = 0;   // records of fill_ already drain-scanned

  // Residency. The planner exists only when the store can pin (CanPin);
  // without it the pin set stays empty and every per-partition vector
  // below stays idle.
  std::optional<ResidencyPlanner> planner_;
  ResidencyPlan plan_;
  // Pinned vertex states (by partition, dense order within each) and the
  // in-RAM update buffers of the pinned partitions.
  std::vector<std::vector<VertexState>> pinned_;
  std::vector<std::vector<Update>> pinned_updates_;
  // Updates routed to each destination partition this iteration (spilled,
  // kept in RAM, absorbed and drained alike) — next iteration's buffer
  // estimate.
  std::vector<uint64_t> observed_updates_;
  // EWMA of observed_updates_ across iterations (residency_decay); this is
  // what ObservedPlanInputs actually feeds the planner.
  std::vector<double> smoothed_updates_;
  obs::Gauge* smoothed_gauge_ = nullptr;
  // Migrations staged by the last PlanDelta, awaiting their partition's
  // scatter boundary.
  std::vector<uint8_t> pending_promote_;
  std::vector<uint8_t> pending_evict_;
  // Pinned partitions' edge streams (pin_edges): privately owned in solo
  // runs, the scan source's shared copy under the scheduler.
  std::shared_ptr<PinnedEdgeCache> edge_cache_;
  bool owns_edge_cache_ = false;
  uint64_t iterations_seen_ = 0;
  uint64_t replans_ = 0;
  bool budget_dirty_ = false;  // SetPinBudget awaiting the next boundary

  std::map<StorageDevice*, DeviceStats> baselines_;
  // Counter sink. The driver rebinds this to its own RunStats (BindStats);
  // until then counters land in the fallback so a store driven directly —
  // the stores are a first-class API — never dereferences null mid-spill.
  RunStats fallback_stats_;
  RunStats* stats_ = &fallback_stats_;
  // Attribution sink (BindAccountant; null = not attributed) and the
  // partition owning the current scatter's spills/waits.
  obs::PhaseAccountant* acct_ = nullptr;
  uint32_t attr_partition_ = 0;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_STREAM_STORE_H_
