#include "scheduler/scan_source.h"

#include <algorithm>
#include <utility>

#include "buffers/stream_buffer.h"
#include "core/sizing.h"
#include "storage/stream_io.h"
#include "util/env.h"
#include "util/logging.h"

namespace xstream {

DeviceScanSource::DeviceScanSource(ThreadPool& pool, PartitionLayout layout,
                                   const Options& opts, StorageDevice& edge_dev,
                                   const std::string& input_edge_file)
    : pool_(pool),
      layout_(std::move(layout)),
      opts_(opts),
      edge_dev_(edge_dev),
      acct_(opts.file_prefix, layout_.num_partitions()) {
  uint32_t k = layout_.num_partitions();
  edge_files_.resize(k);
  edge_counts_.assign(k, 0);
  dst_edge_counts_.assign(k, 0);
  local_edge_counts_.assign(k, 0);
  for (uint32_t p = 0; p < k; ++p) {
    edge_files_[p] = edge_dev_.Create(opts_.file_prefix + ".edges." + std::to_string(p));
  }
  edge_cache_ = std::make_shared<PinnedEdgeCache>(k, MaxChunkEdges(),
                                                  EdgeRecordBytes(opts_.keep_edge_weights));
  shared_files_.prefix = opts_.file_prefix;
  shared_files_.weights = opts_.keep_edge_weights;
  shared_files_.edge_counts = &edge_counts_;
  if (opts_.collect_dst_tallies) {
    shared_files_.dst_tallies = &dst_edge_counts_;
    shared_files_.local_tallies = &local_edge_counts_;
  }

  uint64_t capacity = opts_.buffer_bytes > 0
                          ? opts_.buffer_bytes
                          : std::max<uint64_t>(static_cast<uint64_t>(opts_.io_unit_bytes) * k,
                                               sizeof(Edge) * 1024);
  // The shuffle batch must hold at least one reader chunk.
  capacity = std::max<uint64_t>(capacity, opts_.io_unit_bytes);
  StreamBuffer fill(capacity);
  StreamBuffer scratch(capacity);
  EdgeShuffleTallies tallies;
  tallies.src = &edge_counts_;
  tallies.dst = &dst_edge_counts_;
  tallies.local = &local_edge_counts_;
  tallies.collect_dst = opts_.collect_dst_tallies;
  PartitionEdgeFileToParts(pool_, layout_, edge_dev_, input_edge_file, edge_dev_,
                           edge_files_, fill.records<Edge>(), scratch.records<Edge>(),
                           capacity, opts_.io_unit_bytes, tallies, opts_.keep_edge_weights);
}

void DeviceScanSource::StreamPartition(uint32_t s,
                                       const std::function<void(const Edge*, uint64_t)>& f) {
  EdgeScanSeconds spent =
      StreamEdgeFile(edge_dev_, edge_files_[s], opts_.io_unit_bytes, opts_.keep_edge_weights, f);
  acct_.Record(obs::Phase::kScanIo, s, spent.read_wait);
  acct_.Record(obs::Phase::kScatter, s, spent.widen);
}

void DeviceScanSource::ForEachEdgeChunk(uint32_t s,
                                        const std::function<void(const Edge*, uint64_t)>& f) {
  // Pinned partitions are served from (and on their first scan captured
  // into) the shared edge cache, so every attached job's scatter hits one
  // in-RAM copy and the edge device stays idle for them.
  if (edge_cache_->ServeOrCapture(s, f, [&](const PinnedEdgeCache::ChunkConsumer& consumer) {
        StreamPartition(s, consumer);
      }) != PinnedEdgeCache::ServeResult::kMiss) {
    return;
  }
  StreamPartition(s, f);
}

uint64_t DeviceScanSource::PartitionEdgeBytes(uint32_t s) const {
  return edge_counts_[s] * EdgeRecordBytes(opts_.keep_edge_weights);
}

MemoryScanSource::MemoryScanSource(ThreadPool& pool, PartitionLayout layout,
                                   const EdgeList& edges)
    : pool_(pool), layout_(std::move(layout)) {
  // The in-memory engine's auto fanout (§4.2): capped at the partition
  // count, so attached jobs' scatter buckets are their partitions and no
  // shuffle pass runs per iteration.
  uint32_t fanout =
      ChooseShuffleFanout(layout_.num_partitions(), PerCoreCacheBytes(), CachelineBytes());
  shared_ = MakeSharedEdgeChunks(pool_, layout_, fanout, edges);
}

void MemoryScanSource::ForEachEdgeChunk(uint32_t s,
                                        const std::function<void(const Edge*, uint64_t)>& f) {
  for (const auto& slice : shared_->chunks.slices) {
    const ChunkRef& c = slice[s];
    if (c.count > 0) {
      f(shared_->chunks.data + c.begin, c.count);
    }
  }
}

uint64_t MemoryScanSource::PartitionEdgeBytes(uint32_t s) const {
  uint64_t records = 0;
  for (const auto& slice : shared_->chunks.slices) {
    records += slice[s].count;
  }
  return records * sizeof(Edge);
}

}  // namespace xstream
