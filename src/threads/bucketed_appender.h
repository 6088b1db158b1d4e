// Concurrent record appends into a shared chunk array (paper §4.1), grouped
// by destination bucket.
//
// "Each thread first writes to a private buffer (of size 8K), which is
// flushed to the shared output chunk array, by first atomically reserving
// space at the end and then appending the contents of the private buffer."
//
// BucketedAppender keeps one such private block per thread and destination
// bucket, so scatter emits updates already grouped by partition and needs no
// separate shuffle pass to group them. Both engines scatter through it: the
// in-memory engine's buckets are its partitions (or the first level of the
// §4.2 shuffle tree), the device engine's are its streaming partitions.
#ifndef XSTREAM_THREADS_BUCKETED_APPENDER_H_
#define XSTREAM_THREADS_BUCKETED_APPENDER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "buffers/stream_buffer.h"
#include "util/logging.h"

namespace xstream {

inline constexpr size_t kAppenderStagingBytes = 8 * 1024;

// Each thread stages one block per bucket; a full block is flushed to the
// shared chunk array with one atomic reservation and recorded as a chunk of
// its bucket. A bucket's records from one thread therefore keep their append
// order. Blocks are flushed holding exactly the records staged in them, so
// the target needs room for the appended records only: no per-bucket tally,
// no slack.
template <typename Record>
class BucketedAppender {
 public:
  // `stage_bytes` is one thread's staging budget: each bucket's block gets
  // an equal share, at least one cacheline and at most the 8 KB §4.1
  // staging buffer.
  BucketedAppender(std::span<Record> target, int num_threads, uint32_t num_buckets,
                   size_t stage_bytes)
      : target_(target),
        num_buckets_(num_buckets),
        block_records_(static_cast<uint32_t>(std::max<size_t>(
            1, std::clamp<size_t>(stage_bytes / std::max(num_buckets, 1u), 64,
                                  kAppenderStagingBytes) /
                   sizeof(Record)))),
        slots_(static_cast<size_t>(num_threads)),
        chunks_(static_cast<size_t>(num_threads), std::vector<ChunkList>(num_buckets)) {
    static_assert(std::is_trivially_copyable_v<Record>);
    XS_CHECK_GT(num_buckets, 0u);
    for (auto& slot : slots_) {
      slot.staging.resize(size_t{num_buckets} * block_records_);
      slot.fill.assign(num_buckets, 0);
    }
  }

  // Appends one record to `bucket` from thread `tid`; the shared atomic is
  // touched only when the bucket's block fills.
  void Append(int tid, uint32_t bucket, const Record& record) {
    Slot& slot = slots_[static_cast<size_t>(tid)];
    uint32_t& fill = slot.fill[bucket];
    slot.staging[size_t{bucket} * block_records_ + fill] = record;
    if (++fill == block_records_) {
      Flush(static_cast<size_t>(tid), bucket);
    }
  }

  // Flushes every thread's partly filled blocks. Must be called (by one
  // thread, after a join) before the chunks are consumed.
  void FlushAll() {
    for (size_t t = 0; t < slots_.size(); ++t) {
      for (uint32_t b = 0; b < num_buckets_; ++b) {
        if (slots_[t].fill[b] > 0) {
          Flush(t, b);
        }
      }
    }
  }

  // Records appended so far (valid after FlushAll).
  uint64_t records() const { return tail_.load(std::memory_order_acquire); }

  // chunks()[t][b]: thread t's flushed blocks of bucket b in flush order, as
  // record ranges of the target (valid after FlushAll).
  const std::vector<std::vector<ChunkList>>& chunks() const { return chunks_; }

  // Calls f(records, count) for each of bucket b's blocks: thread 0's in
  // flush order, then thread 1's, and so on (valid after FlushAll).
  template <typename F>
  void ForEachBlock(uint32_t bucket, F&& f) const {
    for (const auto& per_thread : chunks_) {
      for (const ChunkRef& c : per_thread[bucket]) {
        f(target_.data() + c.begin, c.count);
      }
    }
  }

  // Records in bucket b's flushed blocks.
  uint64_t BucketRecords(uint32_t bucket) const {
    uint64_t total = 0;
    for (const auto& per_thread : chunks_) {
      for (const ChunkRef& c : per_thread[bucket]) {
        total += c.count;
      }
    }
    return total;
  }

  // Removes bucket b's blocks that start at or after `watermark`, handing
  // each to f(records, count) in ForEachBlock order, then moves the other
  // buckets' blocks past the watermark down over the gaps, in target order,
  // and rewinds the tail to just after them. Blocks before the watermark do
  // not move. Single-threaded, after FlushAll, with `watermark` a tail this
  // appender had after an earlier FlushAll. Returns the records removed.
  template <typename F>
  uint64_t DrainBucket(uint32_t bucket, uint64_t watermark, F&& f) {
    uint64_t drained = 0;
    for (auto& per_thread : chunks_) {
      ChunkList& blocks = per_thread[bucket];
      // A thread's blocks of one bucket lie in flush order, which is target
      // order: those past the watermark are a suffix.
      auto first = std::partition_point(blocks.begin(), blocks.end(), [&](const ChunkRef& c) {
        return c.begin < watermark;
      });
      for (auto it = first; it != blocks.end(); ++it) {
        f(target_.data() + it->begin, it->count);
        drained += it->count;
      }
      blocks.erase(first, blocks.end());
    }
    std::vector<ChunkRef*> later;
    for (auto& per_thread : chunks_) {
      for (ChunkList& blocks : per_thread) {
        for (ChunkRef& c : blocks) {
          if (c.begin >= watermark) {
            later.push_back(&c);
          }
        }
      }
    }
    std::sort(later.begin(), later.end(),
              [](const ChunkRef* a, const ChunkRef* b) { return a->begin < b->begin; });
    uint64_t tail = watermark;
    for (ChunkRef* c : later) {
      std::memmove(target_.data() + tail, target_.data() + c->begin, c->count * sizeof(Record));
      c->begin = tail;
      tail += c->count;
    }
    tail_.store(tail, std::memory_order_release);
    return drained;
  }

  // Empties the appender for reuse over the same target, as the device
  // store does after each spill. Single-threaded, after FlushAll.
  void Reset() {
    tail_.store(0, std::memory_order_release);
    for (auto& per_thread : chunks_) {
      for (ChunkList& blocks : per_thread) {
        blocks.clear();
      }
    }
  }

 private:
  struct alignas(64) Slot {
    std::vector<Record> staging;  // num_buckets blocks of block_records_
    std::vector<uint32_t> fill;   // records staged per bucket
  };

  void Flush(size_t tid, uint32_t bucket) {
    uint32_t& fill = slots_[tid].fill[bucket];
    uint64_t offset = tail_.fetch_add(fill, std::memory_order_acq_rel);
    XS_CHECK_LE(offset + fill, target_.size()) << "appender overflow";
    std::memcpy(target_.data() + offset,
                slots_[tid].staging.data() + size_t{bucket} * block_records_,
                fill * sizeof(Record));
    chunks_[tid][bucket].push_back(ChunkRef{offset, fill});
    fill = 0;
  }

  std::span<Record> target_;
  uint32_t num_buckets_;
  uint32_t block_records_;
  std::atomic<uint64_t> tail_{0};
  std::vector<Slot> slots_;
  std::vector<std::vector<ChunkList>> chunks_;
};

}  // namespace xstream

#endif  // XSTREAM_THREADS_BUCKETED_APPENDER_H_
