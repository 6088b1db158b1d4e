// Concurrent record appends into a shared chunk array (paper §4.1).
//
// "Each thread first writes to a private buffer (of size 8K), which is
// flushed to the shared output chunk array, by first atomically reserving
// space at the end and then appending the contents of the private buffer."
//
// ConcurrentAppender implements exactly that: per-thread 8 KB staging buffers
// amortize the atomic fetch_add to one per ~8 KB of output.
//
// BucketedAppender groups the same staging by destination bucket, so the
// in-memory engine's scatter emits updates already grouped by partition and
// needs no separate shuffle pass to group them.
#ifndef XSTREAM_THREADS_CONCURRENT_APPENDER_H_
#define XSTREAM_THREADS_CONCURRENT_APPENDER_H_

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

class ConcurrentAppender {
 public:
  // `target` is the shared chunk array; `record_size` is the fixed record
  // width. The appender never grows the target: callers size it for the
  // worst case (one update per edge).
  ConcurrentAppender(std::span<std::byte> target, size_t record_size, int num_threads)
      : target_(target),
        record_size_(record_size),
        tail_(0),
        slots_(static_cast<size_t>(num_threads)) {
    XS_CHECK_GT(record_size, 0u);
    size_t per_slot_records = kAppenderStagingBytes / record_size;
    XS_CHECK_GT(per_slot_records, 0u) << "record too large for staging buffer";
    for (auto& slot : slots_) {
      slot.staging.resize(per_slot_records * record_size);
      slot.used = 0;
    }
  }

  // Appends one record from thread `tid`. The copy into staging is
  // record-size bound; the shared atomic is touched only on flush.
  void Append(int tid, const void* record) {
    Slot& slot = slots_[static_cast<size_t>(tid)];
    if (slot.used + record_size_ > slot.staging.size()) {
      FlushSlot(slot);
    }
    std::memcpy(slot.staging.data() + slot.used, record, record_size_);
    slot.used += record_size_;
  }

  // Flushes every thread's staging buffer. Must be called (by one thread,
  // after a join) before the appended region is consumed.
  void FlushAll() {
    for (auto& slot : slots_) {
      if (slot.used > 0) {
        FlushSlot(slot);
      }
    }
  }

  // Bytes appended so far (valid after FlushAll).
  size_t bytes() const { return tail_.load(std::memory_order_acquire); }
  size_t records() const { return bytes() / record_size_; }

  // Empties the appender for reuse over the same target — the spill path
  // calls this after each drained batch so scatter can refill the buffer
  // without reconstructing the staging slots. Single-threaded, after a join.
  void Reset() {
    tail_.store(0, std::memory_order_release);
    for (auto& slot : slots_) {
      slot.used = 0;
    }
  }

  // Rewinds the shared tail after the caller compacted the target in place
  // (single-threaded, after FlushAll; `bytes` must not exceed the current
  // tail and must be record-aligned).
  void Rewind(size_t bytes) {
    XS_CHECK_LE(bytes, tail_.load(std::memory_order_acquire));
    XS_CHECK_EQ(bytes % record_size_, 0u);
    tail_.store(bytes, std::memory_order_release);
  }

 private:
  struct alignas(64) Slot {
    std::vector<std::byte> staging;
    size_t used = 0;
  };

  void FlushSlot(Slot& slot) {
    size_t offset = tail_.fetch_add(slot.used, std::memory_order_acq_rel);
    XS_CHECK_LE(offset + slot.used, target_.size()) << "appender overflow";
    std::memcpy(target_.data() + offset, slot.staging.data(), slot.used);
    slot.used = 0;
  }

  std::span<std::byte> target_;
  size_t record_size_;
  std::atomic<size_t> tail_;
  std::vector<Slot> slots_;
};

// Concurrent appends grouped by bucket. Each thread stages one block per
// bucket; a full block is flushed to the shared chunk array with one atomic
// reservation, as in ConcurrentAppender, and recorded as a chunk of its
// bucket. A bucket's records from one thread therefore keep their append
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

#endif  // XSTREAM_THREADS_CONCURRENT_APPENDER_H_
