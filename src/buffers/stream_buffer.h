// Stream buffers (paper §3.1, Fig 5).
//
// "In order to avoid the overhead of dynamic memory allocation, we designed
// a statically sized and statically allocated data structure, the stream
// buffer, to store these variable-sized data items. A stream buffer consists
// of a (large) array of bytes called the chunk array, and an index array with
// K entries for K streaming partitions."
//
// StreamBuffer here is the chunk array plus a typed view; the index arrays
// live in ShuffleOutput (per slice, per partition — paper Fig 7) because
// they are (re)built by every shuffle, or, for records appended by
// destination bucket, in BucketedAppender's per-thread chunk lists.
#ifndef XSTREAM_BUFFERS_STREAM_BUFFER_H_
#define XSTREAM_BUFFERS_STREAM_BUFFER_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/aligned.h"
#include "util/logging.h"

namespace xstream {

// A contiguous run of records belonging to one partition inside a chunk
// array. Units are records, not bytes.
struct ChunkRef {
  uint64_t begin = 0;
  uint64_t count = 0;
};

// One partition's (or shuffle-tree node's) records when they sit in several
// chunks of a chunk array — the blocks bucketed appends flush — in order.
using ChunkList = std::vector<ChunkRef>;

class StreamBuffer {
 public:
  StreamBuffer() = default;
  explicit StreamBuffer(size_t capacity_bytes) : bytes_(capacity_bytes) {}

  size_t capacity_bytes() const { return bytes_.size(); }
  std::byte* data() { return bytes_.data(); }
  const std::byte* data() const { return bytes_.data(); }

  // Typed access to the chunk array. The buffer is raw storage; the caller
  // guarantees it was filled with `T` records.
  template <typename T>
  T* records() {
    static_assert(std::is_trivially_copyable_v<T>);
    return reinterpret_cast<T*>(bytes_.data());
  }

  template <typename T>
  const T* records() const {
    static_assert(std::is_trivially_copyable_v<T>);
    return reinterpret_cast<const T*>(bytes_.data());
  }

  template <typename T>
  uint64_t capacity_records() const {
    return bytes_.size() / sizeof(T);
  }

 private:
  AlignedBuffer bytes_;
};

}  // namespace xstream

#endif  // XSTREAM_BUFFERS_STREAM_BUFFER_H_
