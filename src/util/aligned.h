// Aligned, statically-sized byte buffers.
//
// The paper's stream buffers are "statically sized and statically allocated"
// (§3.1) to avoid dynamic allocation in the streaming loop, and direct I/O
// requires sector-aligned memory (§3.3). AlignedBuffer provides both: one
// allocation, aligned to kIoAlignment, never resized.
#ifndef XSTREAM_UTIL_ALIGNED_H_
#define XSTREAM_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace xstream {

// Alignment that satisfies O_DIRECT on every mainstream Linux filesystem and
// is a multiple of the cacheline size.
inline constexpr size_t kIoAlignment = 4096;

class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  // Allocates `size` bytes aligned to `alignment`. Aborts on OOM: stream
  // buffer sizes are computed up front from the memory budget, so failure
  // here is a configuration bug, not a recoverable condition.
  explicit AlignedBuffer(size_t size, size_t alignment = kIoAlignment);
  ~AlignedBuffer();

  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::span<std::byte> span() { return {data_, size_}; }
  std::span<const std::byte> span() const { return {data_, size_}; }

 private:
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace xstream

#endif  // XSTREAM_UTIL_ALIGNED_H_
