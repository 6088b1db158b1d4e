#include "util/aligned.h"

#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace xstream {

AlignedBuffer::AlignedBuffer(size_t size, size_t alignment) : size_(size) {
  if (size == 0) {
    return;
  }
  // std::aligned_alloc requires the size to be a multiple of the alignment.
  size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  XS_CHECK(p != nullptr) << "aligned_alloc of " << rounded << " bytes failed";
  data_ = static_cast<std::byte*>(p);
}

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace xstream
