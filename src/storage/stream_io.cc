#include "storage/stream_io.h"

#include <algorithm>
#include <cstring>

#include "storage/io_executor.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xstream {

StreamReader::StreamReader(StorageDevice& dev, FileId file, size_t chunk_bytes,
                           size_t buffer_bytes)
    : dev_(dev), file_(file), chunk_bytes_(chunk_bytes), file_size_(dev.FileSize(file)) {
  XS_CHECK_GT(chunk_bytes_, 0u);
  buffers_[0] = AlignedBuffer(std::max(chunk_bytes_, buffer_bytes));
  buffers_[1] = AlignedBuffer(std::max(chunk_bytes_, buffer_bytes));
}

StreamReader::~StreamReader() {
  for (auto& p : pending_) {
    if (p.valid()) {
      p.wait();
    }
  }
}

void StreamReader::Issue(int buf) {
  size_t len = static_cast<size_t>(
      std::min<uint64_t>(chunk_bytes_, file_size_ - std::min(file_size_, next_offset_)));
  lengths_[buf] = len;
  if (len == 0) {
    return;
  }
  uint64_t offset = next_offset_;
  next_offset_ += len;
  std::span<std::byte> target(buffers_[buf].data(), len);
  pending_[buf] = dev_.executor().Submit([this, offset, target] { dev_.Read(file_, offset, target); });
}

std::span<std::byte> StreamReader::Next() {
  if (!started_) {
    started_ = true;
    Issue(0);
    Issue(1);
    current_ = 0;
  } else {
    // The chunk just consumed becomes the prefetch target.
    Issue(current_);
    current_ ^= 1;
  }
  if (lengths_[current_] == 0) {
    return {};
  }
  if (pending_[current_].valid()) {
    WallTimer timer;
    pending_[current_].wait();
    wait_seconds_ += timer.Seconds();
  }
  return {buffers_[current_].data(), lengths_[current_]};
}

StreamWriter::StreamWriter(StorageDevice& dev, FileId file, size_t buffer_bytes)
    : dev_(dev), file_(file), buffer_bytes_(buffer_bytes) {
  XS_CHECK_GT(buffer_bytes_, 0u);
  buffers_[0] = AlignedBuffer(buffer_bytes_);
  buffers_[1] = AlignedBuffer(buffer_bytes_);
}

StreamWriter::~StreamWriter() {
  Finish();
  if (error_ != nullptr) {
    try {
      std::rethrow_exception(error_);
    } catch (const std::exception& e) {
      XS_LOG(Error) << "StreamWriter destroyed with unreported write error: " << e.what()
                    << " (call Close() to propagate write failures)";
    } catch (...) {
      XS_LOG(Error) << "StreamWriter destroyed with unreported write error"
                    << " (call Close() to propagate write failures)";
    }
  }
}

void StreamWriter::Append(std::span<const std::byte> data) {
  XS_CHECK(!finished_);
  while (!data.empty()) {
    size_t room = buffer_bytes_ - used_;
    size_t take = std::min(room, data.size());
    std::memcpy(buffers_[current_].data() + used_, data.data(), take);
    used_ += take;
    data = data.subspan(take);
    if (used_ == buffer_bytes_) {
      FlushCurrent();
    }
  }
}

void StreamWriter::Drain(std::future<void>& pending) {
  if (!pending.valid()) {
    return;
  }
  try {
    pending.get();
  } catch (...) {
    if (error_ == nullptr) {
      error_ = std::current_exception();
    }
  }
}

void StreamWriter::FlushCurrent() {
  if (used_ == 0) {
    return;
  }
  std::span<const std::byte> payload(buffers_[current_].data(), used_);
  pending_[current_] = dev_.executor().Submit([this, payload] { dev_.Append(file_, payload); });
  bytes_written_ += used_;
  used_ = 0;
  current_ ^= 1;
  // Before reusing the other buffer, its previous write must be complete.
  Drain(pending_[current_]);
}

void StreamWriter::Finish() {
  if (finished_) {
    return;
  }
  FlushCurrent();
  for (auto& p : pending_) {
    Drain(p);
  }
  finished_ = true;
}

void StreamWriter::Close() {
  Finish();
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace xstream
