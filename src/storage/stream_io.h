// Streaming readers/writers with prefetch distance 1 (paper §3.3).
//
// "As soon as a read into one input stream buffer is completed, we start the
// next read into a second input stream buffer. Similarly, the writes to disk
// of the chunks in one output buffer are overlapped with computing the
// updates of the scatter phase into another output buffer. ... We found this
// prefetch distance of one, both on input and output, sufficient to keep the
// disks 100% busy."
//
// StreamReader returns consecutive chunks of a file, double-buffered, with
// the next chunk's read issued on the device's I/O thread before the current
// one is consumed. StreamWriter appends through two alternating buffers.
#ifndef XSTREAM_STORAGE_STREAM_IO_H_
#define XSTREAM_STORAGE_STREAM_IO_H_

#include <future>
#include <span>

#include "storage/device.h"
#include "util/aligned.h"

namespace xstream {

class StreamReader {
 public:
  // Streams `file` on `dev` from the beginning in `chunk_bytes` units, into
  // buffers of max(chunk_bytes, buffer_bytes) bytes: room past the chunk
  // lets a caller expand a chunk in place.
  StreamReader(StorageDevice& dev, FileId file, size_t chunk_bytes, size_t buffer_bytes = 0);
  ~StreamReader();

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  // Returns the next chunk (empty at EOF). The span, and the rest of its
  // buffer, belong to the caller until the next call to Next().
  std::span<std::byte> Next();

  uint64_t file_size() const { return file_size_; }

  // Wall time Next() spent blocked on reads the prefetch had not finished —
  // the read-side analogue of the spill path's spill_wait_seconds.
  double wait_seconds() const { return wait_seconds_; }

 private:
  void Issue(int buf);

  StorageDevice& dev_;
  FileId file_;
  size_t chunk_bytes_;
  uint64_t file_size_;
  uint64_t next_offset_ = 0;

  AlignedBuffer buffers_[2];
  size_t lengths_[2] = {0, 0};
  std::future<void> pending_[2];
  int current_ = 0;
  bool started_ = false;
  double wait_seconds_ = 0.0;
};

class StreamWriter {
 public:
  // Appends to `file` on `dev`, buffering up to `buffer_bytes` per flush.
  StreamWriter(StorageDevice& dev, FileId file, size_t buffer_bytes);
  // Finishes quietly: any write error that was never observed via Close()
  // is logged and swallowed (destructors must not throw). Durable paths —
  // engine spills, checkpoints, edge-file writes — must call Close() first.
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  // Copies `data` into the current buffer, flushing asynchronously whenever
  // the buffer fills.
  void Append(std::span<const std::byte> data);

  // Appends a single fixed-size record (convenience for record streams).
  template <typename T>
  void AppendRecord(const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    Append(std::span<const std::byte>(reinterpret_cast<const std::byte*>(&record), sizeof(T)));
  }

  // Flushes any buffered bytes and waits for all writes to complete. Errors
  // raised on the I/O thread are retained, not raised here (legacy quiet
  // path); call Close() to surface them.
  void Finish();

  // Finish() plus error propagation: rethrows the first exception any
  // asynchronous write raised on the device's I/O thread. Idempotent; after
  // a throwing Close() the retained error is cleared.
  void Close();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  void FlushCurrent();
  // Waits for a pending write, retaining (not throwing) its error.
  void Drain(std::future<void>& pending);

  StorageDevice& dev_;
  FileId file_;
  size_t buffer_bytes_;
  AlignedBuffer buffers_[2];
  size_t used_ = 0;
  std::future<void> pending_[2];
  int current_ = 0;
  uint64_t bytes_written_ = 0;
  bool finished_ = false;
  std::exception_ptr error_;
};

}  // namespace xstream

#endif  // XSTREAM_STORAGE_STREAM_IO_H_
