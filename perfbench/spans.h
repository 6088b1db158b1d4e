// The benchmark's own span recorder, used only in traced runs.
//
// Spans wrap the benchmark's calls into each layer's public functions (the
// program's built-in tracer stays off). Each span has a name, a start, an
// end, a parent and an id (iteration, partition or query). Spans are kept
// in memory and written out as Chrome trace-event JSON when the benchmark
// ends. A span's self time is its duration minus what its child spans
// cover; children of one parent never overlap, because every span is
// recorded on the single thread that drives the workload.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/timer.h"

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal
  int64_t id = -1;        // iteration, partition or query id; -1 = none
  int32_t parent = -1;    // index into the log; -1 = root
  double start = 0.0;     // seconds since the log was created
  double end = 0.0;
};

class SpanLog {
 public:
  // Starts a span now under `parent` and returns its index.
  int32_t Open(const char* name, int64_t id, int32_t parent) {
    spans_.push_back(Span{name, id, parent, clock_.Seconds(), 0.0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) { spans_[static_cast<size_t>(index)].end = clock_.Seconds(); }

  // The innermost span a ScopedSpan has open (the implicit parent).
  int32_t current() const { return current_; }
  void set_current(int32_t index) { current_ = index; }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    current_ = -1;
  }

  // Durations of every span called `name`, in recording order.
  std::vector<double> Durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(s.end - s.start);
      }
    }
    return out;
  }

  double Total(const char* name) const {
    double total = 0.0;
    for (double d : Durations(name)) {
      total += d;
    }
    return total;
  }

  // Sum of self time over every span called `name`.
  double SelfTotal(const char* name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        total += spans_[i].end - spans_[i].start - child[i];
      }
    }
    return total;
  }

  // Appends the spans as complete ("X") trace events; `pid` keeps traced
  // repetitions apart in one file.
  void AppendChromeEvents(xstream::JsonWriter& w, int pid) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.Field("name", std::string_view(s.name));
      w.Field("ph", "X");
      w.Field("ts", s.start * 1e6);
      w.Field("dur", (s.end - s.start) * 1e6);
      w.Field("pid", pid);
      w.Field("tid", 1);
      w.Key("args").BeginObject();
      w.Field("index", static_cast<int64_t>(i));
      w.Field("parent", static_cast<int64_t>(s.parent));
      w.Field("id", s.id);
      w.EndObject();
      w.EndObject();
    }
  }

 private:
  xstream::WallTimer clock_;
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

// Records one span for its scope, nested under the log's current span. A
// null log records nothing, so plain and traced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t id = -1) : log_(log) {
    if (log_ != nullptr) {
      parent_ = log_->current();
      index_ = log_->Open(name, id, parent_);
      log_->set_current(index_);
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(index_);
      log_->set_current(parent_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
  int32_t parent_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
