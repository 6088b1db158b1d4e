// Phase tracer: records spans at the StreamingPhaseDriver / store /
// scheduler seams and exports them as Chrome trace-event JSON (the
// ["traceEvents"] array format), viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Enabled by the CLI's --trace=FILE flag; when disabled —
// the default — a span costs one relaxed atomic load and nothing else.
//
// Long-running jobs keep tracing affordable two ways (both CLI-exposed):
//   * sampling (--trace-sample=RATE): each span start draws from a
//     thread-local xorshift PRNG against an atomic threshold, so RATE=0.01
//     keeps 1% of spans at the same single-digit-ns per-span cost;
//   * ring retention (--trace-ring=N): the event store becomes a circular
//     buffer of the most recent N spans (oldest dropped, drop count kept),
//     so a day-long run can trace always-on in bounded memory and dump the
//     tail via GET /trace or at exit.
//
// Span vocabulary (names are stable; docs/observability.md catalogs them):
//   setup      edge partitioning / setup shuffle          cat "setup"
//   iteration  one scatter+gather cycle                   cat "phase"
//   scatter    one partition's edge scan                  cat "phase"
//   shuffle    in-memory shuffle levels below scatter     cat "phase"
//   spill      routing + device write of an update batch  cat "phase"
//   gather     one partition's update drain + apply       cat "phase"
//   migration  residency promote/evict of one partition   cat "residency"
//   admission / retirement / resplit   scheduler events   cat "scheduler"
//
// Spans are recorded as Chrome "X" (complete) events; nesting is by time
// containment per thread, which Perfetto renders as stacked slices.
#ifndef XSTREAM_OBS_TRACE_H_
#define XSTREAM_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace xstream::obs {

struct TraceEvent {
  const char* name;   // static string (span vocabulary above)
  const char* cat;    // static category string
  uint64_t ts_ns;     // start, relative to tracer epoch
  uint64_t dur_ns;
  uint32_t tid;       // dense per-thread id (same as the log prefix's t<N>)
  int64_t partition;  // args.p; -1 = none
  std::string label;  // args.job; empty = none
};

class Tracer {
 public:
  static Tracer& Global();

  // Starts recording and resets the epoch. Spans opened while disabled are
  // dropped even if tracing is enabled before they close.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Per-span sampling probability in [0,1]; 1 (the default) records every
  // span, 0 records none. The decision is made at span start, so a sampled
  // span is always recorded whole. Compiled to a no-op (rate pinned to
  // "never") under -DXSTREAM_DISABLE_OBS.
  void set_sample_rate(double rate);
  double sample_rate() const;

  // Whether a span starting now should record: enabled() AND the sampling
  // draw. The disabled fast path is one relaxed load, same as enabled().
  bool Sample() const {
#ifndef XSTREAM_DISABLE_OBS
    if (!enabled_.load(std::memory_order_relaxed)) {
      return false;
    }
    uint32_t threshold = sample_threshold_.load(std::memory_order_relaxed);
    if (threshold == UINT32_MAX) {
      return true;
    }
    return threshold != 0 && NextSampleDraw() < threshold;
#else
    return false;
#endif
  }

  // Bounds the event store to the most recent `capacity` spans (0 = keep
  // everything, the default). Oldest events are dropped; dropped() counts
  // them. Shrinking below the current size keeps the newest events.
  void set_ring_capacity(size_t capacity);
  size_t ring_capacity() const;
  uint64_t dropped() const;

  uint64_t NowNs() const { return epoch_.Nanos(); }

  void Record(const char* name, const char* cat, uint64_t ts_ns, uint64_t dur_ns,
              int64_t partition = -1, std::string label = {});

  // Copy of the recorded events, oldest first (tests, GET /trace).
  std::vector<TraceEvent> Snapshot() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — ts/dur in microseconds.
  // Includes "droppedSpans" when ring retention evicted anything.
  std::string ToChromeJson() const;
  bool WriteChromeTrace(const std::string& path) const;

  void Reset();

 private:
  // Thread-local xorshift32 draw for the sampling decision: no locks, no
  // syscalls, a few ns. Seeded per thread so concurrent spans decorrelate.
  static uint32_t NextSampleDraw();

  std::atomic<bool> enabled_{false};
  // Record a span when draw < threshold: UINT32_MAX = always (skips the
  // draw), 0 = never.
  std::atomic<uint32_t> sample_threshold_{UINT32_MAX};
  WallTimer epoch_;
  mutable std::mutex mu_;
  // With ring_capacity_ == 0 a plain append log; otherwise a circular
  // buffer: once events_.size() reaches capacity, ring_head_ is the oldest
  // element and new events overwrite it.
  std::vector<TraceEvent> events_;
  size_t ring_capacity_ = 0;
  size_t ring_head_ = 0;
  uint64_t dropped_ = 0;
};

// RAII span against the global tracer. Construction samples the clock only
// when the span is recorded (tracing enabled and the sampling draw passes).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "phase", int64_t partition = -1,
                     std::string label = {})
      : name_(name),
        cat_(cat),
        partition_(partition),
        label_(std::move(label)),
        active_(Tracer::Global().Sample()) {
    if (active_) {
      start_ns_ = Tracer::Global().NowNs();
    }
  }

  ~TraceSpan() { Close(); }

  // Ends the span early (for spans that do not line up with a C++ scope).
  void Close() {
    if (active_) {
      active_ = false;
      Tracer& t = Tracer::Global();
      t.Record(name_, cat_, start_ns_, t.NowNs() - start_ns_, partition_, std::move(label_));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  int64_t partition_;
  std::string label_;
  bool active_;
  uint64_t start_ns_ = 0;
};

// Manual span for begin/end pairs split across functions (e.g. the driver's
// externally driven scatter protocol). Inactive unless Start() sampled in
// while tracing was enabled.
class ManualSpan {
 public:
  void Start(int64_t partition = -1) {
    active_ = Tracer::Global().Sample();
    if (active_) {
      partition_ = partition;
      start_ns_ = Tracer::Global().NowNs();
    }
  }

  void Stop(const char* name, const char* cat = "phase") {
    if (active_) {
      active_ = false;
      Tracer& t = Tracer::Global();
      t.Record(name, cat, start_ns_, t.NowNs() - start_ns_, partition_);
    }
  }

  // Discards the span without recording (cancelled iterations).
  void Cancel() { active_ = false; }

 private:
  bool active_ = false;
  int64_t partition_ = -1;
  uint64_t start_ns_ = 0;
};

}  // namespace xstream::obs

#endif  // XSTREAM_OBS_TRACE_H_
