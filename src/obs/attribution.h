// Bottleneck attribution: per-iteration x per-partition x per-phase wall-time
// accounting, and the diagnosis derived from it.
//
// The paper's whole evaluation is an attribution argument — every result is
// explained by whether a run is compute-, bandwidth- or disk-bound and where
// the streamed time went (§5). The metrics registry and tracer (PR 6/8)
// expose the raw counters and spans behind that story; this layer turns them
// into the answer itself. A PhaseAccountant collects wall-time cells from
// the StreamingPhaseDriver, the stream stores and the scheduler's scan
// source, one cell per (phase, partition):
//
//   scatter    edge scatter compute (per-chunk parallel sections)
//   shuffle    update shuffle / staging (spill-time and in-memory)
//   spill_wait scatter blocked on earlier async update-file writes
//   gather     update application, incl. loads/read waits of the partition
//   scan_io    edge-stream read waits the prefetch did not hide
//   migration  residency migrations applied at partition boundaries
//
// Two views are kept per phase: *wall* seconds (sections timed once on the
// driving thread — these sum to elapsed-time coverage and drive the
// I/O-vs-compute verdict) and per-partition *cell* seconds (busy time spent
// on each partition by whichever thread — in the partition-sequential shape
// identical to wall, in the partition-parallel shape summing to aggregate
// thread-seconds — these drive the straggler/skew index).
//
// Accountants register themselves in a process-global AttributionRegistry so
// the HTTP exporter's GET /attribution and the CLI's --explain report can
// reach every live driver (and a bounded ring of recently retired ones, so
// a finished scheduler job still explains itself). Everything compiles to
// no-ops under -DXSTREAM_DISABLE_OBS.
#ifndef XSTREAM_OBS_ATTRIBUTION_H_
#define XSTREAM_OBS_ATTRIBUTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace xstream::obs {

enum class Phase : int {
  kScatter = 0,
  kShuffle,
  kSpillWait,
  kGather,
  kScanIo,
  kMigration,
};
inline constexpr int kPhaseCount = 6;
const char* PhaseName(Phase p);

// Cell recordings with no meaningful partition (e.g. the in-memory engine's
// global shuffle) land in a separate per-phase "unattributed" column so the
// per-partition skew math never dilutes against them.
inline constexpr uint32_t kNoPartition = UINT32_MAX;

struct PhaseSink {
  Phase phase = Phase::kScatter;
  double seconds = 0.0;
  double share = 0.0;  // of accounted_seconds
};

struct AttributionDiagnosis {
  double accounted_seconds = 0.0;
  // Wall time provably spent waiting on storage: spill-write waits,
  // edge-scan read waits, gather read waits.
  double io_wait_seconds = 0.0;
  double io_bound_ratio = 0.0;  // io_wait / accounted
  bool io_bound = false;        // ratio >= 0.5
  Phase bottleneck = Phase::kScatter;
  std::vector<PhaseSink> ranked;  // phases with time, descending
  // Straggler/skew index over per-partition busy time (cells).
  double skew_max_mean = 0.0;
  double skew_p99_p50 = 0.0;
  uint32_t straggler_partition = kNoPartition;
  // Actionable, flag-level advice derived from the ranking and the skew
  // index (the hint table lives in docs/observability.md).
  std::vector<std::string> hints;
};

struct AttributionSnapshot {
  std::string name;
  uint32_t num_partitions = 0;
  uint64_t iterations = 0;
  std::array<double, kPhaseCount> wall{};  // wall seconds per phase
  std::vector<double> cells;               // [phase * k + partition] busy seconds
  std::array<double, kPhaseCount> unattributed{};
  double gather_read_wait_seconds = 0.0;  // subset of wall[kGather]
  uint64_t gather_reads = 0;              // update files gather read
  // Per-iteration wall deltas (ring-capped; `iterations` keeps the true
  // count when a very long run overflows the log).
  std::vector<std::array<double, kPhaseCount>> per_iteration;

  double Cell(Phase ph, uint32_t p) const {
    return cells[static_cast<size_t>(ph) * num_partitions + p];
  }
  double CellTotal(Phase ph) const;
  double PartitionSeconds(uint32_t p) const;  // across phases
  double AccountedSeconds() const;            // sum of wall[]

  AttributionDiagnosis Diagnose() const;
  std::string ToJson() const;  // snapshot + diagnosis, one object
};

// Human-readable end-of-run doctor report (--explain): ranked phases, the
// I/O-vs-compute verdict, the skew index and the flag hints.
std::string ExplainReport(const AttributionSnapshot& snap);

#ifndef XSTREAM_DISABLE_OBS

// Thread-safe collector. Recording is wait-free (one relaxed fetch_add on a
// nanosecond cell); snapshots are taken concurrently by the HTTP exporter
// thread. The partition count is fixed at construction, which also
// registers the accountant in the global AttributionRegistry; destruction
// deregisters it, leaving a final snapshot in the registry's retired ring.
class PhaseAccountant {
 public:
  explicit PhaseAccountant(std::string name, uint32_t num_partitions);
  ~PhaseAccountant();

  PhaseAccountant(const PhaseAccountant&) = delete;
  PhaseAccountant& operator=(const PhaseAccountant&) = delete;

  const std::string& name() const { return name_; }
  uint32_t num_partitions() const { return k_; }

  // Busy time on one partition (kNoPartition -> the unattributed column).
  void RecordCell(Phase ph, uint32_t partition, double seconds);
  // Wall time of a driving-thread section of this phase.
  void RecordWall(Phase ph, double seconds);
  // Both at once — the partition-sequential shape, where they coincide.
  void Record(Phase ph, uint32_t partition, double seconds) {
    RecordCell(ph, partition, seconds);
    RecordWall(ph, seconds);
  }
  // Gather-side read stalls (a subset of the gather phase, split out so the
  // I/O-bound verdict can count it as a wait), one call per update file
  // gather read: the calls are counted too, so the diagnosis knows whether
  // any update left RAM at all.
  void RecordGatherReadWait(double seconds);

  // Iteration boundaries (driving thread only): EndIteration folds the wall
  // deltas since BeginIteration into the per-iteration log.
  void BeginIteration(uint64_t iteration);
  void EndIteration();

  void Reset();
  AttributionSnapshot Snapshot() const;

 private:
  static uint64_t ToNs(double seconds) {
    return seconds > 0.0 ? static_cast<uint64_t>(seconds * 1e9) : 0;
  }

  const std::string name_;
  const uint32_t k_;
  std::vector<std::atomic<uint64_t>> cells_;  // kPhaseCount * k_, nanoseconds
  std::array<std::atomic<uint64_t>, kPhaseCount> wall_ns_{};
  std::array<std::atomic<uint64_t>, kPhaseCount> unattributed_ns_{};
  std::atomic<uint64_t> gather_read_wait_ns_{0};
  std::atomic<uint64_t> gather_reads_{0};
  std::atomic<uint64_t> iterations_{0};

  mutable std::mutex mu_;  // guards per_iteration_ and iter_base_
  std::vector<std::array<double, kPhaseCount>> per_iteration_;
  std::array<double, kPhaseCount> iter_base_{};
  bool in_iteration_ = false;
};

// Process-global directory of accountants, for the /attribution route and
// --explain. Live accountants are snapshotted on demand; deregistration
// moves a final snapshot into a bounded retired ring so short-lived
// scheduler jobs remain diagnosable after the batch finishes.
class AttributionRegistry {
 public:
  static AttributionRegistry& Global();

  void Register(PhaseAccountant* a);
  void Deregister(PhaseAccountant* a);

  // Live snapshots first (registration order), then retired ones.
  std::vector<AttributionSnapshot> Snapshots() const;
  // {"accountants":[ <snapshot+diagnosis>... ]}
  std::string ToJson() const;
  void ClearRetired();

 private:
  static constexpr size_t kMaxRetired = 8;
  mutable std::mutex mu_;
  std::vector<PhaseAccountant*> live_;
  std::deque<AttributionSnapshot> retired_;
};

// RAII section timer: records into the accountant at scope exit (or Stop()).
// Null accountant is allowed and skips the clock reads entirely.
enum class PhaseTimerMode { kWallAndCell, kCellOnly, kWallOnly };

class PhaseTimer {
 public:
  PhaseTimer(PhaseAccountant* acct, Phase ph, uint32_t partition = kNoPartition,
             PhaseTimerMode mode = PhaseTimerMode::kWallAndCell)
      : acct_(acct), ph_(ph), partition_(partition), mode_(mode) {}
  ~PhaseTimer() { Stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  void Stop() {
    if (acct_ == nullptr) {
      return;
    }
    double s = timer_.Seconds();
    switch (mode_) {
      case PhaseTimerMode::kWallAndCell:
        acct_->Record(ph_, partition_, s);
        break;
      case PhaseTimerMode::kCellOnly:
        acct_->RecordCell(ph_, partition_, s);
        break;
      case PhaseTimerMode::kWallOnly:
        acct_->RecordWall(ph_, s);
        break;
    }
    acct_ = nullptr;
  }

 private:
  PhaseAccountant* acct_;
  Phase ph_;
  uint32_t partition_;
  PhaseTimerMode mode_;
  WallTimer timer_;
};

#else  // XSTREAM_DISABLE_OBS

// Compile-out stand-ins: no storage, no clock reads, no registry. The
// snapshot/diagnosis types above stay real so --explain code paths link;
// they simply never see data.
class PhaseAccountant {
 public:
  explicit PhaseAccountant(std::string name, uint32_t num_partitions = 0)
      : name_(std::move(name)) {
    (void)num_partitions;
  }
  const std::string& name() const { return name_; }
  uint32_t num_partitions() const { return 0; }
  void RecordCell(Phase, uint32_t, double) {}
  void RecordWall(Phase, double) {}
  void Record(Phase, uint32_t, double) {}
  void RecordGatherReadWait(double) {}
  void BeginIteration(uint64_t) {}
  void EndIteration() {}
  void Reset() {}
  AttributionSnapshot Snapshot() const {
    return AttributionSnapshot{name_, 0, 0, {}, {}, {}, 0.0, 0, {}};
  }

 private:
  std::string name_;
};

class AttributionRegistry {
 public:
  static AttributionRegistry& Global() {
    static AttributionRegistry r;
    return r;
  }
  void Register(PhaseAccountant*) {}
  void Deregister(PhaseAccountant*) {}
  std::vector<AttributionSnapshot> Snapshots() const { return {}; }
  std::string ToJson() const { return "{\"accountants\":[]}"; }
  void ClearRetired() {}
};

enum class PhaseTimerMode { kWallAndCell, kCellOnly, kWallOnly };

class PhaseTimer {
 public:
  PhaseTimer(PhaseAccountant*, Phase, uint32_t = kNoPartition,
             PhaseTimerMode = PhaseTimerMode::kWallAndCell) {}
  void Stop() {}
};

#endif  // XSTREAM_DISABLE_OBS

}  // namespace xstream::obs

#endif  // XSTREAM_OBS_ATTRIBUTION_H_
