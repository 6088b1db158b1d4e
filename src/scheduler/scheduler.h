// JobScheduler: N concurrent algorithm jobs over one graph, one edge scan.
//
// The scheduler owns a ScanSource (the partitioned edge streams, on devices
// or in RAM) and admits jobs — algorithm + parameters + a private vertex
// slab and update stream each — through Submit/Poll/Wait/Cancel. Its core
// mechanism is *scan sharing*: the driving thread walks the partitions in a
// rotating cursor and streams each partition's edge chunks exactly once,
// fanning every loaded chunk out to all active jobs' scatter phases
// (StreamingPhaseDriver's multi-job scatter mode). Per-job shuffles, update
// spills and gathers stay independent, so each job's results are what its
// solo run would produce while the edge-device read volume stays ~flat in
// the number of jobs (bench/fig30_scan_sharing.cc).
//
// Round structure: a job's iteration is one full cycle of the partition
// cursor starting from the partition at which it was admitted — updates are
// unordered within an X-Stream iteration, so the rotation is legal — which
// lets late arrivals join at the next partition boundary instead of waiting
// for a global round, and lets converged jobs retire without stalling the
// rest. Cancellations also take effect at partition boundaries.
//
// Admission control: an optional memory budget gates admission by each
// job's fixed footprint (vertex slabs + stream buffers), and whatever
// remains is re-split evenly across the pin-capable jobs'
// residency planners every time a job enters or leaves — ResidencyPlanner
// budgets move at runtime.
//
// Fair-share admission: jobs carry a tenant label, and admission slots are
// granted by weighted deficit counters instead of global FIFO. Each slot
// deposits exactly 1.0 credit, split across the admission-eligible waiting
// tenants in proportion to their weights; the tenant with the largest
// deficit admits its oldest job and is charged the full 1.0. Credit is
// conserved, so shares converge to the configured weight ratios exactly and
// a flooding tenant waits at most ~ceil(total_weight / weight) slots before
// any other backlogged tenant gets a turn — starvation-freedom with no
// aging heuristics. Per-tenant quotas bound concurrent jobs (waits at
// admission), queue depth and per-job memory share (both reject at submit;
// the serve layer maps rejections to HTTP 429).
//
// Threading: Submit/Poll/Wait/Cancel are thread-safe. The rounds themselves
// run on whichever single thread is driving (PumpOne/RunAll/Wait hand the
// driver role off under a mutex); jobs' compute uses the shared ThreadPool.
#ifndef XSTREAM_SCHEDULER_SCHEDULER_H_
#define XSTREAM_SCHEDULER_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "scheduler/job.h"
#include "scheduler/scan_source.h"
#include "util/timer.h"

namespace xstream {

using JobId = uint64_t;

/// Per-tenant scheduling policy. The zero-ish defaults mean "no limit", so
/// an unconfigured tenant behaves like the pre-tenant scheduler.
struct TenantQuota {
  /// Relative share of admission slots (must be > 0). A weight-3 tenant
  /// admits 3x the jobs of a weight-1 tenant when both stay backlogged.
  double weight = 1.0;
  /// Max concurrently running jobs (0 = unlimited). Excess jobs queue.
  uint32_t max_running = 0;
  /// Max queued (submitted, not yet admitted) jobs (0 = unlimited). Excess
  /// submissions are rejected by TrySubmit.
  uint32_t max_queued = 0;
  /// Max fraction of the scheduler memory budget one of this tenant's jobs
  /// may claim as fixed footprint (0 = unlimited). Oversized submissions
  /// are rejected by TrySubmit. Only enforced when the scheduler has a
  /// budget.
  double memory_share = 0.0;
};

/// Scheduler configuration. Thread-safety: plain data, set before
/// constructing the scheduler.
struct SchedulerOptions {
  /// Memory budget split across active jobs (0 = unlimited): fixed job
  /// footprints gate admission; the remainder becomes the pin-capable
  /// jobs' residency budgets (which price everything a pin holds,
  /// including shared-cache edge bytes, so the split bounds total RAM). A
  /// job bigger than the whole budget is still admitted when it is alone
  /// (with a warning) rather than deadlocking the queue.
  uint64_t memory_budget_bytes = 0;
  /// Global ceiling on concurrently running jobs (0 = unlimited).
  uint32_t max_active_jobs = 0;
  /// Quota applied to tenants absent from `tenants` (including the ""
  /// tenant that plain Submit uses).
  TenantQuota default_quota;
  /// Per-tenant quota overrides, keyed by tenant name.
  std::map<std::string, TenantQuota> tenants;
};

/// Aggregate scheduler counters (a snapshot copy; see stats()).
struct SchedulerStats {
  uint64_t partition_scans = 0;    // partition edge streams actually read
  uint64_t scans_saved = 0;        // scatter passes served beyond the first
  uint64_t shared_scan_bytes = 0;  // edge bytes the shared scan read
  uint64_t saved_scan_bytes = 0;   // edge bytes jobs would have re-read naively
  uint64_t rounds_completed = 0;   // per-job iteration boundaries processed
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_cancelled = 0;
  uint64_t jobs_rejected = 0;  // TrySubmit refusals (queue depth / memory share)
  uint64_t budget_resplits = 0;  // admission/retirement pin-budget re-splits
  // Edge bytes the scan source served from its shared pinned-edge cache
  // instead of the edge device (pinning jobs with pin_edges).
  uint64_t edge_reads_avoided_bytes = 0;
};

/// One tenant's scheduling counters (a snapshot copy; see tenant_stats()).
struct TenantStats {
  std::string tenant;       // "" = the anonymous/default tenant
  double weight = 1.0;      // effective weight (quota lookup result)
  double deficit = 0.0;     // current fair-share credit balance
  uint32_t queued = 0;      // submitted, not yet admitted
  uint32_t running = 0;     // admitted, not yet retired
  uint64_t submitted = 0;   // accepted submissions
  uint64_t rejected = 0;    // TrySubmit refusals
  uint64_t completed = 0;
  uint64_t cancelled = 0;
};

/// Why TrySubmit said no (also surfaced to HTTP clients by the serve layer).
struct SubmitOutcome {
  bool accepted = false;
  JobId id = 0;        // valid when accepted
  std::string reason;  // human-readable rejection cause when !accepted
};

/// One job's lifecycle summary (a snapshot copy; see report()).
struct JobReport {
  JobId id = 0;
  std::string name;
  std::string tenant;
  JobState state = JobState::kQueued;
  double queue_seconds = 0.0;  // submit -> admission (or cancellation)
  double run_seconds = 0.0;    // admission -> completion (or so far)
  uint64_t rounds = 0;         // iterations completed under the scheduler
  // Progress through the current round's partition cycle: boundaries the
  // shared cursor has passed since this job's round began, out of the
  // layout's partition count. Resets to 0 as each round wraps; stays at
  // its last value once the job is terminal.
  uint32_t partitions_done = 0;
  uint32_t partitions_total = 0;
};

/// Renders reports as a JSON array (the GET /jobs payload; also consumed by
/// tests). Stable keys: id, name, tenant, state, rounds, partitions_done,
/// partitions_total, queue_seconds, run_seconds.
std::string JobReportsToJson(const std::vector<JobReport>& reports);

/// N concurrent algorithm jobs over one shared edge scan.
///
/// Thread-safety: Submit / Poll / Cancel / stats / report / reports are
/// safe from any thread. Wait / RunAll / PumpOne may also be called from
/// any thread, but only one thread at a time holds the internal driver
/// role; the others wait for its partition boundary to land. The
/// constructor and destructor must not race any other member.
class JobScheduler {
 public:
  /// Does not block; the source must outlive the scheduler.
  JobScheduler(ScanSource& source, SchedulerOptions opts = {});
  /// Tear-down abandons any jobs still queued or running — blocks draining
  /// their in-flight I/O. Callers must not be driving or waiting
  /// concurrently.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues a job under the anonymous tenant ""; it joins the scan at the
  /// next partition boundary with a budget slot. Thread-safe; never blocks
  /// on I/O. Aborts if the default quota rejects (use TrySubmit when
  /// rejection is an expected outcome).
  JobId Submit(std::unique_ptr<ScheduledJob> job);

  /// Quota-checked submission for `tenant`: rejects (returning the job
  /// untouched inside the scheduler — it is destroyed) when the tenant's
  /// queue is at max_queued or the job's fixed footprint exceeds its
  /// memory_share of the budget. Thread-safe; never blocks on I/O.
  SubmitOutcome TrySubmit(std::unique_ptr<ScheduledJob> job, const std::string& tenant);

  /// Current lifecycle state. Thread-safe; never blocks on I/O. Aborts on
  /// an unknown id.
  JobState Poll(JobId id) const;

  /// Requests cancellation; it takes effect at the next driven partition
  /// boundary (queued jobs never start, running jobs abandon their round
  /// there). Poll reports kCancelled once a boundary has processed the
  /// request. Unknown/finished ids are a no-op. Thread-safe; never blocks
  /// on I/O.
  void Cancel(JobId id);

  /// Blocks until the job is terminal, driving rounds (and therefore doing
  /// the jobs' compute and I/O on this thread) whenever no other thread
  /// is. Returns true if the job completed (false = cancelled).
  bool Wait(JobId id);

  /// Drives until no queued or active jobs remain. Blocks for the whole
  /// remaining workload.
  void RunAll();

  /// Drives one partition boundary (admissions, one shared scan, round
  /// finishes, retirements) — blocking on that boundary's compute and I/O;
  /// if another thread is driving, waits for its boundary instead. Returns
  /// whether work may remain. Exposed for step-wise tests and external run
  /// loops.
  bool PumpOne();

  /// Snapshot accessors. Thread-safe; never block on I/O.
  SchedulerStats stats() const;
  JobReport report(JobId id) const;
  std::vector<JobReport> reports() const;
  std::vector<TenantStats> tenant_stats() const;

 private:
  struct PendingJob {
    JobId id = 0;
    std::string tenant;
    std::unique_ptr<ScheduledJob> job;
  };
  struct ActiveJob {
    JobId id = 0;
    std::string tenant;
    std::unique_ptr<ScheduledJob> job;
    uint32_t start_partition = 0;  // round boundary: cursor wrap to here
    uint64_t fixed_bytes = 0;
    uint64_t rounds = 0;
  };
  // Live per-tenant admission state, created lazily at first submission.
  struct Tenant {
    TenantQuota quota;
    double deficit = 0.0;  // fair-share credit; conserved across the map
    uint32_t queued = 0;
    uint32_t running = 0;
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t cancelled = 0;
  };
  struct Record {
    std::string name;
    std::string tenant;
    JobState state = JobState::kQueued;
    double submit_seconds = 0.0;
    double admit_seconds = 0.0;
    double finish_seconds = 0.0;
    uint64_t rounds = 0;
    uint32_t partitions_done = 0;  // mirrored from the driver at boundaries
  };

  // One partition boundary; runs with the driver role held, no lock except
  // where noted. Returns whether work may remain.
  bool Step();
  bool HasWorkLocked() const;
  void ApplyCancellations();
  void AdmitPending();
  bool StartRound(size_t index);
  bool EndRound(size_t index);
  void RetireActive(size_t index, JobState final_state);
  void ResplitBudget();
  JobReport ReportLocked(JobId id, const Record& rec) const;
  Tenant& TenantLocked(const std::string& name);

  ScanSource& source_;
  SchedulerOptions opts_;
  WallTimer clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool driving_ = false;
  std::deque<PendingJob> pending_;
  std::set<JobId> cancel_requests_;
  std::map<JobId, Record> records_;
  std::map<std::string, Tenant> tenants_;
  SchedulerStats stats_;
  uint64_t fixed_in_use_ = 0;
  // Mirrors active_.size() under mu_ so non-driving threads (PumpOne's
  // waiting branch) can ask "is work left?" without touching the vector the
  // driver mutates lock-free.
  size_t active_count_ = 0;
  JobId next_id_ = 1;

  // Touched only while holding the driver role.
  std::vector<ActiveJob> active_;
  uint32_t cursor_ = 0;
};

}  // namespace xstream

#endif  // XSTREAM_SCHEDULER_SCHEDULER_H_
