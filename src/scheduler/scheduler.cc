#include "scheduler/scheduler.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/logging.h"

namespace xstream {

std::string JobReportsToJson(const std::vector<JobReport>& reports) {
  JsonWriter w;
  w.BeginArray();
  for (const JobReport& r : reports) {
    w.BeginObject();
    w.Field("id", r.id);
    w.Field("name", std::string_view(r.name));
    w.Field("tenant", std::string_view(r.tenant));
    w.Field("state", std::string_view(JobStateName(r.state)));
    w.Field("rounds", r.rounds);
    w.Field("partitions_done", static_cast<uint64_t>(r.partitions_done));
    w.Field("partitions_total", static_cast<uint64_t>(r.partitions_total));
    w.Field("queue_seconds", r.queue_seconds);
    w.Field("run_seconds", r.run_seconds);
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

JobScheduler::JobScheduler(ScanSource& source, SchedulerOptions opts)
    : source_(source), opts_(opts) {}

JobScheduler::~JobScheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    XS_CHECK(!driving_) << "JobScheduler destroyed while a thread is driving it";
  }
  for (ActiveJob& aj : active_) {
    aj.job->Abandon();
  }
}

JobScheduler::Tenant& JobScheduler::TenantLocked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant t;
    auto configured = opts_.tenants.find(name);
    t.quota = configured != opts_.tenants.end() ? configured->second : opts_.default_quota;
    if (!(t.quota.weight > 0.0)) {
      t.quota.weight = 1.0;  // a zero/negative weight would wedge fair share
    }
    it = tenants_.emplace(name, std::move(t)).first;
  }
  return it->second;
}

JobId JobScheduler::Submit(std::unique_ptr<ScheduledJob> job) {
  SubmitOutcome outcome = TrySubmit(std::move(job), "");
  XS_CHECK(outcome.accepted) << "Submit rejected: " << outcome.reason
                             << " (use TrySubmit for quota-bearing tenants)";
  return outcome.id;
}

SubmitOutcome JobScheduler::TrySubmit(std::unique_ptr<ScheduledJob> job,
                                      const std::string& tenant) {
  XS_CHECK(job != nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  Tenant& t = TenantLocked(tenant);
  SubmitOutcome outcome;
  if (t.quota.max_queued > 0 && t.queued >= t.quota.max_queued) {
    outcome.reason = "tenant queue full (" + std::to_string(t.quota.max_queued) + " queued)";
  } else if (t.quota.memory_share > 0.0 && opts_.memory_budget_bytes > 0) {
    uint64_t cap = static_cast<uint64_t>(t.quota.memory_share *
                                         static_cast<double>(opts_.memory_budget_bytes));
    uint64_t fixed = job->FixedBytes();
    if (fixed > cap) {
      outcome.reason = "job fixed footprint " + std::to_string(fixed) +
                       "B exceeds tenant memory share " + std::to_string(cap) + "B";
    }
  }
  if (!outcome.reason.empty()) {
    ++t.rejected;
    ++stats_.jobs_rejected;
    obs::MetricsRegistry::Global().counter("scheduler.jobs_rejected").Add();
    return outcome;  // job destroyed on return
  }
  JobId id = next_id_++;
  Record rec;
  rec.name = job->name();
  rec.tenant = tenant;
  rec.state = JobState::kQueued;
  rec.submit_seconds = clock_.Seconds();
  records_.emplace(id, std::move(rec));
  pending_.push_back(PendingJob{id, tenant, std::move(job)});
  ++t.queued;
  ++t.submitted;
  ++stats_.jobs_submitted;
  cv_.notify_all();
  outcome.accepted = true;
  outcome.id = id;
  return outcome;
}

JobState JobScheduler::Poll(JobId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = records_.find(id);
  XS_CHECK(it != records_.end()) << "unknown job id " << id;
  return it->second.state;
}

void JobScheduler::Cancel(JobId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = records_.find(id);
  if (it == records_.end() || it->second.state == JobState::kDone ||
      it->second.state == JobState::kCancelled) {
    return;
  }
  cancel_requests_.insert(id);
}

bool JobScheduler::Wait(JobId id) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = records_.find(id);
      XS_CHECK(it != records_.end()) << "unknown job id " << id;
      if (it->second.state == JobState::kDone) {
        return true;
      }
      if (it->second.state == JobState::kCancelled) {
        return false;
      }
    }
    PumpOne();
  }
}

void JobScheduler::RunAll() {
  while (PumpOne()) {
  }
}

bool JobScheduler::PumpOne() {
  std::unique_lock<std::mutex> lk(mu_);
  if (driving_) {
    // Another thread owns the rounds; wait for its boundary to land rather
    // than interleaving two drivers. active_ itself belongs to the driver,
    // so the work check reads the mu_-mirrored count.
    cv_.wait(lk);
    return HasWorkLocked();
  }
  driving_ = true;
  lk.unlock();
  bool more;
  try {
    more = Step();
  } catch (...) {
    // A job's I/O error (spill writes propagate by design) must release the
    // driver role, or every later PumpOne/Wait blocks forever and the
    // destructor aborts on its driving_ check.
    lk.lock();
    driving_ = false;
    cv_.notify_all();
    throw;
  }
  lk.lock();
  driving_ = false;
  cv_.notify_all();
  return more;
}

bool JobScheduler::HasWorkLocked() const {
  return !pending_.empty() || !cancel_requests_.empty() || active_count_ > 0;
}

SchedulerStats JobScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SchedulerStats snapshot = stats_;
  snapshot.edge_reads_avoided_bytes = source_.EdgeReadsAvoidedBytes();
  return snapshot;
}

std::vector<TenantStats> JobScheduler::tenant_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStats s;
    s.tenant = name;
    s.weight = t.quota.weight;
    s.deficit = t.deficit;
    s.queued = t.queued;
    s.running = t.running;
    s.submitted = t.submitted;
    s.rejected = t.rejected;
    s.completed = t.completed;
    s.cancelled = t.cancelled;
    out.push_back(std::move(s));
  }
  return out;
}

JobReport JobScheduler::ReportLocked(JobId id, const Record& rec) const {
  JobReport report;
  report.id = id;
  report.name = rec.name;
  report.tenant = rec.tenant;
  report.state = rec.state;
  report.rounds = rec.rounds;
  report.partitions_done = rec.partitions_done;
  report.partitions_total = source_.layout().num_partitions();
  double now = clock_.Seconds();
  switch (rec.state) {
    case JobState::kQueued:
      report.queue_seconds = now - rec.submit_seconds;
      break;
    case JobState::kRunning:
      report.queue_seconds = rec.admit_seconds - rec.submit_seconds;
      report.run_seconds = now - rec.admit_seconds;
      break;
    case JobState::kDone:
      report.queue_seconds = rec.admit_seconds - rec.submit_seconds;
      report.run_seconds = rec.finish_seconds - rec.admit_seconds;
      break;
    case JobState::kCancelled:
      // A job cancelled while queued never ran.
      if (rec.admit_seconds > 0.0) {
        report.queue_seconds = rec.admit_seconds - rec.submit_seconds;
        report.run_seconds = rec.finish_seconds - rec.admit_seconds;
      } else {
        report.queue_seconds = rec.finish_seconds - rec.submit_seconds;
      }
      break;
  }
  return report;
}

JobReport JobScheduler::report(JobId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = records_.find(id);
  XS_CHECK(it != records_.end()) << "unknown job id " << id;
  return ReportLocked(id, it->second);
}

std::vector<JobReport> JobScheduler::reports() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<JobReport> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) {
    out.push_back(ReportLocked(id, rec));
  }
  return out;
}

void JobScheduler::ApplyCancellations() {
  std::vector<std::unique_ptr<ScheduledJob>> doomed;
  std::vector<JobId> active_cancels;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (JobId id : cancel_requests_) {
      auto pending = std::find_if(pending_.begin(), pending_.end(),
                                  [id](const PendingJob& p) { return p.id == id; });
      if (pending != pending_.end()) {
        Tenant& t = TenantLocked(pending->tenant);
        --t.queued;
        ++t.cancelled;
        doomed.push_back(std::move(pending->job));
        pending_.erase(pending);
        Record& rec = records_[id];
        rec.state = JobState::kCancelled;
        rec.finish_seconds = clock_.Seconds();
        ++stats_.jobs_cancelled;
      } else {
        active_cancels.push_back(id);
      }
    }
    cancel_requests_.clear();
  }
  for (JobId id : active_cancels) {
    auto it = std::find_if(active_.begin(), active_.end(),
                           [id](const ActiveJob& a) { return a.id == id; });
    if (it != active_.end()) {
      RetireActive(static_cast<size_t>(it - active_.begin()), JobState::kCancelled);
    }
  }
}

void JobScheduler::AdmitPending() {
  std::vector<PendingJob> admitted;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // One admission slot per loop iteration: deposit 1.0 credit split by
    // weight across the eligible waiting tenants, then the largest deficit
    // admits its oldest job and pays the full 1.0. Deposits equal charges,
    // so deficits are conserved and long-run shares match the weights.
    while (!pending_.empty()) {
      if (opts_.max_active_jobs > 0 &&
          active_count_ + admitted.size() >= opts_.max_active_jobs) {
        break;
      }
      // Each waiting tenant's candidate is its oldest pending job (emplace
      // keeps the first, i.e. lowest, index per tenant).
      std::map<std::string, size_t> fronts;
      for (size_t i = 0; i < pending_.size(); ++i) {
        fronts.emplace(pending_[i].tenant, i);
      }
      double eligible_weight = 0.0;
      std::vector<std::pair<std::string, size_t>> eligible;
      for (const auto& [name, idx] : fronts) {
        Tenant& t = TenantLocked(name);
        if (t.quota.max_running > 0 && t.running >= t.quota.max_running) {
          continue;  // quota-blocked tenants sit out the slot (and its credit)
        }
        uint64_t fixed = pending_[idx].job->FixedBytes();
        bool fits = opts_.memory_budget_bytes == 0 ||
                    fixed_in_use_ + fixed <= opts_.memory_budget_bytes;
        if (!fits) {
          continue;
        }
        eligible.emplace_back(name, idx);
        eligible_weight += t.quota.weight;
      }
      size_t pick = pending_.size();
      if (eligible.empty()) {
        // Nothing fits. With jobs running (or already admitted this
        // boundary) the waiters simply try again at the next boundary; with
        // the scheduler otherwise idle, refusing would deadlock the queue,
        // so the oldest quota-free job is admitted over budget (the
        // pre-tenant "big job alone" escape hatch, warning preserved).
        if (active_count_ + admitted.size() > 0) {
          break;
        }
        for (size_t i = 0; i < pending_.size(); ++i) {
          Tenant& t = TenantLocked(pending_[i].tenant);
          if (t.quota.max_running > 0 && t.running >= t.quota.max_running) {
            continue;
          }
          pick = i;
          break;
        }
        if (pick == pending_.size()) {
          break;  // every tenant is at max_running with nothing active: impossible
                  // to make progress here, retirements will reopen slots
        }
        XS_LOG(Warning) << "job '" << pending_[pick].job->name() << "' fixed footprint "
                        << pending_[pick].job->FixedBytes()
                        << "B exceeds the scheduler budget " << opts_.memory_budget_bytes
                        << "B; admitting it alone";
      } else {
        const std::string* best = nullptr;
        for (const auto& [name, idx] : eligible) {
          Tenant& t = TenantLocked(name);
          t.deficit += t.quota.weight / eligible_weight;
          // Ties break toward the oldest waiting job, keeping single-tenant
          // workloads exactly FIFO.
          if (best == nullptr || t.deficit > tenants_.at(*best).deficit ||
              (t.deficit == tenants_.at(*best).deficit && idx < pick)) {
            best = &name;
            pick = idx;
          }
        }
        tenants_.at(*best).deficit -= 1.0;
      }
      Tenant& t = TenantLocked(pending_[pick].tenant);
      --t.queued;
      ++t.running;
      fixed_in_use_ += pending_[pick].job->FixedBytes();
      admitted.push_back(std::move(pending_[pick]));
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
  if (admitted.empty()) {
    return;
  }
  size_t first_new = active_.size();
  for (PendingJob& p : admitted) {
    obs::TraceSpan span("admission", "scheduler", -1, p.job->name());
    uint64_t fixed = p.job->FixedBytes();
    p.job->Activate();
    double now = clock_.Seconds();
    {
      std::lock_guard<std::mutex> lk(mu_);
      Record& rec = records_[p.id];
      rec.state = JobState::kRunning;
      rec.admit_seconds = now;
      p.job->stats().queue_seconds = now - rec.submit_seconds;
      obs::MetricsRegistry::Global()
          .histogram("scheduler.queue_seconds")
          .Observe(now - rec.submit_seconds);
      ++active_count_;
    }
    obs::MetricsRegistry::Global().counter("scheduler.jobs_admitted").Add();
    active_.push_back(ActiveJob{p.id, std::move(p.tenant), std::move(p.job), cursor_, fixed, 0});
  }
  // Split the budget before the newcomers' first BeginRound so their share
  // lands on iteration 1 (already running jobs pick theirs up at their next
  // boundary).
  ResplitBudget();
  for (size_t i = first_new; i < active_.size();) {
    if (StartRound(i) || !EndRound(i)) {
      ++i;
    }
  }
}

// Begins job `index`'s next round at its start partition (the cursor: a
// round always begins at the job's own boundary). Returns whether the round
// wants any partition.
bool JobScheduler::StartRound(size_t index) {
  ActiveJob& aj = active_[index];
  aj.job->BeginRound(aj.start_partition);
  for (uint32_t s = 0; s < source_.layout().num_partitions(); ++s) {
    if (aj.job->WantsPartition(s)) {
      return true;
    }
  }
  return false;
}

// Ends job `index`'s round (tail spill + gather), then retires the job or
// begins its next round. A round that wants no partition would scan nothing
// and leave the vertex states as they are, so it ends here at once instead
// of waiting out a cycle of scans run for other jobs — and, generating no
// update, retires the job. Returns true when the job retired (`index` then
// names the next active job).
bool JobScheduler::EndRound(size_t index) {
  do {
    ActiveJob& aj = active_[index];
    bool done = aj.job->FinishRound();
    ++aj.rounds;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.rounds_completed;
      records_[aj.id].rounds = aj.rounds;
    }
    if (done) {
      RetireActive(index, JobState::kDone);
      return true;
    }
  } while (!StartRound(index));
  return false;
}

void JobScheduler::RetireActive(size_t index, JobState final_state) {
  ActiveJob aj = std::move(active_[static_cast<size_t>(index)]);
  active_.erase(active_.begin() + static_cast<ptrdiff_t>(index));
  obs::TraceSpan span("retirement", "scheduler", -1, aj.job->name());
  obs::MetricsRegistry::Global().counter("scheduler.jobs_retired").Add();
  if (final_state == JobState::kDone) {
    aj.job->Finalize();
  } else {
    aj.job->Abandon();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    Record& rec = records_[aj.id];
    rec.state = final_state;
    rec.finish_seconds = clock_.Seconds();
    rec.rounds = aj.rounds;
    if (final_state == JobState::kDone) {
      // Terminal reports read "full cycle", not the wrapped-to-zero cursor.
      rec.partitions_done = source_.layout().num_partitions();
    }
    fixed_in_use_ -= std::min(fixed_in_use_, aj.fixed_bytes);
    --active_count_;
    // Quota release: the tenant's running slot frees here, at retirement,
    // so a follow-on job can admit at this very boundary.
    Tenant& t = TenantLocked(aj.tenant);
    --t.running;
    if (final_state == JobState::kDone) {
      ++stats_.jobs_completed;
      ++t.completed;
    } else {
      ++stats_.jobs_cancelled;
      ++t.cancelled;
    }
  }
  ResplitBudget();
}

void JobScheduler::ResplitBudget() {
  if (opts_.memory_budget_bytes == 0) {
    return;  // unlimited: jobs keep their own configured pin budgets
  }
  uint64_t pin_capable = 0;
  for (const ActiveJob& aj : active_) {
    pin_capable += aj.job->CanPin() ? 1 : 0;
  }
  if (pin_capable == 0) {
    return;
  }
  uint64_t pool = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The shared pinned-edge cache is NOT subtracted here: every pinning
    // job prices edge bytes into its own plan, so the pin-budget shares
    // already bound the cache. Charging it again would double-count and
    // form a budget/cache feedback loop.
    pool = opts_.memory_budget_bytes > fixed_in_use_
               ? opts_.memory_budget_bytes - fixed_in_use_
               : 0;
    ++stats_.budget_resplits;
  }
  obs::MetricsRegistry::Global().counter("scheduler.budget_resplits").Add();
  // Each share lands as a forced PlanDelta at the job's next iteration
  // boundary: only the partitions the new budget flips migrate, one at a
  // time at their scatter boundaries (DeviceStreamStore::SetPinBudget).
  for (ActiveJob& aj : active_) {
    if (aj.job->CanPin()) {
      aj.job->SetPinBudget(pool / pin_capable);
    }
  }
}

bool JobScheduler::Step() {
  ApplyCancellations();
  AdmitPending();
  if (active_.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    return HasWorkLocked();
  }


  // --- The shared scan of one partition: read each chunk once, fan it out
  // to every job that takes part this round.
  uint32_t k = source_.layout().num_partitions();
  uint32_t s = cursor_;
  std::vector<ActiveJob*> participants;
  participants.reserve(active_.size());
  for (ActiveJob& aj : active_) {
    if (aj.job->WantsPartition(s)) {
      participants.push_back(&aj);
    }
  }
  if (!participants.empty()) {
    for (ActiveJob* aj : participants) {
      aj->job->BeginScatterPartition(s);
    }
    source_.ForEachEdgeChunk(s, [&participants](const Edge* es, uint64_t n) {
      for (ActiveJob* aj : participants) {
        aj->job->ScatterChunk(es, n);
      }
    });
    for (ActiveJob* aj : participants) {
      aj->job->EndScatterPartition();
    }
    uint64_t bytes = source_.PartitionEdgeBytes(s);
    obs::MetricGroup sched(obs::MetricsRegistry::Global(), "scheduler");
    sched.counter("partition_scans").Add();
    sched.counter("scans_saved").Add(participants.size() - 1);
    sched.counter("saved_scan_bytes").Add(bytes * (participants.size() - 1));
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.partition_scans;
    stats_.shared_scan_bytes += bytes;
    stats_.scans_saved += participants.size() - 1;
    stats_.saved_scan_bytes += bytes * (participants.size() - 1);
  }
  cursor_ = (s + 1) % k;

  // --- Live progress: how far each active job's round has come through the
  // partition cycle, mirrored under mu_ so reports()/GET /jobs see it
  // mid-round. A job that just wrapped reads 0 here; the boundary loop
  // below immediately folds that wrap into its round count.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const ActiveJob& aj : active_) {
      records_[aj.id].partitions_done = (cursor_ + k - aj.start_partition) % k;
    }
  }

  // --- Round boundaries: jobs whose cycle wrapped finish their iteration
  // (tail spill + gather) and either retire or begin the next round.
  for (size_t i = 0; i < active_.size();) {
    if (active_[i].start_partition != cursor_ || !EndRound(i)) {
      ++i;
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  return HasWorkLocked();
}

}  // namespace xstream
