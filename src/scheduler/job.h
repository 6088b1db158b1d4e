// ScheduledJob: one algorithm run inside the multi-job scheduler.
//
// The JobScheduler (scheduler.h) is algorithm- and store-agnostic: it drives
// jobs through this type-erased interface, one virtual call per partition
// chunk. TypedJob binds a concrete EdgeCentricAlgorithm and StreamStore pair
// to it by forwarding to the StreamingPhaseDriver's externally drivable
// scatter pieces (core/phase_runtime.h), so a job's per-round behavior —
// spills, absorption, gathers, checkpoints, stats — is byte-for-byte the
// machinery of a solo run; only the edge scan is shared.
#ifndef XSTREAM_SCHEDULER_JOB_H_
#define XSTREAM_SCHEDULER_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/algorithm.h"
#include "core/phase_runtime.h"
#include "core/stats.h"
#include "core/stream_store.h"
#include "graph/types.h"

namespace xstream {

enum class JobState {
  kQueued,     // submitted, waiting for a budget slot / the next boundary
  kRunning,    // admitted; participating in shared scans
  kDone,       // converged (or hit its iteration cap) and finalized
  kCancelled,  // cancelled before completion
};

inline const char* JobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

// The scheduler-facing surface of one job. All methods are called by
// whichever single thread is driving the scheduler (never concurrently), in
// the iteration protocol documented on StreamingPhaseDriver.
class ScheduledJob {
 public:
  virtual ~ScheduledJob() = default;

  virtual const std::string& name() const = 0;

  // Bytes this job holds in RAM for its whole life (vertex slabs, stream
  // buffers) — the admission price the scheduler charges against its memory
  // budget.
  virtual uint64_t FixedBytes() const = 0;

  // Pin-capable jobs (device stores with file-resident vertices and
  // destination tallies) additionally accept a share of the budget left
  // over after every active job's fixed footprint.
  virtual bool CanPin() const = 0;
  virtual void SetPinBudget(uint64_t bytes) = 0;

  // Admission: initialize vertex state. Runs once, before the first round.
  virtual void Activate() = 0;

  // One round = one full cycle over the partitions, in cyclic order from
  // `first_partition`. WantsPartition stays fixed through a round; a
  // partition it rejects is not visited.
  virtual void BeginRound(uint32_t first_partition) = 0;
  virtual bool WantsPartition(uint32_t s) const = 0;
  virtual void BeginScatterPartition(uint32_t s) = 0;
  virtual void ScatterChunk(const Edge* es, uint64_t n) = 0;
  virtual void EndScatterPartition() = 0;
  // Tail spill + gather; returns true when the job converged (no updates,
  // algorithm Done, or its iteration cap).
  virtual bool FinishRound() = 0;

  // Cancelled mid-round: abandon the half-done iteration, draining any
  // in-flight I/O so the job can be destroyed safely.
  virtual void Abandon() = 0;

  // Fold device counters and deliver results (runs once, after the last
  // round or not at all for cancelled jobs).
  virtual void Finalize() = 0;

  virtual RunStats& stats() = 0;
};

// Binds Algo x Store to the ScheduledJob interface. The `finalize` callback
// receives the driver (for VertexMap / VertexFold extraction) after the job
// converged.
template <EdgeCentricAlgorithm Algo, StreamStoreFor Store>
class TypedJob final : public ScheduledJob {
 public:
  using Driver = StreamingPhaseDriver<Algo, Store>;
  using Finalizer = std::function<void(Driver&, Algo&)>;

  TypedJob(std::string name, Algo algo, std::unique_ptr<Store> store,
           const PhaseDriverOptions& dopts, uint64_t max_iterations, Finalizer finalize)
      : name_(std::move(name)),
        algo_(std::move(algo)),
        store_(std::move(store)),
        driver_(std::make_unique<Driver>(*store_, dopts)),
        max_iterations_(max_iterations),
        finalize_(std::move(finalize)) {}

  ~TypedJob() override {
    // A job dropped mid-round (cancellation races, scheduler teardown) must
    // not leave I/O referencing the dying store.
    Abandon();
  }

  const std::string& name() const override { return name_; }

  uint64_t FixedBytes() const override { return store_->ResidentFootprintBytes(); }

  bool CanPin() const override {
    if constexpr (requires(const Store& s) { s.CanPin(); }) {
      return store_->CanPin();
    } else {
      return false;
    }
  }

  void SetPinBudget(uint64_t bytes) override {
    if constexpr (requires(Store& s, uint64_t b) { s.SetPinBudget(b); }) {
      store_->SetPinBudget(bytes);
    } else {
      (void)bytes;
    }
  }

  void Activate() override { driver_->InitVertices(algo_); }

  void BeginRound(uint32_t first_partition) override {
    driver_->BeginIterationScatter(algo_, first_partition);
    in_round_ = true;
  }

  bool WantsPartition(uint32_t s) const override { return driver_->PartitionNeedsScatter(s); }

  void BeginScatterPartition(uint32_t s) override { driver_->BeginScatterPartition(s); }

  void ScatterChunk(const Edge* es, uint64_t n) override { driver_->ScatterChunk(algo_, es, n); }

  void EndScatterPartition() override { driver_->EndScatterPartition(algo_); }

  bool FinishRound() override {
    IterationStats iter = driver_->FinishIterationScatter(algo_);
    in_round_ = false;
    if (iter.updates_generated == 0) {
      return true;
    }
    if constexpr (HasDone<Algo>) {
      if (algo_.Done(iter)) {
        return true;
      }
    }
    return driver_->stats().iterations >= max_iterations_;
  }

  void Abandon() override {
    if (in_round_) {
      driver_->CancelIterationScatter();
      in_round_ = false;
    }
  }

  void Finalize() override {
    driver_->FinalizeStats();
    if (finalize_) {
      finalize_(*driver_, algo_);
    }
  }

  RunStats& stats() override { return driver_->stats(); }

  Driver& driver() { return *driver_; }
  Store& store() { return *store_; }

 private:
  std::string name_;
  Algo algo_;
  std::unique_ptr<Store> store_;
  std::unique_ptr<Driver> driver_;
  uint64_t max_iterations_;
  Finalizer finalize_;
  bool in_round_ = false;
};

}  // namespace xstream

#endif  // XSTREAM_SCHEDULER_JOB_H_
