// ResidencyPlanner: which streaming partitions should live in RAM.
//
// X-Stream offers two extremes: the in-memory engine (everything resident)
// and the out-of-core engine (everything streamed from devices). The common
// case on real hardware sits between them — a graph slightly larger than
// RAM still has a working set that mostly fits. The device store
// (core/stream_store.h) keeps a chosen subset of partitions fully resident
// (vertex states pinned, incoming updates buffered in RAM, optionally the
// edge stream cached too) while the rest spill through the device path;
// this planner chooses that subset under a byte budget.
//
// The model is a density greedy over a knapsack: pinning partition p costs
// its vertex-state bytes plus a worst-case in-RAM update buffer (one update
// per incoming edge, shrinking to the observed update volume once the run
// supplies per-iteration feedback) plus — when edge pinning is on — its
// edge-stream bytes, and saves the per-iteration device traffic the pin
// removes: vertex-file loads/stores, the write+read of p's update stream,
// and (with edge pinning) the per-iteration edge-stream read. Partitions
// are pinned in decreasing saved-bytes-per-resident-byte order until the
// budget runs out; candidates that no longer fit are skipped, not terminal
// (a later, smaller partition may still fit). Greedy-by-density is the
// standard knapsack heuristic and is exact here in the fractional sense
// that matters: partition sizes are small relative to realistic budgets.
//
// Two planning modes:
//
//  * Plan() — the full solve: re-derives the pin set from scratch. Used at
//    setup and as the stop-the-world re-plan baseline.
//  * PlanDelta() — the incremental solve: diffs the full solve against the
//    current pin set and emits only the *stable* differences as an
//    evict/promote delta. A partition must win (or lose) its place for
//    `hysteresis` consecutive calls before it migrates, so a drifting
//    workload (a BFS/SSSP frontier sweeping through partitions) does not
//    thrash state between RAM and the vertex files every iteration. The
//    device store applies the delta one partition at a time, at partition
//    boundaries, instead of in a stop-the-world migration phase.
#ifndef XSTREAM_CORE_RESIDENCY_H_
#define XSTREAM_CORE_RESIDENCY_H_

#include <cstdint>
#include <vector>

#include "core/partition.h"

namespace xstream {

/// Planner inputs for one partition. All byte figures are per iteration
/// except the pinned costs (vertex_bytes, update_buffer_bytes, edge_bytes),
/// which are held for the whole run (or until the next re-plan).
/// Thread-safety: plain data; confine to one thread or copy.
struct PartitionResidencyStats {
  /// Pinned cost: the partition's vertex states, held resident.
  uint64_t vertex_bytes = 0;
  /// Pinned cost: worst-case in-RAM buffer for updates destined to this
  /// partition (one per incoming edge, or the observed volume on re-plans).
  uint64_t update_buffer_bytes = 0;
  /// Pinned cost: the partition's edge stream, when edge pinning is on
  /// (core/stream_store.h PinnedEdgeCache). Zero otherwise.
  uint64_t edge_bytes = 0;
  /// Per-iteration device traffic a pin removes: skipped vertex-file
  /// loads/stores, update bytes that never touch the update file, and (with
  /// edge pinning) the edge-stream read served from RAM.
  uint64_t avoided_bytes_per_iteration = 0;

  /// Accounted resident cost of pinning this partition.
  uint64_t cost() const { return vertex_bytes + update_buffer_bytes + edge_bytes; }
};

/// A pin set: which partitions live in RAM, plus the planner's accounting.
/// Thread-safety: plain data; confine to one thread or copy.
struct ResidencyPlan {
  std::vector<bool> resident;             // by partition id
  uint64_t resident_bytes = 0;            // accounted cost of the pin set
  uint64_t avoided_bytes_per_iteration = 0;  // planned savings of the pin set

  uint32_t resident_count() const {
    uint32_t n = 0;
    for (bool r : resident) {
      n += r ? 1 : 0;
    }
    return n;
  }
};

/// The incremental planning result: the partitions whose residency should
/// change now (hysteresis passed, budget respected) and the plan that holds
/// once every listed migration has been applied. Differences the hysteresis
/// filter is still sitting on are *not* listed — they stay where they are
/// and keep accumulating streak.
/// Thread-safety: plain data; confine to one thread or copy.
struct ResidencyDelta {
  std::vector<uint32_t> evict;    // currently resident, lost their place
  std::vector<uint32_t> promote;  // currently streamed, won a place
  ResidencyPlan plan;             // the pin set after applying evict+promote

  bool empty() const { return evict.empty() && promote.empty(); }
};

/// The shared pin-savings pricing: per iteration a pinned partition skips
/// the scatter-side vertex load, the gather-side load and the gather-side
/// store (~3x its states), keeps its update stream's write + read-back in
/// RAM (2x the crossing update bytes), and — when its edges are cached —
/// serves the per-iteration edge scan from RAM (1x its edge bytes).
/// Setup-time plans (edge-tally estimates) and re-plans (observed volumes)
/// must price identically or the two modes drift.
inline uint64_t PricePinSavings(uint64_t vertex_bytes, uint64_t crossing_update_bytes,
                                uint64_t edge_bytes = 0) {
  return vertex_bytes > 0 ? 3 * vertex_bytes + 2 * crossing_update_bytes + edge_bytes : 0;
}

/// Builds the planner inputs from a store's edge tallies: the destination
/// and same-partition counts are the per-partition decomposition of the
/// PartitionQuality edge cut — the locality signal the streaming
/// partitioners optimize. When absorption is on, updates local to their
/// source partition never hit the update file anyway, so only
/// cross-partition incoming edges count toward a pin's avoided traffic.
/// `pinned_edge_counts` (edges by source partition) is non-null when edge
/// pinning prices edge streams into the pin cost and savings.
/// Thread-safety: pure function of its inputs. Blocking: never.
std::vector<PartitionResidencyStats> BuildHybridPlanInputs(
    const PartitionLayout& layout, size_t vertex_state_bytes, size_t update_bytes,
    const std::vector<uint64_t>& dst_edge_counts,
    const std::vector<uint64_t>& local_edge_counts, bool absorb_local_updates,
    const std::vector<uint64_t>* pinned_edge_counts = nullptr);

/// Solves (fully or incrementally) the byte-budgeted pin set.
///
/// Thread-safety: NOT thread-safe. The planner carries hysteresis streak
/// state across PlanDelta calls; confine each instance to the single thread
/// that drives its store (the compute loop, or the scheduler's driver
/// thread). Plan() is logically const and touches no streak state.
/// Blocking: never blocks — pure in-memory computation, O(k log k).
class ResidencyPlanner {
 public:
  /// `budget_bytes` bounds the accounted cost of the pin set; it is a
  /// planning target, not an enforced allocation cap (an iteration that
  /// generates more updates than predicted grows a pinned buffer past its
  /// estimate rather than failing).
  explicit ResidencyPlanner(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Budgets move at runtime: the multi-job scheduler re-splits one memory
  /// budget across the active jobs as they come and go. Takes effect at the
  /// next Plan()/PlanDelta() call.
  void set_budget_bytes(uint64_t bytes) { budget_bytes_ = bytes; }

  /// Migration hysteresis for PlanDelta: a partition must win (or lose) its
  /// place in the target pin set for this many *consecutive* PlanDelta
  /// calls before the delta migrates it. 1 = migrate on the first call that
  /// disagrees (no damping); values are clamped to >= 1.
  void set_hysteresis(uint32_t k) { hysteresis_ = k > 0 ? k : 1; }
  uint32_t hysteresis() const { return hysteresis_; }

  /// Greedy full solve: decreasing avoided-per-resident-byte density,
  /// skipping candidates that exceed the remaining budget. Partitions with
  /// zero avoided bytes are never pinned (pinning them buys nothing). Does
  /// not read or advance the hysteresis streaks.
  ResidencyPlan Plan(const std::vector<PartitionResidencyStats>& partitions) const;

  /// Incremental solve: computes the full-solve target for `partitions`,
  /// advances the per-partition win/lose streaks against `current`, and
  /// returns the migrations whose streak reached the hysteresis threshold.
  /// Promotions are admitted in density order and only while they fit the
  /// budget next to what stays pinned — a promotion blocked by a loser the
  /// hysteresis is still holding keeps its streak and enters once the
  /// eviction lands. `force` bypasses the hysteresis (budget reassignments
  /// must take effect promptly) but still respects the budget.
  /// `current.resident` must describe the pin set all previously returned
  /// deltas produce once applied.
  ResidencyDelta PlanDelta(const ResidencyPlan& current,
                           const std::vector<PartitionResidencyStats>& partitions,
                           bool force = false);

 private:
  // Partition ids in decreasing avoided-per-cost density, ties to the lower
  // id (deterministic plans for equal inputs).
  std::vector<uint32_t> DensityOrder(
      const std::vector<PartitionResidencyStats>& partitions) const;

  // Plan() against a precomputed density order (PlanDelta computes the
  // order once and reuses it for the promotion loop).
  ResidencyPlan PlanWithOrder(const std::vector<PartitionResidencyStats>& partitions,
                              const std::vector<uint32_t>& order) const;

  uint64_t budget_bytes_;
  uint32_t hysteresis_ = 1;
  // PlanDelta streak state: how many consecutive calls partition p's target
  // residency has disagreed with the applied plan, and in which direction
  // (+1 wants promotion, -1 wants eviction). Reset on agreement, direction
  // change, or migration.
  std::vector<uint32_t> streak_;
  std::vector<int8_t> streak_dir_;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_RESIDENCY_H_
