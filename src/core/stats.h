// Run statistics reported by both engines.
//
// These feed the evaluation directly: iteration counts, the wasted-edge
// percentage and the runtime/streaming ratio reproduce Fig 12b; device busy
// time yields the simulated runtimes of the out-of-core experiments.
#ifndef XSTREAM_CORE_STATS_H_
#define XSTREAM_CORE_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace xstream {

struct IterationStats {
  uint64_t iteration = 0;
  uint64_t edges_streamed = 0;
  uint64_t updates_generated = 0;
  uint64_t wasted_edges = 0;  // streamed edges that produced no update
  uint64_t vertices_changed = 0;  // gathers that mutated state
  // Updates gathered straight into the partition being scattered instead of
  // being written to its update file (out-of-core locality optimization;
  // counted inside updates_generated).
  uint64_t updates_absorbed = 0;
  double seconds = 0.0;
};

struct RunStats {
  uint64_t iterations = 0;
  uint64_t edges_streamed = 0;
  uint64_t updates_generated = 0;
  uint64_t wasted_edges = 0;
  uint64_t updates_absorbed = 0;  // see IterationStats::updates_absorbed
  uint64_t steals = 0;  // work items (scatter edge runs, gather partitions) stolen

  double setup_seconds = 0.0;      // partitioning the unordered edge list
  double compute_seconds = 0.0;    // wall time of the iteration loop
  double streaming_seconds = 0.0;  // time inside scatter/shuffle/gather
  // Multi-job scheduler runs: time between submission and admission (budget
  // slot + next partition boundary). Zero for solo engine runs.
  double queue_seconds = 0.0;

  // Out-of-core runs on SimDevices: max busy time across devices. The
  // modelled runtime is the max of compute wall time and device busy time
  // (prefetch keeps devices and CPU overlapped, §3.3).
  double sim_io_seconds = 0.0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // Peak bytes held in update files (out-of-core engine; TRIM ablation).
  uint64_t peak_update_bytes = 0;
  // Total bytes appended to update files over the run: the scatter->gather
  // traffic the streaming partitioner is trying to shrink (fig 27).
  uint64_t update_file_bytes = 0;
  // Update-file bytes submitted to the device's I/O thread without waiting
  // for completion (§3.3 compute/write overlap; fig 28). Zero when the
  // engine runs with async_spill off or never spills.
  uint64_t async_spill_bytes = 0;
  // Wall time the scatter path spent blocked on earlier spill writes (buffer
  // reuse waits plus the end-of-scatter drain). The overlap the async spill
  // pipeline buys shows up as this number shrinking.
  double spill_wait_seconds = 0.0;
  // Wall time the gather phase spent blocked on update-file reads that the
  // StreamReader prefetch had not finished — the read-side complement of
  // spill_wait_seconds.
  double gather_wait_seconds = 0.0;

  // Partially resident device engine: partitions the residency planner
  // pinned in RAM for the latest iteration, the planner-accounted bytes that
  // pinning holds resident (vertex states + worst-case update buffers), and
  // the device traffic the pins removed (vertex-file loads/stores skipped
  // plus update bytes kept in RAM instead of written to and read back from
  // update files). Zero on the in-memory engine and at pin budget 0.
  uint64_t resident_partition_count = 0;
  uint64_t resident_bytes = 0;
  uint64_t avoided_spill_bytes = 0;
  // Incremental residency (PlanDelta): pin-set migrations applied over the
  // run — partitions written back to the vertex files (evictions), loaded
  // into RAM pins (promotions), and the vertex-state bytes those migrations
  // moved in either direction. Full re-plans (hysteresis 0) count here too,
  // so the fig31 baseline comparison reads off the same counters.
  uint64_t evictions = 0;
  uint64_t promotions = 0;
  uint64_t migration_bytes = 0;
  // Edge-stream pinning (--pin-edges): bytes of partition edge streams
  // currently cached in RAM (a gauge; with the scheduler's shared cache
  // every attached job reports the one shared copy), and the cumulative
  // edge bytes served from that cache instead of the edge device.
  uint64_t pinned_edge_bytes = 0;
  uint64_t edge_reads_avoided_bytes = 0;

  std::vector<IterationStats> per_iteration;

  double WallSeconds() const { return setup_seconds + compute_seconds; }

  // Modelled end-to-end runtime (equals wall time for in-memory runs).
  double RuntimeSeconds() const { return std::max(WallSeconds(), sim_io_seconds); }

  // Fig 12b: "ratio of total execution time to streaming time".
  double StreamingRatio() const {
    double stream = std::max(streaming_seconds, sim_io_seconds);
    return stream > 0 ? RuntimeSeconds() / stream : 0.0;
  }

  // Fig 12b: "percentage of edges that were streamed and along which no
  // updates were sent".
  double WastedEdgePercent() const {
    return edges_streamed > 0
               ? 100.0 * static_cast<double>(wasted_edges) / static_cast<double>(edges_streamed)
               : 0.0;
  }

  // One JSON object holding every field above plus the derived ratios; the
  // schema is identical for all three engine modes (fields an engine does
  // not use are present as zeroes — tests/obs_test.cc pins this down). The
  // CLI's --stats-json=FILE writes exactly this. `include_iterations`
  // controls the "per_iteration" array (always present, possibly empty).
  std::string ToJson(bool include_iterations = true) const;

  // Mirrors every scalar field into the metrics registry under
  // `prefix + "."` (counters for counts/bytes, gauges for seconds and
  // residency levels) so run statistics appear in registry snapshots next
  // to the natively instrumented I/O and scheduler metrics.
  void PublishTo(const std::string& prefix) const;
};

}  // namespace xstream

#endif  // XSTREAM_CORE_STATS_H_
