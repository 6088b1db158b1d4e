#include "core/residency.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace xstream {

std::vector<uint32_t> ResidencyPlanner::DensityOrder(
    const std::vector<PartitionResidencyStats>& partitions) const {
  std::vector<uint32_t> order(partitions.size());
  std::iota(order.begin(), order.end(), 0u);
  // Density = avoided / cost, compared cross-multiplied so the order is
  // exact in integers. An empty partition (cost 0) with savings sorts first
  // and costs nothing to pin; ties break to the lower partition id so equal
  // inputs always produce equal plans.
  std::stable_sort(order.begin(), order.end(), [&partitions](uint32_t a, uint32_t b) {
    uint64_t ca = partitions[a].cost();
    uint64_t cb = partitions[b].cost();
    __uint128_t lhs = static_cast<__uint128_t>(partitions[a].avoided_bytes_per_iteration) *
                      (cb > 0 ? cb : 1);
    __uint128_t rhs = static_cast<__uint128_t>(partitions[b].avoided_bytes_per_iteration) *
                      (ca > 0 ? ca : 1);
    if (lhs != rhs) {
      return lhs > rhs;
    }
    return a < b;
  });
  return order;
}

ResidencyPlan ResidencyPlanner::Plan(
    const std::vector<PartitionResidencyStats>& partitions) const {
  return PlanWithOrder(partitions, DensityOrder(partitions));
}

ResidencyPlan ResidencyPlanner::PlanWithOrder(
    const std::vector<PartitionResidencyStats>& partitions,
    const std::vector<uint32_t>& order) const {
  ResidencyPlan plan;
  plan.resident.assign(partitions.size(), false);
  if (budget_bytes_ == 0 || partitions.empty()) {
    return plan;
  }

  uint64_t remaining = budget_bytes_;
  for (uint32_t p : order) {
    if (partitions[p].avoided_bytes_per_iteration == 0) {
      continue;  // nothing to save; the rest of the order may still fit
    }
    uint64_t c = partitions[p].cost();
    if (c > remaining) {
      continue;  // skip, don't stop: smaller candidates may follow
    }
    plan.resident[p] = true;
    plan.resident_bytes += c;
    plan.avoided_bytes_per_iteration += partitions[p].avoided_bytes_per_iteration;
    remaining -= c;
  }
  return plan;
}

ResidencyDelta ResidencyPlanner::PlanDelta(
    const ResidencyPlan& current, const std::vector<PartitionResidencyStats>& partitions,
    bool force) {
  const size_t k = partitions.size();
  if (streak_.size() != k) {
    streak_.assign(k, 0);
    streak_dir_.assign(k, 0);
  }

  ResidencyDelta delta;
  delta.plan.resident.assign(k, false);
  for (size_t p = 0; p < k && p < current.resident.size(); ++p) {
    delta.plan.resident[p] = current.resident[p];
  }

  // One density sort serves both the target solve and the promotion loop.
  std::vector<uint32_t> order = DensityOrder(partitions);
  ResidencyPlan target = PlanWithOrder(partitions, order);

  // Advance the win/lose streaks: a partition streaks only while the target
  // keeps disagreeing with the applied plan in the same direction.
  for (uint32_t p = 0; p < k; ++p) {
    bool have = delta.plan.resident[p];
    bool want = target.resident[p];
    if (want == have) {
      streak_[p] = 0;
      streak_dir_[p] = 0;
      continue;
    }
    int8_t dir = want ? int8_t{1} : int8_t{-1};
    if (streak_dir_[p] == dir) {
      ++streak_[p];
    } else {
      streak_dir_[p] = dir;
      streak_[p] = 1;
    }
  }

  auto eligible = [&](uint32_t p) { return force || streak_[p] >= hysteresis_; };

  // Evictions first: they free budget the promotions below may need.
  for (uint32_t p = 0; p < k; ++p) {
    if (delta.plan.resident[p] && !target.resident[p] && eligible(p)) {
      delta.evict.push_back(p);
      delta.plan.resident[p] = false;
      streak_[p] = 0;
      streak_dir_[p] = 0;
    }
  }

  uint64_t used = 0;
  for (uint32_t p = 0; p < k; ++p) {
    if (delta.plan.resident[p]) {
      used += partitions[p].cost();
    }
  }

  // Promotions in density order, admitted only while they fit next to what
  // stays pinned. A winner blocked by a loser the hysteresis still protects
  // keeps its streak (not reset) and enters once the eviction lands.
  for (uint32_t p : order) {
    if (delta.plan.resident[p] || !target.resident[p] || !eligible(p)) {
      continue;
    }
    uint64_t c = partitions[p].cost();
    if (used + c > budget_bytes_) {
      continue;  // no room yet; streak survives for the next call
    }
    delta.promote.push_back(p);
    delta.plan.resident[p] = true;
    used += c;
    streak_[p] = 0;
    streak_dir_[p] = 0;
  }

  for (uint32_t p = 0; p < k; ++p) {
    if (delta.plan.resident[p]) {
      delta.plan.resident_bytes += partitions[p].cost();
      delta.plan.avoided_bytes_per_iteration += partitions[p].avoided_bytes_per_iteration;
    }
  }
  return delta;
}

std::vector<PartitionResidencyStats> BuildHybridPlanInputs(
    const PartitionLayout& layout, size_t vertex_state_bytes, size_t update_bytes,
    const std::vector<uint64_t>& dst_edge_counts,
    const std::vector<uint64_t>& local_edge_counts, bool absorb_local_updates,
    const std::vector<uint64_t>* pinned_edge_counts) {
  uint32_t k = layout.num_partitions();
  XS_CHECK_EQ(dst_edge_counts.size(), size_t{k});
  XS_CHECK_EQ(local_edge_counts.size(), size_t{k});
  std::vector<PartitionResidencyStats> inputs(k);
  for (uint32_t p = 0; p < k; ++p) {
    uint64_t vbytes = layout.Size(p) * vertex_state_bytes;
    // Worst case one update per incoming edge: the RAM buffer a pin must be
    // prepared to hold.
    uint64_t buffer = dst_edge_counts[p] * update_bytes;
    // Updates already absorbed into the scatter partition's shadow never hit
    // the update file, so with absorption on only cross-partition incoming
    // edges count toward the traffic a pin avoids.
    uint64_t crossing = absorb_local_updates
                            ? dst_edge_counts[p] - local_edge_counts[p]
                            : dst_edge_counts[p];
    // Edge pinning: the pin additionally holds the partition's edge stream
    // and saves its per-iteration device read.
    uint64_t ebytes =
        pinned_edge_counts != nullptr ? (*pinned_edge_counts)[p] * sizeof(Edge) : 0;
    inputs[p].vertex_bytes = vbytes;
    inputs[p].update_buffer_bytes = buffer;
    inputs[p].edge_bytes = ebytes;
    inputs[p].avoided_bytes_per_iteration =
        PricePinSavings(vbytes, crossing * update_bytes, ebytes);
  }
  return inputs;
}

}  // namespace xstream
