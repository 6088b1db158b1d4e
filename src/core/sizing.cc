#include "core/sizing.h"

#include <algorithm>
#include <bit>

#include "util/env.h"
#include "util/logging.h"

namespace xstream {

size_t DefaultShuffleStageBytes() {
  return std::clamp<size_t>(PerCoreCacheBytes() / 2, size_t{64} << 10, size_t{8} << 20);
}

uint32_t RoundUpPow2(uint64_t x) {
  if (x <= 1) {
    return 1;
  }
  XS_CHECK_LE(x, uint64_t{1} << 31);
  return static_cast<uint32_t>(std::bit_ceil(x));
}

uint32_t ChooseInMemoryPartitions(uint64_t num_vertices, size_t state_bytes, size_t edge_bytes,
                                  size_t update_bytes, size_t cache_bytes, int threads,
                                  uint64_t num_edges, uint32_t max_partitions) {
  XS_CHECK_GT(cache_bytes, 0u);
  XS_CHECK_GT(threads, 0);
  uint64_t footprint =
      num_vertices * static_cast<uint64_t>(state_bytes + edge_bytes + update_bytes);
  uint64_t needed = (footprint + cache_bytes - 1) / cache_bytes;
  uint64_t balance =
      std::min<uint64_t>(16 * static_cast<uint64_t>(threads), num_edges / kScatterItemEdges);
  uint32_t k = RoundUpPow2(std::max<uint64_t>({1, needed, balance}));
  return std::min(k, std::max(1u, max_partitions));
}

bool OutOfCorePartitionsViable(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                               size_t io_unit_bytes) {
  for (uint64_t k = 1; k <= (uint64_t{1} << 20); k *= 2) {
    uint64_t need = vertex_state_bytes / k + 5 * io_unit_bytes * k;
    if (need <= memory_budget_bytes) {
      return true;
    }
  }
  return false;
}

uint32_t ChooseOutOfCorePartitions(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                                   size_t io_unit_bytes) {
  XS_CHECK_GT(io_unit_bytes, 0u);
  // Smallest K wins: fewer partitions means more sequential access (§2.4).
  // Linear scan is fine — K never exceeds a few thousand in practice.
  for (uint64_t k = 1; k <= (uint64_t{1} << 20); ++k) {
    uint64_t per_partition_vertices = (vertex_state_bytes + k - 1) / k;
    uint64_t need = per_partition_vertices + 5 * io_unit_bytes * k;
    if (need <= memory_budget_bytes) {
      return static_cast<uint32_t>(k);
    }
  }
  XS_CHECK(false) << "no viable out-of-core partition count: vertex bytes=" << vertex_state_bytes
                  << " budget=" << memory_budget_bytes << " io unit=" << io_unit_bytes
                  << " (minimum budget is 2*sqrt(5*N*S))";
  return 0;
}

uint64_t ResolveMemoryBudget(uint64_t requested_bytes) {
  uint64_t physical = PhysicalMemoryBytes();
  if (requested_bytes == 0) {
    return physical > 0 ? physical / 2 : 256ull << 20;
  }
  if (physical > 0 && requested_bytes > physical) {
    XS_LOG(Warning) << "memory budget " << requested_bytes
                    << " exceeds physical memory " << physical << "; clamping";
    return physical;
  }
  return requested_bytes;
}

uint64_t SchedulerMemoryBudget(std::optional<uint64_t> requested_bytes, bool hybrid) {
  if (!requested_bytes.has_value()) {
    return hybrid ? ResolveMemoryBudget(0) : 0;
  }
  return *requested_bytes > 0 ? ResolveMemoryBudget(*requested_bytes) : 0;
}

uint32_t ChooseShuffleFanout(uint32_t num_partitions, size_t cache_bytes,
                             size_t cacheline_bytes) {
  XS_CHECK_GT(cacheline_bytes, 0u);
  uint64_t lines = std::max<uint64_t>(2, cache_bytes / cacheline_bytes);
  uint32_t fanout = std::bit_floor(static_cast<uint32_t>(std::min<uint64_t>(lines, 1u << 30)));
  // Fanout above the partition count buys nothing.
  return std::min(fanout, std::max(2u, RoundUpPow2(num_partitions)));
}

}  // namespace xstream
