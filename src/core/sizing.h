// Partition-count and fanout selection (paper §2.4, §3.4, §4, §5.6).
//
// X-Stream "automatically picks the number of streaming partitions for
// in-memory and out-of-core graphs, using the amount of main memory and the
// cache size as inputs. It also automatically picks the shuffler fanout for
// in-memory graphs, using the number of cache lines as input." In memory the
// thread count and the edge count are inputs too: they decide how many
// partitions gather's work stealing (§4.1) needs.
#ifndef XSTREAM_CORE_SIZING_H_
#define XSTREAM_CORE_SIZING_H_

#include <cstddef>
#include <cstdint>
#include <optional>

namespace xstream {

// Edges in one in-memory scatter work item (core/phase_runtime.h): scatter
// hands out each partition's edges in runs of at most this many, so a
// partition holding a third of the edges still spreads over every thread.
inline constexpr uint64_t kScatterItemEdges = uint64_t{1} << 16;

// In-memory engine (§4): the number of partitions is a power of two chosen
// so that each partition's vertex *footprint* fits the per-core cache. The
// footprint counts vertex state plus one edge and one update per vertex-ish
// unit ("the sum of vertex data size, edge size and update size"), because
// streamed records must pass through the cache without evicting the states.
//
//   footprint = num_vertices * (state_bytes + edge_bytes + update_bytes)
//   cache rule = footprint / cache_bytes
//
// Gather stays one destination partition per work item, so a skewed graph
// needs more, smaller partitions than the cache rule asks for before every
// thread has items to steal (§4.1): the count is raised toward 16 per
// thread, but never past one scatter item of edges per partition, so small
// graphs keep the cache rule.
//
//   partitions = round_pow2_up(max(cache rule,
//                                  min(16 * threads, num_edges / kScatterItemEdges))),
//   clamped to [1, max_partitions].
uint32_t ChooseInMemoryPartitions(uint64_t num_vertices, size_t state_bytes, size_t edge_bytes,
                                  size_t update_bytes, size_t cache_bytes, int threads,
                                  uint64_t num_edges, uint32_t max_partitions = 1u << 20);

// Out-of-core engine (§3.4): with N = total vertex state bytes, M = memory
// budget and S = the I/O unit needed to reach streaming bandwidth, the
// partition count K must satisfy  N/K + 5*S*K <= M  (the vertex array of one
// partition plus 5 stream buffers of S*K bytes each). Returns the smallest
// viable K; aborts if none exists (memory budget too small — the minimum is
// 2*sqrt(5*N*S) at K = sqrt(N/(5S))).
uint32_t ChooseOutOfCorePartitions(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                                   size_t io_unit_bytes);

// True when some K in [1, 2^20] satisfies the §3.4 inequality.
bool OutOfCorePartitionsViable(uint64_t vertex_state_bytes, uint64_t memory_budget_bytes,
                               size_t io_unit_bytes);

// Hybrid engine residency budget (core/residency.h). Resolves the
// user-requested pin budget against the host: 0 means auto-detect (half of
// physical memory, falling back to 256 MB when the probe fails), and a
// request above the host's physical memory is clamped to it with a warning
// rather than aborting — an oversized budget is a plan that will thrash, not
// a programmer error.
uint64_t ResolveMemoryBudget(uint64_t requested_bytes);

// Multi-job scheduler budget (SchedulerOptions::memory_budget_bytes) for
// `--jobs` batches and xstream-serve, from an optional --memory-budget. Unset
// gives hybrid jobs the auto budget above, since a scheduler without a
// budget never hands its jobs pin budget, and gives every other engine 0
// (off). An explicit 0 is off; any other request is resolved as above.
uint64_t SchedulerMemoryBudget(std::optional<uint64_t> requested_bytes, bool hybrid);

// Multi-stage shuffler fanout (§4.2): the largest power of two not exceeding
// the number of cachelines in the cache (each output chunk needs a resident
// cacheline-sized cursor), capped at the partition count.
uint32_t ChooseShuffleFanout(uint32_t num_partitions, size_t cache_bytes,
                             size_t cacheline_bytes = 64);

// Per-thread staging size for the cache-aware single-stage shuffle (the
// --stage-bytes auto default): half the per-core cache, so the staging
// blocks and the partition-id side array coexist with the streamed records;
// clamped to [64 KB, 8 MB] against probe failures and giant L3-shared
// readings.
size_t DefaultShuffleStageBytes();

// Rounds up to a power of two (minimum 1).
uint32_t RoundUpPow2(uint64_t x);

}  // namespace xstream

#endif  // XSTREAM_CORE_SIZING_H_
