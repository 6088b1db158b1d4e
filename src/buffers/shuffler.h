// Parallel multi-stage shuffler (paper §3.1 "In-memory Data Structures" and
// §4.2 "Parallel Multistage Shuffler").
//
// A shuffle step groups records by target partition without ordering them —
// a counting pass, an offset pass, and a copy pass. For large partition
// counts a single step loses cache locality (one output cursor per
// partition), so partitions are grouped into a tree with fanout F and one
// shuffle step runs per tree level, addressed by the most significant bits
// of the partition id. Two buffers alternate between input and output roles.
//
// Parallelism follows Fig 7: the record range is split into one slice per
// thread; each thread shuffles only its own slice and maintains a private
// index array, so no synchronization is needed inside a stage. The chunk for
// partition p is the union of each slice's chunk p.
//
// The in-memory engine does the tree's first level during scatter
// (BucketedAppender, threads/concurrent_appender.h) and hands the resulting
// per-thread bucket chunks to ShuffleLevels for the levels below it.
#ifndef XSTREAM_BUFFERS_SHUFFLER_H_
#define XSTREAM_BUFFERS_SHUFFLER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "buffers/stream_buffer.h"
#include "obs/metrics.h"
#include "threads/thread_pool.h"
#include "util/logging.h"

namespace xstream {

// Result of a shuffle: which buffer the records ended in, plus per-slice,
// per-partition chunk index arrays (record units).
template <typename Record>
struct ShuffleOutput {
  Record* data = nullptr;  // final resting buffer (== a or b passed in)
  uint32_t num_partitions = 0;
  int stages_run = 0;
  // chunk for partition p contributed by slice s: slices[s][p].
  std::vector<std::vector<ChunkRef>> slices;

  uint64_t PartitionRecords(uint32_t p) const {
    uint64_t total = 0;
    for (const auto& s : slices) {
      total += s[p].count;
    }
    return total;
  }

  uint64_t TotalRecords() const {
    uint64_t total = 0;
    for (const auto& s : slices) {
      for (const auto& c : s) {
        total += c.count;
      }
    }
    return total;
  }
};

inline uint32_t CeilLog2(uint32_t x) {
  XS_CHECK_GT(x, 0u);
  return x <= 1 ? 0 : 32u - static_cast<uint32_t>(std::countl_zero(x - 1));
}

// Partition ids must fit the staged path's uint16_t side array.
inline constexpr uint32_t kMaxStagedPartitions = 65535;

// Cache-aware single-stage shuffle (--stage-bytes): produces byte-identical
// output to the generic fused loop in ShuffleRecords, with two changes to
// memory behavior. First, part_of — a random lookup under a mapped layout —
// runs once per record instead of twice: a radix pass stores each record's
// partition in a uint16_t side array, unrolled into four independent lanes
// so the compiler can vectorize it (SWAR on the range layout's divide).
// Second, records are scattered through per-partition staging blocks sized
// so all K blocks fit in stage_bytes (~L2); a full block flushes to its
// destination cursor with one streaming memcpy, so the big destination
// buffer sees K sequential write streams instead of K random cursors.
// `src` may hold another record type than `dst` (see ShuffleRecordsFrom);
// each record is converted as it is staged.
template <typename In, typename Record, typename PartOf>
void StagedSingleStageShuffle(ThreadPool& pool, const In* src, Record* dst,
                              const std::vector<uint64_t>& slice_begin, uint32_t num_partitions,
                              PartOf part_of, size_t stage_bytes,
                              std::vector<std::vector<ChunkRef>>& slices) {
  const uint32_t K = num_partitions;
  const size_t block_records = std::max<size_t>(1, stage_bytes / K / sizeof(Record));
  pool.RunOnAll([&](int tid) {
    const uint64_t begin = slice_begin[static_cast<size_t>(tid)];
    const uint64_t n = slice_begin[static_cast<size_t>(tid) + 1] - begin;
    const In* in = src + begin;
    auto& my_chunks = slices[static_cast<size_t>(tid)];
    my_chunks.assign(K, ChunkRef{});

    std::vector<uint16_t> pid(n);
    std::vector<uint64_t> counts(K, 0);
    uint64_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const uint32_t p0 = static_cast<uint32_t>(part_of(in[i]));
      const uint32_t p1 = static_cast<uint32_t>(part_of(in[i + 1]));
      const uint32_t p2 = static_cast<uint32_t>(part_of(in[i + 2]));
      const uint32_t p3 = static_cast<uint32_t>(part_of(in[i + 3]));
      pid[i] = static_cast<uint16_t>(p0);
      pid[i + 1] = static_cast<uint16_t>(p1);
      pid[i + 2] = static_cast<uint16_t>(p2);
      pid[i + 3] = static_cast<uint16_t>(p3);
      ++counts[p0];
      ++counts[p1];
      ++counts[p2];
      ++counts[p3];
    }
    for (; i < n; ++i) {
      const uint32_t p = static_cast<uint32_t>(part_of(in[i]));
      pid[i] = static_cast<uint16_t>(p);
      ++counts[p];
    }

    // Same node-major cursor assignment as the generic path.
    std::vector<uint64_t> positions(K);
    uint64_t cursor = begin;
    for (uint32_t p = 0; p < K; ++p) {
      my_chunks[p] = ChunkRef{cursor, counts[p]};
      positions[p] = cursor;
      cursor += counts[p];
    }

    std::vector<Record> stage(size_t{K} * block_records);
    std::vector<uint32_t> fill(K, 0);
    for (uint64_t r = 0; r < n; ++r) {
      const uint32_t p = pid[r];
      Record* block = stage.data() + size_t{p} * block_records;
      block[fill[p]] = Record(in[r]);
      if (++fill[p] == block_records) {
        std::memcpy(dst + positions[p], block, block_records * sizeof(Record));
        positions[p] += block_records;
        fill[p] = 0;
      }
    }
    for (uint32_t p = 0; p < K; ++p) {
      if (fill[p] > 0) {
        std::memcpy(dst + positions[p], stage.data() + size_t{p} * block_records,
                    fill[p] * sizeof(Record));
      }
    }
  });
}

// Records grouped by shuffle-tree node within each slice (Fig 7), where one
// node's records may span several chunks: nodes[s][n] lists slice s's
// chunks of node n, in order.
using SliceNodes = std::vector<std::vector<ChunkList>>;

// Number of shuffle steps (tree levels) that group records into K =
// `num_partitions` partitions: none for K == 1, one for any K when fanout
// >= K, otherwise ceil(log_F K), which needs power-of-two K and fanout
// (paper §4.2).
inline int ShuffleStages(uint32_t num_partitions, uint32_t fanout) {
  XS_CHECK_GT(num_partitions, 0u);
  XS_CHECK(fanout > 1 || num_partitions == 1)
      << "fanout must exceed 1 when there is more than one partition";
  if (num_partitions == 1) {
    return 0;
  }
  if (fanout >= num_partitions) {
    return 1;
  }
  XS_CHECK(std::has_single_bit(num_partitions))
      << "multi-stage shuffle requires power-of-two partitions, got " << num_partitions;
  XS_CHECK(std::has_single_bit(fanout)) << "fanout must be a power of two, got " << fanout;
  const uint32_t fanout_bits = CeilLog2(fanout);
  return static_cast<int>((CeilLog2(num_partitions) + fanout_bits - 1) / fanout_bits);
}

// Runs the shuffle-tree levels below the top `bits_consumed` bits of the
// partition id; bits_consumed == 0 runs them all, as one step for any K when
// fanout >= K. On entry nodes[s] holds slice s's 2^bits_consumed nodes, in
// node order, in `in` (at least one level must remain). The first level
// reads `in` and writes `dst`, converting each record to `Record` (a copy
// when In is Record); later levels alternate between `dst` and `src`, so
// `in` is never written. Each level writes slice s's records to its own
// region of its output buffer — the regions tile [0, total) in slice order
// — so records never leave their slice and keep their relative order within
// a partition. `part_of` must accept both record types. Returns the
// per-slice, per-partition chunks, the buffer they ended in and the levels
// run.
template <typename In, typename Record, typename PartOf>
ShuffleOutput<Record> ShuffleLevelsFrom(ThreadPool& pool, const In* in, Record* src, Record* dst,
                                        const SliceNodes& nodes, uint32_t num_partitions,
                                        uint32_t fanout, uint32_t bits_consumed,
                                        PartOf part_of) {
  const size_t num_slices = nodes.size();
  XS_CHECK_EQ(num_slices, static_cast<size_t>(pool.num_threads()));
  const uint32_t total_bits = CeilLog2(num_partitions);
  XS_CHECK_LT(bits_consumed, total_bits) << "no shuffle level remains";
  ShuffleStages(num_partitions, fanout);  // validates K and fanout
  const bool any_k = fanout >= num_partitions;
  XS_CHECK(!any_k || bits_consumed == 0) << "an any-K step is the whole tree";

  std::vector<uint64_t> slice_begin(num_slices + 1, 0);
  for (size_t s = 0; s < num_slices; ++s) {
    uint64_t records = 0;
    for (const ChunkList& node : nodes[s]) {
      for (const ChunkRef& c : node) {
        records += c.count;
      }
    }
    slice_begin[s + 1] = slice_begin[s] + records;
  }

  ShuffleOutput<Record> out;
  out.num_partitions = num_partitions;
  // Per-slice chunk lists for the current tree level (node-major order);
  // after the first level every node is one chunk.
  std::vector<std::vector<ChunkRef>> cur(num_slices);
  for (bool first = true; bits_consumed < total_bits; first = false) {
    const uint32_t step_bits =
        any_k ? total_bits : std::min(CeilLog2(fanout), total_bits - bits_consumed);
    // Children per node this level; a single any-K step bypasses the bit
    // framing (children == K, child == partition).
    const uint64_t children = any_k ? num_partitions : (uint64_t{1} << step_bits);
    const uint32_t child_shift = total_bits - bits_consumed - step_bits;
    const uint64_t child_mask = children - 1;

    std::vector<std::vector<ChunkRef>> next(num_slices);
    auto shuffle_slice = [&](size_t s, const auto* level_in, auto child_of) {
      const size_t num_nodes = first ? nodes[s].size() : cur[s].size();
      auto& my_next = next[s];
      my_next.assign(num_nodes * children, ChunkRef{});

      std::vector<uint64_t> counts(children);
      // Pass 1+2 fused per node: count, assign offsets, copy. Offsets are
      // assigned node-major so children become next-level nodes in order.
      uint64_t cursor = slice_begin[s];
      std::vector<uint64_t> positions(children);
      for (size_t node = 0; node < num_nodes; ++node) {
        const std::span<const ChunkRef> chunks =
            first ? std::span<const ChunkRef>(nodes[s][node])
                  : std::span<const ChunkRef>(&cur[s][node], 1);
        std::fill(counts.begin(), counts.end(), 0);
        for (const ChunkRef& chunk : chunks) {
          const auto* rec = level_in + chunk.begin;
          for (uint64_t r = 0; r < chunk.count; ++r) {
            ++counts[child_of(rec[r])];
          }
        }
        for (uint64_t c = 0; c < children; ++c) {
          my_next[node * children + c] = ChunkRef{cursor, counts[c]};
          positions[c] = cursor;
          cursor += counts[c];
        }
        for (const ChunkRef& chunk : chunks) {
          const auto* rec = level_in + chunk.begin;
          for (uint64_t r = 0; r < chunk.count; ++r) {
            dst[positions[child_of(rec[r])]++] = Record(rec[r]);
          }
        }
      }
    };
    auto shuffle_level = [&](size_t s, const auto* level_in) {
      if (any_k) {
        shuffle_slice(s, level_in,
                      [&](const auto& r) { return static_cast<uint64_t>(part_of(r)); });
      } else {
        shuffle_slice(s, level_in, [&](const auto& r) {
          return (static_cast<uint64_t>(part_of(r)) >> child_shift) & child_mask;
        });
      }
    };
    pool.RunOnAll([&](int tid) {
      const size_t s = static_cast<size_t>(tid);
      if (first) {
        shuffle_level(s, in);
      } else {
        shuffle_level(s, static_cast<const Record*>(src));
      }
    });

    cur.swap(next);
    std::swap(src, dst);
    bits_consumed += step_bits;
    ++out.stages_run;
  }

  // cur now holds, per slice, 2^total_bits (or K for an any-K step) chunks
  // in partition order; trim to exactly K (pow2 rounding can exceed K only
  // when part_of never produces those ids, so the extra chunks are empty).
  out.data = src;
  out.slices.resize(num_slices);
  for (size_t s = 0; s < num_slices; ++s) {
    XS_CHECK_GE(cur[s].size(), num_partitions);
    cur[s].resize(num_partitions);
    out.slices[s] = std::move(cur[s]);
  }
  return out;
}

// ShuffleLevelsFrom with the input in `src`.
template <typename Record, typename PartOf>
ShuffleOutput<Record> ShuffleLevels(ThreadPool& pool, Record* src, Record* dst,
                                    const SliceNodes& nodes, uint32_t num_partitions,
                                    uint32_t fanout, uint32_t bits_consumed, PartOf part_of) {
  return ShuffleLevelsFrom(pool, static_cast<const Record*>(src), src, dst, nodes,
                           num_partitions, fanout, bits_consumed, part_of);
}

// Shuffles `count` records from `in` into partition-grouped chunks of
// `Record`, converting each record as it is copied (a narrowing copy such
// as Edge -> EdgePair, or a plain copy). `in` is only read. The first step
// writes `b` and later steps alternate between `a` and `b`, so with at most
// one step (K <= fanout; K == 1 copies) the records land in `b` and `a` is
// untouched.
//
//  * num_partitions == K. If `fanout` >= K (or stages == 1), a single
//    counting-shuffle step handles any K. Otherwise K and fanout must both
//    be powers of two (paper §4.2) and ceil(log_F K) steps run.
//  * part_of(record) must return a value < K, for both record types.
//  * stage_bytes > 0 routes single-stage shuffles (K <=
//    kMaxStagedPartitions) through StagedSingleStageShuffle with that much
//    per-thread staging; the output is byte-identical either way.
//
// The buffers the steps write must hold at least `count` records. Returns
// the index arrays and the buffer the records ended up in.
template <typename In, typename Record, typename PartOf>
ShuffleOutput<Record> ShuffleRecordsFrom(ThreadPool& pool, const In* in, Record* a, Record* b,
                                         uint64_t count, uint32_t num_partitions,
                                         uint32_t fanout, PartOf part_of,
                                         size_t stage_bytes = 0) {
  static_assert(std::is_trivially_copyable_v<In> && std::is_trivially_copyable_v<Record>);
  const int stages = ShuffleStages(num_partitions, fanout);

  const int num_slices = pool.num_threads();
  // Fixed slice boundaries: records never leave their slice (Fig 7).
  std::vector<uint64_t> slice_begin(static_cast<size_t>(num_slices) + 1);
  for (int s = 0; s <= num_slices; ++s) {
    slice_begin[static_cast<size_t>(s)] =
        count * static_cast<uint64_t>(s) / static_cast<uint64_t>(num_slices);
  }
  // One chunk per slice: the slice itself (a tree root, or with K == 1 the
  // whole partition).
  std::vector<ChunkList> slice_chunks(static_cast<size_t>(num_slices));
  for (size_t s = 0; s < slice_chunks.size(); ++s) {
    slice_chunks[s] = {ChunkRef{slice_begin[s], slice_begin[s + 1] - slice_begin[s]}};
  }

  if (stages == 0) {
    pool.RunOnAll([&](int tid) {
      const size_t s = static_cast<size_t>(tid);
      for (uint64_t r = slice_begin[s]; r < slice_begin[s + 1]; ++r) {
        b[r] = Record(in[r]);
      }
    });
    ShuffleOutput<Record> out;
    out.data = b;
    out.num_partitions = 1;
    out.slices = std::move(slice_chunks);
    return out;
  }

  if (stages == 1 && stage_bytes > 0 && num_partitions <= kMaxStagedPartitions) {
    ShuffleOutput<Record> out;
    out.num_partitions = num_partitions;
    out.slices.resize(static_cast<size_t>(num_slices));
    StagedSingleStageShuffle(pool, in, b, slice_begin, num_partitions, part_of, stage_bytes,
                             out.slices);
    obs::MetricsRegistry::Global().counter("shuffle.staged_records").Add(count);
    out.data = b;
    out.stages_run = 1;
    return out;
  }

  SliceNodes roots(static_cast<size_t>(num_slices));
  for (size_t s = 0; s < roots.size(); ++s) {
    roots[s] = {std::move(slice_chunks[s])};
  }
  return ShuffleLevelsFrom(pool, in, a, b, roots, num_partitions, fanout, 0, part_of);
}

// Shuffles `count` records (currently in `a`) into partition-grouped chunks,
// alternating between buffers `a` and `b`, as ShuffleRecordsFrom does from
// `a` — except that with K == 1 the records stay where they are, in `a`.
// Both buffers must hold at least `count` records.
template <typename Record, typename PartOf>
ShuffleOutput<Record> ShuffleRecords(ThreadPool& pool, Record* a, Record* b, uint64_t count,
                                     uint32_t num_partitions, uint32_t fanout, PartOf part_of,
                                     size_t stage_bytes = 0) {
  if (ShuffleStages(num_partitions, fanout) == 0) {
    ShuffleOutput<Record> out;
    out.data = a;
    out.num_partitions = 1;
    const uint64_t slices = static_cast<uint64_t>(pool.num_threads());
    for (uint64_t s = 0; s < slices; ++s) {
      const uint64_t begin = count * s / slices;
      out.slices.push_back({ChunkRef{begin, count * (s + 1) / slices - begin}});
    }
    return out;
  }
  return ShuffleRecordsFrom(pool, static_cast<const Record*>(a), a, b, count, num_partitions,
                            fanout, part_of, stage_bytes);
}

}  // namespace xstream

#endif  // XSTREAM_BUFFERS_SHUFFLER_H_
