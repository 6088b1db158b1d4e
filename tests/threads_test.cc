// Tests for the threading substrate: thread pool, work stealing, and the
// bucketed concurrent appender of paper §4.1.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "threads/bucketed_appender.h"
#include "threads/thread_pool.h"
#include "threads/work_stealing.h"

namespace xstream {
namespace {

TEST(ThreadPoolTest, RunOnAllCoversAllThreadIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.RunOnAll([&](int tid) { hits[static_cast<size_t>(tid)].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, RunOnAllIsABarrierAcrossCalls) {
  ThreadPool pool(4);
  std::atomic<int> phase{0};
  pool.RunOnAll([&](int) { phase.fetch_add(1); });
  EXPECT_EQ(phase.load(), 4);
  pool.RunOnAll([&](int) { phase.fetch_add(10); });
  EXPECT_EQ(phase.load(), 44);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.RunOnAll([&](int tid) {
    EXPECT_EQ(tid, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(10000);
  pool.ParallelFor(0, counts.size(), 64, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndTinyRanges) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(5, 5, 16, [&](uint64_t, uint64_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 0u);
  pool.ParallelFor(0, 3, 16, [&](uint64_t lo, uint64_t hi) { sum.fetch_add(hi - lo); });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(ThreadPoolTest, ParallelForTidPassesValidIds) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  pool.ParallelForTid(0, 1000, 8, [&](int tid, uint64_t, uint64_t) {
    if (tid < 0 || tid >= 3) {
      bad.store(true);
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(WorkStealingTest, AllItemsProcessedExactlyOnce) {
  constexpr uint32_t kItems = 1000;
  ThreadPool pool(4);
  WorkStealingQueues queues(4);
  queues.Distribute(kItems);
  std::vector<std::atomic<int>> seen(kItems);
  pool.RunOnAll([&](int tid) {
    uint32_t item = 0;
    while (queues.Pop(tid, item)) {
      seen[item].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto& s : seen) {
    EXPECT_EQ(s.load(), 1);
  }
}

TEST(WorkStealingTest, IdleThreadsStealFromBusyOnes) {
  ThreadPool pool(4);
  WorkStealingQueues queues(4);
  // All work lands on thread 0's queue.
  for (uint32_t i = 0; i < 256; ++i) {
    queues.Push(0, i);
  }
  std::atomic<uint32_t> processed{0};
  pool.RunOnAll([&](int tid) {
    if (tid == 0) {
      // Hold the queue's owner back until some other thread has stolen an
      // item, so the steal assertion below is deterministic regardless of
      // scheduling and core count (a 1-CPU host can otherwise let thread 0
      // drain its own queue before the thieves ever wake).
      while (processed.load(std::memory_order_relaxed) == 0) {
      }
    }
    uint32_t item = 0;
    while (queues.Pop(tid, item)) {
      processed.fetch_add(1, std::memory_order_relaxed);
      // Simulate skewed work so other threads get a chance to steal.
      volatile int spin = 0;
      for (int k = 0; k < 1000; ++k) {
        spin = spin + k;
      }
    }
  });
  EXPECT_EQ(processed.load(), 256u);
  EXPECT_GT(queues.steal_count(), 0u);
}

TEST(WorkStealingTest, PopOnEmptyReturnsFalse) {
  WorkStealingQueues queues(2);
  uint32_t item = 0;
  EXPECT_FALSE(queues.Pop(0, item));
  EXPECT_FALSE(queues.Pop(1, item));
}

TEST(WorkStealingTest, DistributeResetsPreviousContent) {
  WorkStealingQueues queues(2);
  queues.Distribute(10);
  queues.Distribute(4);
  uint32_t item = 0;
  std::set<uint32_t> items;
  while (queues.Pop(0, item)) {
    items.insert(item);
  }
  EXPECT_EQ(items, (std::set<uint32_t>{0, 1, 2, 3}));
}

// A record that remembers its bucket and who appended it, in what order.
struct Tagged {
  uint32_t bucket;
  uint32_t tid;
  uint32_t seq;  // per-thread append index
};

TEST(BucketedAppenderTest, ConcurrentBucketsAreExactAndDisjoint) {
  constexpr int kThreads = 4;
  constexpr uint32_t kBuckets = 8;
  constexpr uint32_t kPerThread = 50000;  // many block flushes per bucket
  const uint64_t total = uint64_t{kThreads} * kPerThread;
  std::vector<Tagged> target(total);  // exactly the records appended
  // A 512-byte stage budget gives 64-byte blocks: constant flushing and
  // contention on the shared reservation.
  BucketedAppender<Tagged> app(target, kThreads, kBuckets, 512);
  ThreadPool pool(kThreads);
  pool.RunOnAll([&](int tid) {
    for (uint32_t i = 0; i < kPerThread; ++i) {
      Tagged r{(i * 2654435761u + static_cast<uint32_t>(tid)) % kBuckets,
               static_cast<uint32_t>(tid), i};
      app.Append(tid, r.bucket, r);
    }
  });
  app.FlushAll();
  ASSERT_EQ(app.records(), total);

  std::vector<uint8_t> covered(total, 0);
  std::vector<uint8_t> seen(total, 0);
  ASSERT_EQ(app.chunks().size(), static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(app.chunks()[t].size(), kBuckets);
    for (uint32_t b = 0; b < kBuckets; ++b) {
      int64_t last_seq = -1;
      for (const ChunkRef& c : app.chunks()[t][b]) {
        ASSERT_GT(c.count, 0u);
        ASSERT_LE(c.begin + c.count, total);
        for (uint64_t i = c.begin; i < c.begin + c.count; ++i) {
          ASSERT_EQ(covered[i]++, 0) << "chunks overlap at record " << i;
          const Tagged& r = target[i];
          ASSERT_EQ(r.bucket, b) << "record in a chunk of the wrong bucket";
          ASSERT_EQ(r.tid, static_cast<uint32_t>(t)) << "chunk listed under the wrong thread";
          // One thread's records keep their append order within a bucket.
          ASSERT_GT(static_cast<int64_t>(r.seq), last_seq);
          last_seq = r.seq;
          ++seen[uint64_t{r.tid} * kPerThread + r.seq];
        }
      }
    }
  }
  for (uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(covered[i], 1) << "record slot " << i << " not in any chunk";
    ASSERT_EQ(seen[i], 1) << "record " << i << " lost or duplicated";
  }
}

TEST(BucketedAppenderTest, SingleThreadChunksPreserveAppendOrder) {
  std::vector<uint32_t> target(1000);
  BucketedAppender<uint32_t> app(target, 1, 3, 1 << 20);
  for (uint32_t i = 0; i < 1000; ++i) {
    app.Append(0, i % 3, i);
  }
  app.FlushAll();
  EXPECT_EQ(app.records(), 1000u);
  for (uint32_t b = 0; b < 3; ++b) {
    std::vector<uint32_t> got;
    for (const ChunkRef& c : app.chunks()[0][b]) {
      got.insert(got.end(), target.begin() + c.begin, target.begin() + c.begin + c.count);
    }
    std::vector<uint32_t> want;
    for (uint32_t i = b; i < 1000; i += 3) {
      want.push_back(i);
    }
    EXPECT_EQ(got, want) << "bucket " << b;
  }
}

TEST(BucketedAppenderTest, ResetAllowsReuse) {
  std::vector<uint32_t> target(4);
  BucketedAppender<uint32_t> app(target, 1, 2, 1 << 20);
  app.Append(0, 0, 7);
  app.Append(0, 1, 8);
  app.FlushAll();
  EXPECT_EQ(app.records(), 2u);
  app.Reset();
  EXPECT_EQ(app.records(), 0u);
  EXPECT_TRUE(app.chunks()[0][0].empty());
  EXPECT_TRUE(app.chunks()[0][1].empty());
  // The whole target is available again: four more records fit.
  for (uint32_t i = 0; i < 4; ++i) {
    app.Append(0, 1, 10 + i);
  }
  app.FlushAll();
  EXPECT_EQ(app.records(), 4u);
  EXPECT_EQ(app.BucketRecords(0), 0u);
  ASSERT_EQ(app.chunks()[0][1].size(), 1u);
  EXPECT_EQ(app.chunks()[0][1][0].begin, 0u);
  EXPECT_EQ(target, (std::vector<uint32_t>{10, 11, 12, 13}));
}

// Every record of bucket b, read through the chunk lists in ForEachBlock
// order (thread by thread, each in flush order).
std::vector<Tagged> BucketContents(const BucketedAppender<Tagged>& app, uint32_t b) {
  std::vector<Tagged> out;
  app.ForEachBlock(b, [&](const Tagged* rec, uint64_t n) { out.insert(out.end(), rec, rec + n); });
  return out;
}

bool SameRecords(const std::vector<Tagged>& a, const std::vector<Tagged>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), [](auto& x, auto& y) {
           return x.bucket == y.bucket && x.tid == y.tid && x.seq == y.seq;
         });
}

// The device store's end-of-partition drain: bucket b's blocks at or after
// the watermark leave in flush order, the rest are compacted behind the
// watermark with their records and relative order intact, and the tail
// rewinds to the end of what is left.
TEST(BucketedAppenderTest, DrainBucketRemovesOnlyLaterBlocksOfItsBucket) {
  constexpr int kThreads = 3;
  constexpr uint32_t kBuckets = 4;
  std::vector<Tagged> target(40000);
  // 64-byte blocks (5 records): many blocks per bucket and thread.
  BucketedAppender<Tagged> app(target, kThreads, kBuckets, 256);
  ThreadPool pool(kThreads);
  std::vector<uint32_t> seq(kThreads, 0);
  auto append_round = [&](uint32_t per_thread) {
    pool.RunOnAll([&](int tid) {
      for (uint32_t i = 0; i < per_thread; ++i) {
        uint32_t& n = seq[static_cast<size_t>(tid)];
        Tagged r{(n * 7 + static_cast<uint32_t>(tid)) % kBuckets, static_cast<uint32_t>(tid), n};
        ++n;
        app.Append(tid, r.bucket, r);
      }
    });
    app.FlushAll();
  };
  append_round(3000);
  const uint64_t watermark = app.records();
  std::vector<std::vector<ChunkList>> before_chunks = app.chunks();
  std::vector<Tagged> before_target(target.begin(), target.begin() + watermark);
  append_round(2000);

  constexpr uint32_t kDrained = 2;
  std::vector<std::vector<Tagged>> want(kBuckets);
  std::vector<Tagged> want_drained;
  for (uint32_t b = 0; b < kBuckets; ++b) {
    std::vector<Tagged> all = BucketContents(app, b);
    if (b != kDrained) {
      want[b] = all;
      continue;
    }
    // Per thread, the blocks past the watermark, in flush order.
    for (int t = 0; t < kThreads; ++t) {
      for (const ChunkRef& c : app.chunks()[t][b]) {
        if (c.begin >= watermark) {
          want_drained.insert(want_drained.end(), target.begin() + c.begin,
                              target.begin() + c.begin + c.count);
        } else {
          want[b].insert(want[b].end(), target.begin() + c.begin,
                         target.begin() + c.begin + c.count);
        }
      }
    }
  }
  const uint64_t total = app.records();

  std::vector<Tagged> drained;
  uint64_t n = app.DrainBucket(kDrained, watermark, [&](const Tagged* rec, uint64_t count) {
    drained.insert(drained.end(), rec, rec + count);
  });
  EXPECT_EQ(n, want_drained.size());
  EXPECT_TRUE(SameRecords(drained, want_drained));
  EXPECT_EQ(app.records(), total - n);
  for (uint32_t b = 0; b < kBuckets; ++b) {
    EXPECT_TRUE(SameRecords(BucketContents(app, b), want[b])) << "bucket " << b;
  }
  // Blocks before the watermark neither moved nor changed.
  for (int t = 0; t < kThreads; ++t) {
    for (uint32_t b = 0; b < kBuckets; ++b) {
      const ChunkList& old_blocks = before_chunks[t][b];
      const ChunkList& blocks = app.chunks()[t][b];
      ASSERT_GE(blocks.size(), old_blocks.size());
      for (size_t i = 0; i < old_blocks.size(); ++i) {
        EXPECT_EQ(blocks[i].begin, old_blocks[i].begin);
        EXPECT_EQ(blocks[i].count, old_blocks[i].count);
      }
    }
  }
  EXPECT_TRUE(SameRecords(std::vector<Tagged>(target.begin(), target.begin() + watermark),
                          before_target));
  // The surviving blocks tile [0, tail) exactly, and bucket kDrained keeps
  // none past the watermark.
  std::vector<uint8_t> covered(app.records(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (uint32_t b = 0; b < kBuckets; ++b) {
      for (const ChunkRef& c : app.chunks()[t][b]) {
        ASSERT_LE(c.begin + c.count, app.records());
        if (b == kDrained) {
          EXPECT_LT(c.begin, watermark);
        }
        for (uint64_t i = c.begin; i < c.begin + c.count; ++i) {
          ASSERT_EQ(covered[i]++, 0) << "blocks overlap at record " << i;
        }
      }
    }
  }
  for (uint64_t i = 0; i < covered.size(); ++i) {
    ASSERT_EQ(covered[i], 1) << "record slot " << i << " not in any block";
  }
  // Appends continue from the rewound tail.
  const uint64_t tail = app.records();
  app.Append(0, kDrained, Tagged{kDrained, 0, 999999});
  app.FlushAll();
  EXPECT_EQ(app.records(), tail + 1);
  EXPECT_EQ(app.chunks()[0][kDrained].back().begin, tail);
}

TEST(BucketedAppenderTest, OverflowAborts) {
  std::vector<uint32_t> target(2);  // room for 2 records
  BucketedAppender<uint32_t> app(target, 1, 2, 1 << 20);
  uint32_t v = 1;
  app.Append(0, 0, v);
  app.Append(0, 1, v);
  app.FlushAll();
  app.Append(0, 1, v);
  EXPECT_DEATH(app.FlushAll(), "appender overflow");
}

}  // namespace
}  // namespace xstream
