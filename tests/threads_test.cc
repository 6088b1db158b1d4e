// Tests for the threading substrate: thread pool, work stealing, and the
// concurrent appender of paper §4.1.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "threads/concurrent_appender.h"
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

TEST(ConcurrentAppenderTest, SingleThreadAppend) {
  std::vector<std::byte> target(1024);
  ConcurrentAppender app(target, sizeof(uint32_t), 1);
  for (uint32_t i = 0; i < 100; ++i) {
    app.Append(0, &i);
  }
  app.FlushAll();
  EXPECT_EQ(app.records(), 100u);
  const uint32_t* out = reinterpret_cast<const uint32_t*>(target.data());
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], i);  // single thread preserves order
  }
}

TEST(ConcurrentAppenderTest, MultiThreadPreservesMultiset) {
  constexpr int kThreads = 4;
  constexpr uint32_t kPerThread = 50000;  // forces many staging flushes
  std::vector<std::byte> target(kThreads * kPerThread * sizeof(uint32_t));
  ConcurrentAppender app(target, sizeof(uint32_t), kThreads);
  ThreadPool pool(kThreads);
  pool.RunOnAll([&](int tid) {
    for (uint32_t i = 0; i < kPerThread; ++i) {
      uint32_t value = static_cast<uint32_t>(tid) * kPerThread + i;
      app.Append(tid, &value);
    }
  });
  app.FlushAll();
  ASSERT_EQ(app.records(), static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<uint8_t> seen(kThreads * kPerThread, 0);
  const uint32_t* out = reinterpret_cast<const uint32_t*>(target.data());
  for (uint64_t i = 0; i < app.records(); ++i) {
    ASSERT_LT(out[i], seen.size());
    ++seen[out[i]];
  }
  for (uint64_t v = 0; v < seen.size(); ++v) {
    EXPECT_EQ(seen[v], 1) << v;
  }
}

TEST(ConcurrentAppenderTest, ResetAllowsReuse) {
  std::vector<std::byte> target(64);
  ConcurrentAppender app(target, sizeof(uint32_t), 1);
  uint32_t v = 7;
  app.Append(0, &v);
  app.FlushAll();
  EXPECT_EQ(app.records(), 1u);
  app.Reset();
  EXPECT_EQ(app.records(), 0u);
  app.Append(0, &v);
  app.FlushAll();
  EXPECT_EQ(app.records(), 1u);
}

TEST(ConcurrentAppenderTest, OverflowAborts) {
  std::vector<std::byte> target(8);  // room for 2 records
  ConcurrentAppender app(target, sizeof(uint32_t), 1);
  uint32_t v = 1;
  app.Append(0, &v);
  app.Append(0, &v);
  app.FlushAll();
  app.Append(0, &v);
  EXPECT_DEATH(app.FlushAll(), "appender overflow");
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
