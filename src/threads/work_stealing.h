// Work-stealing queues of work items (paper §4.1).
//
// "Executing streaming partitions in parallel can lead to significant
// workload imbalance as the partitions can have different numbers of edges
// assigned to them. We therefore implemented work stealing in X-Stream,
// allowing threads to steal streaming partitions from each other."
//
// Each thread owns a deque of item ids — in-memory scatter's bounded edge
// runs, gather's partitions — and pops from the front of its own deque and
// steals from the back of a victim's. Items are coarse (a few hundred to a
// few thousand per phase), so a per-queue mutex is cheap.
#ifndef XSTREAM_THREADS_WORK_STEALING_H_
#define XSTREAM_THREADS_WORK_STEALING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "util/logging.h"

namespace xstream {

class WorkStealingQueues {
 public:
  explicit WorkStealingQueues(int num_threads)
      : queues_(static_cast<size_t>(num_threads)), steals_(0) {}

  // Distributes items [0, count) round-robin across the thread queues.
  void Distribute(uint32_t count) {
    for (auto& q : queues_) {
      std::lock_guard<std::mutex> lock(q.mu);
      q.items.clear();
    }
    for (uint32_t i = 0; i < count; ++i) {
      auto& q = queues_[i % queues_.size()];
      std::lock_guard<std::mutex> lock(q.mu);
      q.items.push_back(i);
    }
  }

  // Pushes a single item onto `thread`'s queue.
  void Push(int thread, uint32_t item) {
    auto& q = queues_[static_cast<size_t>(thread)];
    std::lock_guard<std::mutex> lock(q.mu);
    q.items.push_back(item);
  }

  // Pops an item for `thread`: its own queue first, then (when allowed)
  // steals from other queues. Returns false when no work is available.
  // `allow_steal = false` gives the static-assignment baseline used by the
  // work-stealing ablation.
  bool Pop(int thread, uint32_t& item, bool allow_steal = true) {
    auto& own = queues_[static_cast<size_t>(thread)];
    {
      std::lock_guard<std::mutex> lock(own.mu);
      if (!own.items.empty()) {
        item = own.items.front();
        own.items.pop_front();
        return true;
      }
    }
    if (!allow_steal) {
      return false;
    }
    // Steal: scan victims starting just after this thread.
    size_t n = queues_.size();
    for (size_t k = 1; k < n; ++k) {
      auto& victim = queues_[(static_cast<size_t>(thread) + k) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.items.empty()) {
        item = victim.items.back();
        victim.items.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  uint64_t steal_count() const { return steals_.load(std::memory_order_relaxed); }
  void reset_steal_count() { steals_.store(0, std::memory_order_relaxed); }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<uint32_t> items;
  };

  std::vector<Queue> queues_;
  std::atomic<uint64_t> steals_;
};

}  // namespace xstream

#endif  // XSTREAM_THREADS_WORK_STEALING_H_
