// Persistent thread pool.
//
// X-Stream's parallelism (paper §4.1) is phase-structured: every scatter,
// shuffle and gather phase runs the same function on all threads and then
// joins. RunOnAll is exactly that primitive; ParallelFor is a dynamic
// (self-balancing) loop built on top of it for edge/update chunk processing.
#ifndef XSTREAM_THREADS_THREAD_POOL_H_
#define XSTREAM_THREADS_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xstream {

class ThreadPool {
 public:
  // Spawns `num_threads` workers. Thread ids passed to jobs are in
  // [0, num_threads); the calling thread also participates as thread 0, so a
  // pool of size N spawns N-1 workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(thread_id) on every thread (including the caller as id 0) and
  // returns once all have finished. Acts as a barrier between phases.
  void RunOnAll(const std::function<void(int)>& fn);

  // Dynamically-scheduled parallel loop over [begin, end): threads claim
  // `grain`-sized blocks with an atomic counter, which gives the same load
  // balancing effect as work stealing for flat iteration spaces.
  void ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                   const std::function<void(uint64_t, uint64_t)>& body);

  // Like ParallelFor but passes the executing thread id, for bodies that use
  // per-thread structures (e.g. a baseline's per-thread frontier queues).
  void ParallelForTid(uint64_t begin, uint64_t end, uint64_t grain,
                      const std::function<void(int, uint64_t, uint64_t)>& body);

 private:
  void WorkerLoop(int thread_id);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int outstanding_ = 0;
  bool shutdown_ = false;
};

}  // namespace xstream

#endif  // XSTREAM_THREADS_THREAD_POOL_H_
