// Work-stealing thread pool underlying the batch query executor.
//
// Each worker owns a deque: it pushes and pops its own work at the back
// (LIFO, cache-friendly) and steals from the front of other workers' deques
// (FIFO, takes the oldest — largest — pieces of work) when its own runs
// dry. External submissions are distributed round-robin across the deques.
//
// ParallelFor() layers dynamic index scheduling on top: one runner task per
// worker drains a shared atomic counter, so load imbalance between
// iterations (e.g. spiral-plan vs Monte-Carlo-plan queries) self-corrects
// without any per-iteration task allocation.

#ifndef PNN_EXEC_THREAD_POOL_H_
#define PNN_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pnn {
namespace exec {

/// Fixed-size work-stealing pool. Thread-safe: Submit() and ParallelFor()
/// may be called from any thread, including from inside pool tasks
/// (ParallelFor from a worker degrades to inline execution of the caller's
/// share, never deadlocks on pool capacity).
class ThreadPool {
 public:
  struct Options {
    /// Worker count; 0 means std::thread::hardware_concurrency().
    size_t num_threads = 0;
    /// Runs once on each worker thread before it takes any task. Engines
    /// pass a scratch-arena warmup here (e.g. dyn::PrewarmWorkerScratch)
    /// so a worker's first query doesn't pay the per-thread pool-growing
    /// allocations inside its latency.
    std::function<void()> worker_init;
  };

  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  explicit ThreadPool(Options options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task. Fire-and-forget; use ParallelFor for joinable work.
  void Submit(std::function<void()> task);

  /// Runs body(i) for i in [0, n), distributed over the workers plus the
  /// calling thread; returns when all iterations finished. Iterations are
  /// claimed one at a time from a shared counter (dynamic scheduling).
  /// Returns the number of threads that ran at least one iteration.
  size_t ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  struct WorkQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  /// Pops from own queue (back) or steals (front) from a sibling; returns
  /// an empty function when nothing is available.
  std::function<void()> NextTask(size_t self);

  Options options_;
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  size_t next_queue_ = 0;  // Round-robin cursor for external submissions.
  bool stop_ = false;      // Guarded by wake_mu_.
};

/// body(i) for i in [0, n): on `pool` when it is non-null and the range
/// has at least two iterations, serially on the calling thread otherwise —
/// the shared optional-pool fallback of every build/fan-out site
/// (structure builds, Monte-Carlo sample rows, the shard bootstrap).
/// Templated on the body so the serial branch calls it directly: no
/// std::function type-erasure, hence no allocation without a pool.
template <typename Body>
void MaybeParallelFor(ThreadPool* pool, size_t n, const Body& body) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, body);
  } else {
    for (size_t i = 0; i < n; ++i) body(i);
  }
}

/// Serial execution domain ("strand") over a ThreadPool: tasks submitted
/// to a Lane run in FIFO order, never concurrently, as ordinary pool
/// tasks — so a lane occupies at most one worker at any moment. Between
/// consecutive tasks the lane goes back through the pool's queues, which
/// is the cooperative yield the sliced structure builds rely on: a long
/// chain of build slices on one lane interleaves with queries and with
/// other lanes' work instead of monopolizing a worker end-to-end. The
/// shard router gives every shard its own lane so one shard's compaction
/// cannot starve another shard's merges.
///
/// Thread-safe. The pool must outlive the lane; the lane must outlive its
/// queued tasks (the destructor drains).
class Lane {
 public:
  explicit Lane(ThreadPool* pool);
  ~Lane();  // Drain()s.

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Enqueues a task; runs after every previously submitted task finished.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no lane task is running. Must not
  /// be called from inside a lane task (it would wait on itself).
  void Drain();

 private:
  void RunOne();

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool running_ = false;  // A RunOne hop is queued or executing.
};

}  // namespace exec
}  // namespace pnn

#endif  // PNN_EXEC_THREAD_POOL_H_
