// Tests for the work-stealing thread pool behind the batch executor.

#include "src/exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/batch_engine.h"
#include "src/workload/generators.h"

namespace pnn {
namespace exec {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(3);
  for (size_t n : {0u, 1u, 2u, 3u, 7u}) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(n, [&](size_t i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(ThreadPool, ParallelForRunsConcurrently) {
  ThreadPool pool(4);
  // With 4 workers + the caller, at least 2 iterations must be able to
  // overlap: have each iteration wait until another one is in flight.
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  bool overlapped = false;
  pool.ParallelFor(8, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++in_flight;
    if (in_flight >= 2) {
      overlapped = true;
      cv.notify_all();
    } else {
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return overlapped; });
    }
    --in_flight;
  });
  EXPECT_TRUE(overlapped);
}

TEST(ThreadPool, SubmitExecutesAllTasks) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        if (count.fetch_add(1) + 1 == kTasks) cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return count.load() == kTasks; });
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelFor(100, [&](size_t) { total++; });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, OneWorkerPoolRunsTwoWide) {
  // The caller participates, so a one-worker pool is two threads wide.
  // Each iteration waits (bounded) until both have started — a rendezvous
  // only two concurrent threads can complete — so the distinct-thread
  // count below is a property of the schedule, not of timing.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> threads;
  int started = 0;
  size_t active = pool.ParallelFor(2, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    ++started;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return started >= 2; });
  });
  EXPECT_EQ(threads.size(), 2u);
  EXPECT_EQ(active, 2u);
  EXPECT_EQ(pool.ParallelFor(1, [](size_t) {}), 1u);  // Single iteration: inline.
  EXPECT_EQ(pool.ParallelFor(0, [](size_t) {}), 0u);
}

TEST(ThreadPool, TwoThreadBatchEngineAnswersOnBothThreads) {
  // BatchOptions{num_threads = 2} is a one-worker pool plus the caller.
  // 64 Monte-Carlo queries of 400 rounds each keep the caller busy far
  // longer than a worker takes to wake, so both threads answer queries.
  Rng rng(4242);
  UncertainSet pts;
  for (const Circle& c : RandomDisks(200, 30, 0.5, 2.0, &rng)) {
    pts.push_back(UncertainPoint::UniformDisk(c.center, c.radius));
  }
  Engine::Options eopt;
  eopt.mc_rounds_override = 400;
  Engine engine(pts, eopt);
  BatchEngine batch(&engine, BatchOptions{2, 1});
  std::vector<Point2> queries(64);
  for (Point2& q : queries) q = {rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
  auto result = batch.QuantifyBatch(queries, 0.1);
  EXPECT_EQ(result.stats.threads, 2u);
  EXPECT_EQ(result.stats.threads_active, 2u);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<Quantification> want = engine.Quantify(queries[i], 0.1);
    ASSERT_EQ(result.values[i].size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(result.values[i][j].index, want[j].index);
      EXPECT_EQ(result.values[i][j].probability, want[j].probability);
    }
  }
}

TEST(ThreadPool, ParallelForUnderHeldLockNeverSelfDeadlocks) {
  // Tasks lock a shared mutex and run ParallelFor while holding it — the
  // shape of the lazy structure builds (EnsureMonteCarlo, EnsureRounds).
  // ParallelFor must never execute unrelated stolen tasks on the calling
  // thread mid-wait, or a stolen sibling would re-lock the held mutex on
  // the same thread and self-deadlock.
  ThreadPool pool(2);
  std::mutex m;
  std::atomic<int> done{0};
  for (int t = 0; t < 8; ++t) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(m);
      pool.ParallelFor(16, [](size_t) { std::this_thread::yield(); });
      done.fetch_add(1);
    });
  }
  while (done.load() < 8) std::this_thread::yield();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, WorkerInitRunsOncePerWorkerBeforeTasks) {
  static thread_local bool initialized = false;
  std::atomic<int> inits{0};
  ThreadPool::Options opts;
  opts.num_threads = 3;
  opts.worker_init = [&] {
    initialized = true;
    inits.fetch_add(1);
  };
  ThreadPool pool(opts);
  // Every task must observe its worker's init already done, however the
  // tasks are spread over the workers.
  std::atomic<int> seen{0};
  std::atomic<int> uninitialized{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      if (!initialized) uninitialized.fetch_add(1);
      seen.fetch_add(1);
    });
  }
  while (seen.load() < 32) std::this_thread::yield();
  EXPECT_EQ(uninitialized.load(), 0);
  // All three workers ran the init exactly once (threads spawn at
  // construction, so all inits have run by the time their tasks finish —
  // wait for the stragglers that may not have received a task).
  while (inits.load() < 3) std::this_thread::yield();
  EXPECT_EQ(inits.load(), 3);
}

}  // namespace
}  // namespace exec
}  // namespace pnn
