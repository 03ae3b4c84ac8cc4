#include "src/exec/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace pnn {
namespace exec {

namespace {
// Which pool (if any) the current thread is a worker of, so a nested
// ParallelFor can help-drain instead of blocking on its own pool.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : ThreadPool(Options{num_threads, {}}) {}

ThreadPool::ThreadPool(Options options) : options_(std::move(options)) {
  size_t n = options_.num_threads > 0
                 ? options_.num_threads
                 : std::max<size_t>(1, std::thread::hardware_concurrency());
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<WorkQueue>());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    WorkQueue& q = *queues_[next_queue_];
    next_queue_ = (next_queue_ + 1) % queues_.size();
    std::lock_guard<std::mutex> qlock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::NextTask(size_t self) {
  {  // Own queue first, newest task (LIFO).
    WorkQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return task;
    }
  }
  // Steal the oldest task (FIFO) from a sibling, scanning from self + 1 so
  // victims differ across thieves.
  for (size_t off = 1; off < queues_.size(); ++off) {
    WorkQueue& q = *queues_[(self + off) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return task;
    }
  }
  return {};
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  tls_worker_index = self;
  if (options_.worker_init) options_.worker_init();
  for (;;) {
    std::function<void()> task = NextTask(self);
    if (task) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_) return;
    // Re-check under the lock: a submission may have raced our scan.
    bool any = false;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> qlock(q->mu);
      if (!q->tasks.empty()) {
        any = true;
        break;
      }
    }
    if (any) continue;
    wake_cv_.wait(lock);
  }
}

size_t ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  // The caller participates, so even a one-worker pool runs two-wide.
  if (size() == 0 || n <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return n == 0 ? 0 : 1;
  }
  size_t runners = std::min(size(), n - 1);  // Plus the caller.
  // The wait below is on COMPLETED ITERATIONS, not on finished runner
  // tasks. Every claimed iteration is actively executing on some thread,
  // so completion never depends on a queued-but-unstarted runner — which
  // is what lets a nested call simply wait instead of help-draining
  // arbitrary stolen tasks. (Help-draining here used to run unrelated
  // tasks on this thread mid-call; a caller holding a lock — the lazy
  // Monte-Carlo/expected-NN builds, a bucket's round-cache extension —
  // could then re-enter itself via a stolen task and self-deadlock.)
  //
  // A runner task that starts only after this frame returned claims an
  // index >= n and exits without ever touching `body` (whose reference
  // would be dangling by then); it reads only the shared_ptr-held
  // counters, so lingering queued runners are harmless no-ops.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    // Runners that executed at least one iteration; each counts itself
    // before publishing its completions, so the count is final once
    // `completed` reaches n.
    std::atomic<size_t> threads{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto shared = std::make_shared<Shared>();
  auto runner = [shared, n, &body] {
    size_t local = 0;
    for (size_t i = shared->next.fetch_add(1); i < n; i = shared->next.fetch_add(1)) {
      body(i);
      ++local;
    }
    if (local == 0) return;
    shared->threads.fetch_add(1);
    if (shared->completed.fetch_add(local) + local == n) {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->cv.notify_all();
    }
  };
  for (size_t r = 0; r < runners; ++r) Submit(runner);
  runner();  // The caller participates instead of blocking idle.
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->completed.load() == n; });
  return shared->threads.load();
}

Lane::Lane(ThreadPool* pool) : pool_(pool) {}

Lane::~Lane() { Drain(); }

void Lane::Submit(std::function<void()> task) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.push_back(std::move(task));
  if (!running_) {
    running_ = true;
    pool_->Submit([this] { RunOne(); });
  }
}

void Lane::RunOne() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  std::lock_guard<std::mutex> lock(mu_);
  if (tasks_.empty()) {
    // Clear the flag before notifying: Drain observes (!running_ && empty)
    // under mu_, so nothing can slip between.
    running_ = false;
    cv_.notify_all();
  } else {
    // Hop through the pool between tasks instead of draining in place —
    // this is the cooperative yield that lets other pool work (queries,
    // sibling lanes) interleave with a long chain of build slices.
    pool_->Submit([this] { RunOne(); });
  }
}

void Lane::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !running_ && tasks_.empty(); });
}

}  // namespace exec
}  // namespace pnn
