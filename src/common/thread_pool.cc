#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace gemrec {
namespace {

std::atomic<uint64_t> g_workers_started{0};

/// Shared state of one ParallelFor call. Owned jointly by the caller
/// and the helper tasks (shared_ptr), so a helper that is dequeued
/// after the call returned finds all indices claimed and exits without
/// touching anything that may have gone out of scope.
struct ParallelForState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  size_t n = 0;
  std::function<void(size_t)> fn;  // owned copy
  std::mutex mu;
  std::condition_variable cv;

  void RunShard() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  GEMREC_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  g_workers_started.fetch_add(num_threads, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // The caller claims indices too, so n == 1 (or an empty pool) needs
  // no shared state at all.
  const size_t helpers = std::min(workers_.size(), n - 1);
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->fn = fn;
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] { state->RunShard(); });
  }
  state->RunShard();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == n;
  });
}

void ThreadPool::ForEachChunk(
    size_t n, size_t chunks, const std::function<void(size_t, size_t)>& fn) {
  chunks = std::clamp<size_t>(chunks, 1, std::max<size_t>(n, 1));
  auto run = [&](size_t c) { fn(c * n / chunks, (c + 1) * n / chunks); };
  const size_t helpers = std::min(ClampThreads(0), chunks) - 1;
  if (helpers == 0) {
    for (size_t c = 0; c < chunks; ++c) run(c);
    return;
  }
  ThreadPool pool(helpers);
  pool.ParallelFor(chunks, run);
}

uint64_t ThreadPool::workers_started() {
  return g_workers_started.load(std::memory_order_relaxed);
}

size_t ThreadPool::ClampThreads(size_t requested) {
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  if (requested == 0 || requested > hw) return hw;
  return requested;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace gemrec
