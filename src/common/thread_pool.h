#ifndef GEMREC_COMMON_THREAD_POOL_H_
#define GEMREC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gemrec {

/// Minimal fixed-size worker pool. Used by the hogwild trainer and the
/// adaptive sampler's ranking rebuilds, which keep one pool across
/// calls, and through ForEachChunk by the snapshot build's candidate
/// ranking, which starts one per build; tasks must not throw.
///
/// Workers are created once and reused across submissions — callers on
/// a hot path (e.g. JointTrainer::TrainChunk every chunk) pay no
/// thread create/join cost.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) and returns when all calls finished.
  /// The calling thread participates: indices are claimed from a shared
  /// atomic cursor by the caller and by up to num_threads() pool
  /// workers. Because the caller always makes progress on its own, a
  /// ParallelFor issued from *inside* a pool task (or against a pool
  /// whose workers are busy with long-running work) degrades to serial
  /// execution on the caller instead of deadlocking.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs fn(begin, end) over `chunks` contiguous ranges of [0, n)
  /// (chunk c is [c·n/chunks, (c+1)·n/chunks)), in no fixed order, and
  /// returns when every call finished. The calling thread takes chunks
  /// too. With two or more chunks on a multi-core host, a pool of at
  /// most ClampThreads(0) - 1 workers helps, and it is joined before
  /// the call returns, so no thread outlives it; one chunk runs on the
  /// caller alone and starts no thread. `chunks` is clamped to
  /// [1, max(n, 1)].
  static void ForEachChunk(size_t n, size_t chunks,
                           const std::function<void(size_t, size_t)>& fn);

  /// Pool workers started in this process so far, by any pool.
  static uint64_t workers_started();

  /// Caps a requested worker count at the host's hardware concurrency
  /// (0 means "use all hardware threads"); never returns 0.
  static size_t ClampThreads(size_t requested);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gemrec

#endif  // GEMREC_COMMON_THREAD_POOL_H_
