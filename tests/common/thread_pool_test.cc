#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gemrec {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossWaits) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DestructionWithNoTasksIsClean) {
  { ThreadPool pool(8); }
  SUCCEED();
}

TEST(ThreadPoolTest, NumThreadsReported) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.num_threads(), 5u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller participates in its own ParallelFor, so a task running
  // on a busy pool can issue another ParallelFor on the same pool: the
  // inner call degrades toward serial instead of waiting for workers
  // that are stuck behind it.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, ClampThreadsNormalizesRequests) {
  const size_t hw =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(ThreadPool::ClampThreads(0), hw);
  EXPECT_EQ(ThreadPool::ClampThreads(hw + 1000), hw);
  EXPECT_EQ(ThreadPool::ClampThreads(1), 1u);
  EXPECT_LE(ThreadPool::ClampThreads(hw), hw);
}

TEST(ThreadPoolTest, ForEachChunkCoversContiguousRangesOnce) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    for (const size_t chunks : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                                size_t{5000}}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " chunks=" << chunks);
      std::vector<std::atomic<int>> hits(n);
      std::mutex mu;
      std::vector<std::pair<size_t, size_t>> ranges;
      ThreadPool::ForEachChunk(n, chunks, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(begin, end);
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
      std::sort(ranges.begin(), ranges.end());
      const size_t want =
          std::clamp<size_t>(chunks, 1, std::max<size_t>(n, 1));
      ASSERT_EQ(ranges.size(), want);
      for (size_t c = 0; c < want; ++c) {
        EXPECT_EQ(ranges[c].first, c * n / want);
        EXPECT_EQ(ranges[c].second, (c + 1) * n / want);
      }
    }
  }
}

TEST(ThreadPoolTest, ForEachChunkStartsThreadsOnlyForSeveralChunks) {
  const uint64_t started = ThreadPool::workers_started();
  ThreadPool::ForEachChunk(1000, 1, [](size_t, size_t) {});
  EXPECT_EQ(ThreadPool::workers_started(), started);
  ThreadPool::ForEachChunk(1000, 8, [](size_t, size_t) {});
  EXPECT_EQ(ThreadPool::workers_started(),
            started + std::min<size_t>(ThreadPool::ClampThreads(0), 8) - 1);
}

}  // namespace
}  // namespace gemrec
