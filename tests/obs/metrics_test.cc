#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace gemrec::obs {
namespace {

TEST(HistogramBucketTest, IndexIsBitWidth) {
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(1023), 10u);
  EXPECT_EQ(HistogramBucketIndex(1024), 11u);
  // The top bucket absorbs everything bit_width would push past it.
  EXPECT_EQ(HistogramBucketIndex(~uint64_t{0}), kHistogramBuckets - 1);
}

TEST(HistogramBucketTest, UpperBoundsMatchBucketRanges) {
  EXPECT_EQ(HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(HistogramBucketUpperBound(10), 1023u);
  EXPECT_EQ(HistogramBucketUpperBound(63),
            (uint64_t{1} << 63) - 1);
  // Every value lands in the bucket whose range contains it.
  for (const uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 4095ull}) {
    const uint32_t i = HistogramBucketIndex(v);
    EXPECT_LE(v, HistogramBucketUpperBound(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, HistogramBucketUpperBound(i - 1)) << v;
    }
  }
}

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(5);
  EXPECT_EQ(counter.Value(), 6u);
}

TEST(CounterTest, SumsExactlyAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddSub) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(3);
  gauge.Sub(12);
  EXPECT_EQ(gauge.Value(), -2);
}

TEST(HistogramTest, RecordsCountSumAndBuckets) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(3);
  histogram.Record(100);
  const HistogramData data = histogram.Snapshot();
  EXPECT_EQ(data.count, 4u);
  EXPECT_EQ(data.sum, 104u);
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[2], 1u);
  EXPECT_EQ(data.buckets[HistogramBucketIndex(100)], 1u);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  EXPECT_EQ(HistogramData{}.Percentile(0.5), 0.0);
  EXPECT_EQ(HistogramData{}.Mean(), 0.0);
}

TEST(HistogramTest, MedianOfTwoIsTheLowerValue) {
  // Regression for the old `samples[p * n]` bias: with one fast and
  // one slow observation, p50 must report the fast one.
  Histogram histogram;
  histogram.Record(1);
  histogram.Record(100000);
  const HistogramData data = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(data.Percentile(0.5), 1.0);
  EXPECT_GT(data.Percentile(0.99), 1000.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  // 100 observations all inside bucket [256, 511]: nearest rank 50
  // interpolates halfway through the bucket.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(300);
  const double p50 = histogram.Snapshot().Percentile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 511.0);
  EXPECT_NEAR(p50, 256.0 + (511.0 - 256.0) * 0.5, 3.0);
}

TEST(HistogramTest, MinusBaselineIsolatesAWindow) {
  Histogram histogram;
  histogram.Record(4);
  const HistogramData before = histogram.Snapshot();
  histogram.Record(9);
  histogram.Record(9);
  const HistogramData window =
      histogram.Snapshot().MinusBaseline(before);
  EXPECT_EQ(window.count, 2u);
  EXPECT_EQ(window.sum, 18u);
  EXPECT_EQ(window.buckets[HistogramBucketIndex(4)], 0u);
  EXPECT_EQ(window.buckets[HistogramBucketIndex(9)], 2u);
  // A stale (larger) baseline clamps to zero instead of wrapping.
  const HistogramData clamped = before.MinusBaseline(window);
  EXPECT_EQ(clamped.count, 0u);
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "help");
  Counter* b = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("other_total"), a);
  Histogram* h1 = registry.GetHistogram("latency_us");
  Histogram* h2 = registry.GetHistogram("latency_us");
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, SnapshotPreservesRegistrationOrderAndValues) {
  MetricsRegistry registry;
  registry.GetCounter("c", "counted")->Increment(3);
  registry.GetGauge("g")->Set(-4);
  registry.GetHistogram("h")->Record(10);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "c");
  EXPECT_EQ(snapshot.metrics[0].help, "counted");
  EXPECT_EQ(snapshot.metrics[0].counter, 3u);
  EXPECT_EQ(snapshot.metrics[1].name, "g");
  EXPECT_EQ(snapshot.metrics[1].gauge, -4);
  EXPECT_EQ(snapshot.metrics[2].name, "h");
  EXPECT_EQ(snapshot.metrics[2].histogram.count, 1u);
  ASSERT_NE(snapshot.Find("g"), nullptr);
  EXPECT_EQ(snapshot.Find("g")->gauge, -4);
  EXPECT_EQ(snapshot.Find("missing"), nullptr);
}

TEST(RegistryDeathTest, TypeMismatchAborts) {
  MetricsRegistry registry;
  registry.GetCounter("m");
  EXPECT_DEATH(registry.GetGauge("m"), "registered as counter");
}

/// The TSan workhorse: writers hammer one counter and one histogram
/// while a reader snapshots concurrently. Snapshots are weakly
/// consistent mid-flight but must be exact after the writers join —
/// and the whole dance must be race-free under ThreadSanitizer.
TEST(RegistryTest, ConcurrentWritersAndSnapshotReader) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("writes_total");
  Histogram* histogram = registry.GetHistogram("latency_us");
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last_count = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const uint64_t count = snapshot.Find("writes_total")->counter;
      EXPECT_GE(count, last_count);  // counters never go backwards
      last_count = count;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        counter->Increment();
        histogram->Record(static_cast<uint64_t>(t) * 100 + (i % 50));
      }
    });
  }
  for (auto& writer : writers) writer.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter->Value(), kWriters * kPerWriter);
  const HistogramData data = histogram->Snapshot();
  EXPECT_EQ(data.count, kWriters * kPerWriter);
}

}  // namespace
}  // namespace gemrec::obs
