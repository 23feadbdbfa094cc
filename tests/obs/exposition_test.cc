#include "obs/exposition.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace gemrec::obs {
namespace {

/// Byte-locks the text exposition format. Scrape tooling parses this
/// output; if you change RenderText, change this golden deliberately
/// and in the same commit.
TEST(ExpositionTest, GoldenRendering) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total", "Requests served.")
      ->Increment(3);
  registry.GetGauge("test_queue_depth")->Set(-2);
  Histogram* h = registry.GetHistogram("test_latency_us", "Latency.");
  h->Record(0);
  h->Record(1);
  h->Record(3);
  h->Record(3);
  h->Record(300);

  const std::string expected =
      "# HELP test_requests_total Requests served.\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n"
      "# TYPE test_queue_depth gauge\n"
      "test_queue_depth -2\n"
      "# HELP test_latency_us Latency.\n"
      "# TYPE test_latency_us histogram\n"
      "test_latency_us_bucket{le=\"0\"} 1\n"
      "test_latency_us_bucket{le=\"1\"} 2\n"
      "test_latency_us_bucket{le=\"3\"} 4\n"
      "test_latency_us_bucket{le=\"7\"} 4\n"
      "test_latency_us_bucket{le=\"15\"} 4\n"
      "test_latency_us_bucket{le=\"31\"} 4\n"
      "test_latency_us_bucket{le=\"63\"} 4\n"
      "test_latency_us_bucket{le=\"127\"} 4\n"
      "test_latency_us_bucket{le=\"255\"} 4\n"
      "test_latency_us_bucket{le=\"511\"} 5\n"
      "test_latency_us_bucket{le=\"+Inf\"} 5\n"
      "test_latency_us_sum 307\n"
      "test_latency_us_count 5\n";
  EXPECT_EQ(RenderText(registry.Snapshot()), expected);
}

TEST(ExpositionTest, EmptyHistogramStillEmitsAWellFormedSeries) {
  MetricsRegistry registry;
  registry.GetHistogram("idle_us");
  const std::string expected =
      "# TYPE idle_us histogram\n"
      "idle_us_bucket{le=\"+Inf\"} 0\n"
      "idle_us_sum 0\n"
      "idle_us_count 0\n";
  EXPECT_EQ(RenderText(registry.Snapshot()), expected);
}

}  // namespace
}  // namespace gemrec::obs
