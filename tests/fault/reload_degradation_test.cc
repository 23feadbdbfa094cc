// Graceful-degradation coverage for the serve reload loop (ISSUE 3
// tentpole): a corrupt, missing or shape-incompatible model artifact
// must never take the service down or change what it answers — the
// live snapshot keeps serving, the failure counter grows, retries wait
// out a capped exponential backoff, and a repaired artifact restores
// the normal publish path.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/serialization.h"
#include "serving/model_reloader.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::serving {
namespace {

using testing::CounterValue;

namespace fs = std::filesystem;
using std::chrono::milliseconds;

constexpr uint32_t kUsers = 12;
constexpr uint32_t kEvents = 10;
constexpr uint32_t kDim = 6;

embedding::EmbeddingStore RandomStore(uint32_t num_users,
                                      uint32_t num_events, uint64_t seed) {
  embedding::EmbeddingStore store(
      kDim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store.MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store.MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t num_events) {
  std::vector<ebsn::EventId> events(num_events);
  for (uint32_t x = 0; x < num_events; ++x) events[x] = x;
  return events;
}

void ExpectSameItems(const QueryResponse& a, const QueryResponse& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].event, b.items[i].event);
    EXPECT_EQ(a.items[i].partner, b.items[i].partner);
    EXPECT_EQ(a.items[i].score, b.items[i].score);
  }
}

class ReloadDegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gemrec_reload_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "model.bin").string();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void FlipByteAt(size_t offset) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(ReloadDegradationTest, CorruptArtifactNeverDropsLiveSnapshot) {
  const embedding::EmbeddingStore initial = RandomStore(kUsers, kEvents, 1);
  SnapshotBuilder builder(initial, AllEvents(kEvents), kUsers, {});
  ServiceOptions service_options;
  service_options.num_workers = 2;
  RecommendationService service(service_options);

  std::vector<milliseconds> sleeps;
  ReloaderOptions reloader_options;
  reloader_options.initial_backoff = milliseconds(10);
  reloader_options.max_backoff = milliseconds(40);
  reloader_options.max_attempts = 3;
  reloader_options.sleep_fn = [&](milliseconds d) { sleeps.push_back(d); };
  ModelReloader reloader(&service, &builder, reloader_options);

  // First reload from a healthy artifact publishes epoch 1.
  ASSERT_TRUE(embedding::SaveEmbeddingStore(initial, path_).ok());
  ASSERT_TRUE(reloader.ReloadWithRetry(path_).ok());
  ASSERT_NE(service.CurrentSnapshot(), nullptr);
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), 1u);

  QueryRequest request;
  request.user = 5;
  request.n = 4;
  request.filter_hash = service.CurrentSnapshot()->pool_hash();
  request.bypass_cache = true;
  const QueryResponse baseline = service.Query(request);
  ASSERT_FALSE(baseline.items.empty());

  // Corrupt the artifact mid-payload: every retry fails, each failure
  // is counted, the backoff schedule is 10ms then 20ms (two sleeps for
  // three attempts), and the served snapshot never changes.
  FlipByteAt(50);
  const Status degraded = reloader.ReloadWithRetry(path_);
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_reload_failures_total"),
            3u);
  EXPECT_EQ(reloader.consecutive_failures(), 3u);
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], milliseconds(10));
  EXPECT_EQ(sleeps[1], milliseconds(20));
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), 1u);
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_publishes_total"),
            1u);

  // The service still answers, identically to before the corruption.
  const QueryResponse during_outage = service.Query(request);
  EXPECT_EQ(during_outage.epoch, 1u);
  ExpectSameItems(baseline, during_outage);

  // A repaired artifact recovers: new epoch, counters reset.
  const embedding::EmbeddingStore repaired =
      RandomStore(kUsers, kEvents, 2);
  ASSERT_TRUE(embedding::SaveEmbeddingStore(repaired, path_).ok());
  ASSERT_TRUE(reloader.ReloadWithRetry(path_).ok());
  EXPECT_EQ(reloader.consecutive_failures(), 0u);
  EXPECT_EQ(reloader.current_backoff(), milliseconds::zero());
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), 2u);
  // Failure counter is cumulative (monitoring counts total incidents).
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_reload_failures_total"),
            3u);
  const QueryResponse after_recovery = service.Query(request);
  EXPECT_EQ(after_recovery.epoch, 2u);
}

TEST_F(ReloadDegradationTest, MissingArtifactBackoffIsCappedExponential) {
  const embedding::EmbeddingStore initial = RandomStore(kUsers, kEvents, 3);
  SnapshotBuilder builder(initial, AllEvents(kEvents), kUsers, {});
  RecommendationService service(ServiceOptions{});

  ReloaderOptions reloader_options;
  reloader_options.initial_backoff = milliseconds(10);
  reloader_options.max_backoff = milliseconds(40);
  reloader_options.max_attempts = 1;
  reloader_options.sleep_fn = [](milliseconds) {};
  ModelReloader reloader(&service, &builder, reloader_options);

  EXPECT_EQ(reloader.current_backoff(), milliseconds::zero());
  const std::string missing = (dir_ / "nope.bin").string();
  const milliseconds expected[] = {
      milliseconds(10), milliseconds(20), milliseconds(40),
      milliseconds(40), milliseconds(40), milliseconds(40)};
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_FALSE(reloader.ReloadFromFile(missing).ok());
    EXPECT_EQ(reloader.current_backoff(), expected[i]) << "failure " << i;
  }
  // A very long outage must not overflow the shifted multiplier.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(reloader.ReloadFromFile(missing).ok());
  }
  EXPECT_EQ(reloader.current_backoff(), milliseconds(40));
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_reload_failures_total"),
            106u);
  // No snapshot was ever published — and none was dropped either.
  EXPECT_EQ(service.CurrentSnapshot(), nullptr);
}

TEST_F(ReloadDegradationTest, ShapeIncompatibleArtifactIsRejected) {
  const embedding::EmbeddingStore initial = RandomStore(kUsers, kEvents, 4);
  SnapshotBuilder builder(initial, AllEvents(kEvents), kUsers, {});
  RecommendationService service(ServiceOptions{});

  ReloaderOptions reloader_options;
  reloader_options.sleep_fn = [](milliseconds) {};
  ModelReloader reloader(&service, &builder, reloader_options);

  ASSERT_TRUE(embedding::SaveEmbeddingStore(initial, path_).ok());
  ASSERT_TRUE(reloader.ReloadFromFile(path_).ok());
  const uint64_t epoch = service.CurrentSnapshot()->epoch();

  // Checksums pass — the file is healthy — but the store is too small
  // for the serving pool: fewer events than the pool references.
  const embedding::EmbeddingStore too_few_events =
      RandomStore(kUsers, kEvents / 2, 5);
  ASSERT_TRUE(embedding::SaveEmbeddingStore(too_few_events, path_).ok());
  Status status = reloader.ReloadFromFile(path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), epoch);

  // And fewer users than the service serves.
  const embedding::EmbeddingStore too_few_users =
      RandomStore(kUsers / 2, kEvents, 6);
  ASSERT_TRUE(embedding::SaveEmbeddingStore(too_few_users, path_).ok());
  status = reloader.ReloadFromFile(path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), epoch);
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_reload_failures_total"),
            2u);

  // A compatible (larger) artifact is fine.
  const embedding::EmbeddingStore grown =
      RandomStore(kUsers + 3, kEvents + 2, 7);
  ASSERT_TRUE(embedding::SaveEmbeddingStore(grown, path_).ok());
  ASSERT_TRUE(reloader.ReloadFromFile(path_).ok());
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), epoch + 1);
}

}  // namespace
}  // namespace gemrec::serving
