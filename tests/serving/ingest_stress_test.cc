// Concurrency coverage of the ingestion write path: multiple writer
// threads racing query threads, delta publishes, base reloads, and
// checkpoints; deterministic admission-control shedding with the
// ingest thread parked; and submissions racing Shutdown. Runs under
// the tier-1 TSan stage (scripts/tier1.sh), which is the point — the
// MPSC queue, control queue, and flush protocol are all exercised
// under contention here.

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/serialization.h"
#include "serving/ingestion_queue.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::serving {
namespace {

namespace fs = std::filesystem;
using testing::CounterValue;
using testing::IngestProcessed;

constexpr uint32_t kUsers = 10;
constexpr uint32_t kEvents = 12;
constexpr uint32_t kDim = 6;

embedding::EmbeddingStore IngestStore(uint64_t seed) {
  // Full kTime matrix (33 slots) so fold-ins are in-bounds.
  embedding::EmbeddingStore store(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 4, 33, 20});
  Rng rng(seed);
  for (size_t t = 0; t < embedding::EmbeddingStore::kNumTypes; ++t) {
    store.MatrixOf(static_cast<graph::NodeType>(t))
        .FillAbsGaussian(&rng, 0.2, 0.3);
  }
  return store;
}

std::vector<ebsn::EventId> AllEvents() {
  std::vector<ebsn::EventId> events(kEvents);
  for (uint32_t x = 0; x < kEvents; ++x) events[x] = x;
  return events;
}

class IngestStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gemrec_ingest_stress_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

TEST_F(IngestStressTest, WritersVersusQueriesVersusReloadsAndCheckpoints) {
  const embedding::EmbeddingStore base = IngestStore(31);
  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  SnapshotBuilder builder(base, AllEvents(), kUsers, snapshot_options);
  ServiceOptions service_options;
  service_options.num_workers = 2;
  RecommendationService service(service_options);

  // A valid base artifact for the ReloadBase half of the race.
  const std::string artifact = (dir_ / "base.bin").string();
  ASSERT_TRUE(embedding::SaveEmbeddingStore(base, artifact).ok());

  IngestionQueueOptions iq;
  iq.journal_path = (dir_ / "journal").string();
  iq.checkpoint_base = (dir_ / "checkpoint").string();
  iq.checkpoint_every = 64;
  iq.publish_threshold = 16;
  iq.publish_interval = std::chrono::milliseconds(20);
  IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());

  constexpr int kWriters = 2;
  constexpr int kRecordsPerWriter = 150;
  std::atomic<bool> writers_done{false};
  std::atomic<int> acked{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        IngestRecord record;
        record.kind = IngestKind::kAttendance;
        record.user = static_cast<ebsn::UserId>((w * 7 + i) % kUsers);
        record.event = static_cast<ebsn::EventId>((w + i * 5) % kEvents);
        record.new_user = (i % 11 == 3);
        auto seq = queue.Submit(record);
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
        ASSERT_GT(*seq, 0u);
        acked.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> readers;
  std::atomic<int> answered{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!writers_done.load()) {
        QueryRequest request;
        request.user = static_cast<ebsn::UserId>(r * 3 % kUsers);
        request.n = 5;
        request.bypass_cache = true;
        const QueryResponse response = service.Query(request);
        ASSERT_EQ(response.code, ResponseCode::kOk);
        ASSERT_GE(response.epoch, 1u);
        answered.fetch_add(1);
      }
    });
  }

  std::thread control([&] {
    for (int i = 0; i < 5 && !writers_done.load(); ++i) {
      ASSERT_TRUE(queue.ReloadBase(artifact).ok());
      ASSERT_TRUE(queue.Checkpoint().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (auto& t : writers) t.join();
  writers_done.store(true);
  for (auto& t : readers) t.join();
  control.join();

  queue.Flush();
  EXPECT_EQ(acked.load(), kWriters * kRecordsPerWriter);
  const obs::MetricsSnapshot metrics = service.metrics()->Snapshot();
  const uint64_t accepted =
      CounterValue(metrics, "gemrec_ingest_accepted_total");
  EXPECT_EQ(accepted, static_cast<uint64_t>(kWriters * kRecordsPerWriter));
  EXPECT_EQ(IngestProcessed(metrics), accepted);
  EXPECT_GE(CounterValue(metrics, "gemrec_ingest_publishes_total"), 1u);
  EXPECT_GT(answered.load(), 0);

  // The flushed state is immediately queryable.
  QueryRequest request;
  request.user = 1;
  request.n = 5;
  request.bypass_cache = true;
  EXPECT_EQ(service.Query(request).items.size(), 5u);
  queue.Shutdown();
}

TEST_F(IngestStressTest, DeterministicOverloadShedWithParkedIngestThread) {
  const embedding::EmbeddingStore base = IngestStore(32);
  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  SnapshotBuilder builder(base, AllEvents(), kUsers, snapshot_options);
  RecommendationService service(ServiceOptions{});

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  IngestionQueueOptions iq;
  iq.journal_path = (dir_ / "journal").string();
  iq.max_pending = 8;
  iq.pre_batch_hook_for_testing = [&] {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());

  IngestRecord record;
  record.kind = IngestKind::kAttendance;
  record.user = 1;
  record.event = 1;

  std::atomic<int> oks{0};
  const auto count_ok = [&](Status status, uint64_t) {
    if (status.ok()) oks.fetch_add(1);
  };

  // Park the ingest thread inside the first batch ...
  ASSERT_EQ(queue.SubmitAsync(record, count_ok),
            IngestAdmission::kAccepted);
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ... then fill the admission budget exactly.
  for (size_t i = 0; i < iq.max_pending; ++i) {
    ASSERT_EQ(queue.SubmitAsync(record, count_ok),
              IngestAdmission::kAccepted)
        << "i=" << i;
  }
  // The budget is spent: the next write sheds synchronously, which is
  // what the net layer turns into a typed OVERLOADED error.
  EXPECT_EQ(queue.SubmitAsync(record, count_ok),
            IngestAdmission::kQueueFull);

  // Nothing accepted was lost to the shed: release the thread and
  // every accepted record acks OK.
  release.store(true);
  queue.Flush();
  EXPECT_EQ(oks.load(), static_cast<int>(iq.max_pending) + 1);
  queue.Shutdown();
}

TEST_F(IngestStressTest, SubmitRacingShutdownIsShedNotLost) {
  const embedding::EmbeddingStore base = IngestStore(33);
  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  SnapshotBuilder builder(base, AllEvents(), kUsers, snapshot_options);
  RecommendationService service(ServiceOptions{});
  IngestionQueueOptions iq;
  iq.journal_path = (dir_ / "journal").string();
  IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());

  std::atomic<int> acked_ok{0};
  std::atomic<int> shed{0};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      IngestRecord record;
      record.kind = IngestKind::kAttendance;
      record.user = static_cast<ebsn::UserId>(i % kUsers);
      record.event = static_cast<ebsn::EventId>(i % kEvents);
      const IngestAdmission admission = queue.SubmitAsync(
          record, [&](Status status, uint64_t) {
            if (status.ok()) acked_ok.fetch_add(1);
          });
      if (admission == IngestAdmission::kShuttingDown) {
        shed.fetch_add(1);
        break;  // every later submit would shed the same way
      }
      ASSERT_EQ(admission, IngestAdmission::kAccepted);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.Shutdown();
  writer.join();

  // Shutdown drained: every accepted record was acked, never dropped.
  const obs::MetricsSnapshot metrics = service.metrics()->Snapshot();
  const uint64_t processed = IngestProcessed(metrics);
  EXPECT_EQ(processed, CounterValue(metrics, "gemrec_ingest_accepted_total"));
  EXPECT_EQ(acked_ok.load(), static_cast<int>(processed));
  // Whether the writer hit the race is timing-dependent; what must
  // hold is that it either finished or was shed with a typed verdict.
  EXPECT_LE(shed.load(), 1);
}

}  // namespace
}  // namespace gemrec::serving
