// Differential harness for the streaming write path (DESIGN.md §14):
// the same interleaved sequence of attendance / new-user / new-event
// records is (a) streamed through the full online stack — wire frames
// into NetServer, bridged into IngestionQueue, journaled, folded into
// the SnapshotBuilder staging store, delta-published — and (b) applied
// offline to a second builder with the identical option set. Fold-ins
// are deterministic (fresh seeded Rng per call), so both timelines
// must agree BITWISE: staging stores float-identical, and per-user
// partner and reciprocal top-k identical on the quantized batch walk,
// which every delta publish must requantize.

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "recommend/query_kinds.h"
#include "serving/ingestion_queue.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::serving {
namespace {

namespace fs = std::filesystem;

// The write path folds events into their TimeSlotsFor slots (ids in
// [0, 33)), so ingest-capable stores need a full kTime matrix; regions
// and words get small matrices the sequence stays within.
constexpr uint32_t kUsers = 12;
constexpr uint32_t kEventRows = 18;   // matrix rows (max event id + 1)
constexpr uint32_t kInitialEvents = 14;  // serving pool before ingest
constexpr uint32_t kLocations = 4;
constexpr uint32_t kTimeSlots = 33;
constexpr uint32_t kWords = 50;
constexpr uint32_t kDim = 8;

embedding::EmbeddingStore IngestStore(uint64_t seed) {
  embedding::EmbeddingStore store(
      kDim, std::array<uint32_t, 5>{kUsers, kEventRows, kLocations,
                                    kTimeSlots, kWords});
  Rng rng(seed);
  for (size_t t = 0; t < embedding::EmbeddingStore::kNumTypes; ++t) {
    store.MatrixOf(static_cast<graph::NodeType>(t))
        .FillAbsGaussian(&rng, 0.2, 0.3);
  }
  return store;
}

std::vector<ebsn::EventId> InitialPool() {
  std::vector<ebsn::EventId> events(kInitialEvents);
  for (uint32_t x = 0; x < kInitialEvents; ++x) events[x] = x;
  return events;
}

// One logical write, expressible both as a wire frame (online) and as
// a direct fold-in (offline reference).
struct Op {
  bool is_new_event = false;
  ebsn::UserId user = 0;
  ebsn::EventId event = 0;
  bool new_user = false;
  embedding::NewEventSignals signals;
};

// Deterministic interleaving: plain attendance nudges, cold-user
// fold-ins, and cold-event fold-ins for ids outside the initial pool.
std::vector<Op> MakeSequence() {
  std::vector<Op> ops;
  ebsn::EventId next_event = kInitialEvents;
  for (uint32_t i = 0; i < 30; ++i) {
    Op op;
    if (i % 7 == 2 && next_event < kEventRows) {
      op.is_new_event = true;
      op.event = next_event++;
      op.signals.region = op.event % kLocations;
      op.signals.start_time =
          1700000000 + static_cast<int64_t>(i) * 86400;
      op.signals.words = {{(i * 3) % kWords, 0.75f},
                          {(i * 11 + 1) % kWords, 1.5f}};
    } else {
      op.user = (i * 5) % kUsers;
      op.event = (i * 3) % kInitialEvents;
      op.new_user = (i % 7 == 5);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void ExpectStoresBitExact(const embedding::EmbeddingStore& a,
                          const embedding::EmbeddingStore& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t t = 0; t < embedding::EmbeddingStore::kNumTypes; ++t) {
    const auto type = static_cast<graph::NodeType>(t);
    ASSERT_EQ(a.CountOf(type), b.CountOf(type));
    for (uint32_t r = 0; r < a.CountOf(type); ++r) {
      ASSERT_EQ(std::memcmp(a.VectorOf(type, r), b.VectorOf(type, r),
                            a.dim() * sizeof(float)),
                0)
          << "node type " << t << " row " << r;
    }
  }
}

class IngestDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gemrec_diff_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

// Applies `ops` to `builder` exactly the way IngestionQueue's apply
// step does — same fold-in wrappers, same options, same pool-append
// order — without any of the queue/journal machinery.
void ApplyOffline(SnapshotBuilder* builder,
                  const std::vector<Op>& ops,
                  const IngestionQueueOptions& iq) {
  std::vector<ebsn::EventId> pool = builder->event_pool();
  std::set<ebsn::EventId> members(pool.begin(), pool.end());
  for (const Op& op : ops) {
    if (op.is_new_event) {
      ASSERT_TRUE(
          builder->FoldInEvent(op.event, op.signals, iq.foldin).ok());
      if (members.insert(op.event).second) {
        pool.push_back(op.event);
        builder->set_event_pool(pool);
      }
    } else if (op.new_user) {
      embedding::NewUserSignals signals;
      signals.attended_events.push_back(op.event);
      ASSERT_TRUE(builder->FoldInUser(op.user, signals, iq.foldin).ok());
    } else {
      ASSERT_TRUE(
          builder->RecordAttendance(op.user, op.event, iq.nudge).ok());
    }
  }
}

// The full differential: online (wire -> queue -> journal -> publish)
// vs offline reference, compared bitwise over the quantized batch walk
// (which exercises requantization on every publish), for partner and
// reciprocal queries.
void RunDifferential(const fs::path& dir) {
  const embedding::EmbeddingStore base = IngestStore(/*seed=*/99);
  const std::vector<Op> ops = MakeSequence();

  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  ServiceOptions service_options;
  service_options.num_workers = 2;
  IngestionQueueOptions iq;
  iq.journal_path = (dir / "journal").string();
  iq.publish_threshold = 8;  // several delta publishes over 30 ops

  // --- Online timeline ---
  SnapshotBuilder online_builder(base, InitialPool(), kUsers,
                                 snapshot_options);
  RecommendationService online_service(service_options);
  IngestionQueue queue(&online_service, &online_builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  net::NetServer server(&online_service, net::ServerOptions{}, &queue);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  uint64_t expected_seq = 0;
  for (const Op& op : ops) {
    auto outcome =
        op.is_new_event
            ? (*client)->PublishNewEvent(op.event, op.signals)
            : (*client)->Attend(op.user, op.event, op.new_user);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->ok) << outcome->error_message;
    // Journal order == ack order == the order we sent.
    EXPECT_EQ(outcome->seq, ++expected_seq);
  }
  queue.Flush();
  const obs::MetricsSnapshot metrics = online_service.metrics()->Snapshot();
  EXPECT_EQ(testing::IngestProcessed(metrics), ops.size());
  EXPECT_GE(
      testing::CounterValue(metrics, "gemrec_ingest_publishes_total"), 2u);
  server.Stop();
  queue.Shutdown();  // ingest thread gone; the builder is ours now

  // --- Offline reference ---
  SnapshotBuilder offline_builder(base, InitialPool(), kUsers,
                                  snapshot_options);
  ApplyOffline(&offline_builder, ops, iq);
  RecommendationService offline_service(service_options);
  offline_service.Publish(offline_builder.Build());

  // (a) The staging stores are float-identical.
  ExpectStoresBitExact(*online_builder.staging_store(),
                       *offline_builder.staging_store());
  EXPECT_EQ(online_builder.event_pool(), offline_builder.event_pool());

  // (b) So is everything either service answers, and the reciprocal
  // answers equal the exhaustive oracle over the published snapshot.
  const auto expect_same = [](const std::vector<recommend::Recommendation>& a,
                              const std::vector<recommend::Recommendation>& b,
                              ebsn::UserId u) {
    ASSERT_EQ(a.size(), b.size()) << "u=" << u;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].event, b[i].event) << "u=" << u << " rank " << i;
      EXPECT_EQ(a[i].partner, b[i].partner) << "u=" << u << " rank " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "u=" << u << " rank " << i;
    }
  };
  const auto offline_snapshot = offline_service.CurrentSnapshot();
  for (const recommend::QueryKind kind :
       {recommend::QueryKind::kPartner, recommend::QueryKind::kReciprocal}) {
    for (ebsn::UserId u = 0; u < kUsers; ++u) {
      QueryRequest request;
      request.user = u;
      request.n = 7;
      request.kind = kind;
      request.bypass_cache = true;
      const QueryResponse online = online_service.Query(request);
      const QueryResponse offline = offline_service.Query(request);
      ASSERT_EQ(online.code, serving::ResponseCode::kOk);
      ASSERT_GT(online.items.size(), 0u) << "u=" << u;
      expect_same(online.items, offline.items, u);
      if (kind == recommend::QueryKind::kReciprocal) {
        expect_same(online.items,
                    recommend::ReciprocalTopPairs(offline_snapshot->model(),
                                                  offline_snapshot->space(),
                                                  u, request.n),
                    u);
      }
    }
  }
}

TEST_F(IngestDifferentialTest, OnlineMatchesOfflineQuantizedBatched) {
  RunDifferential(dir_);
}

TEST_F(IngestDifferentialTest, DeltaPublishRequantizesFoldedInEvents) {
  // Regression: the delta publisher must rebuild QuantizedSpace +
  // BatchTaSearch, not just the exact index — a folded-in event has to
  // be retrievable through the default batched path. With n covering
  // every (event, partner) pair, the new event MUST appear.
  const embedding::EmbeddingStore base = IngestStore(/*seed=*/7);
  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  SnapshotBuilder builder(base, InitialPool(), kUsers, snapshot_options);
  ServiceOptions service_options;  // default: quantized batched
  RecommendationService service(service_options);
  IngestionQueueOptions iq;
  iq.journal_path = (dir_ / "journal").string();
  iq.publish_threshold = 1;
  IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());

  IngestRecord record;
  record.kind = IngestKind::kNewEvent;
  record.event = kInitialEvents;  // first id outside the initial pool
  record.signals.region = 1;
  record.signals.start_time = 1710000000;
  record.signals.words = {{4, 1.0f}};
  auto seq = queue.Submit(record);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  queue.Flush();

  QueryRequest request;
  request.user = 3;
  // All pairs of the grown pool fit under n, so absence would mean the
  // quantized companion was not rebuilt with the new event.
  request.n = (kInitialEvents + 1) * (kUsers - 1);
  request.bypass_cache = true;
  const QueryResponse response = service.Query(request);
  ASSERT_EQ(response.code, serving::ResponseCode::kOk);
  bool found = false;
  for (const auto& item : response.items) {
    if (item.event == record.event) found = true;
  }
  EXPECT_TRUE(found)
      << "folded-in event missing from batched retrieval after publish";
  queue.Shutdown();
}

}  // namespace
}  // namespace gemrec::serving
