// SnapshotBuilder's publish contract: BuildNext, which ranks again only
// the partners a change can reach and copies every other partner's
// list from its previous snapshot, must produce bitwise the snapshot a
// from-scratch Build() of the same staging state produces — pairs, C,
// groups, inverse maps, the C order, quantization parameters, codes,
// block order and block maxes — at every publish of seeded write
// streams, unsharded and under every shard of N = 2 and N = 3. The
// streams mix attendance nudges, cold-user fold-ins, appended events
// (two with identical signals, so the ranking sees tied scores, one
// that a clean partner ranks k-th followed by its duplicate, and one
// that enters most lists), re-folds of pooled events, non-append pool
// edits and store resets. One step records an attendance that moves a
// partner-half column's min or max; each stream must publish both with
// the partner-half quantization parameters held (the previous codes
// are copied) and with them moved (every row is encoded again).
// Also here: recovery refuses a checkpoint whose pool does not fit its
// own store, and IngestionQueue::Start keeps a served snapshot built
// from exactly the builder's inputs instead of building it again.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/metrics.h"
#include "../testing/space_equality.h"
#include "common/rng.h"
#include "common/vec_math.h"
#include "serving/ingest_journal.h"
#include "serving/ingestion_queue.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"

namespace gemrec::serving {
namespace {

namespace fs = std::filesystem;
using ::gemrec::testing::ExpectBitwiseEqual;
using ::gemrec::testing::ExpectSameIndex;
using ::gemrec::testing::ExpectSameQuantization;
using ::gemrec::testing::PartnerParamsKey;

constexpr uint32_t kUsers = 40;
constexpr uint32_t kEventRows = 72;
constexpr uint32_t kInitialEvents = 24;
constexpr uint32_t kLocations = 4;
constexpr uint32_t kTimeSlots = 33;
constexpr uint32_t kWords = 50;
constexpr uint32_t kDim = 8;
constexpr uint32_t kTopK = 5;
constexpr int kPublishes = 36;

embedding::EmbeddingStore DeltaStore(uint64_t seed) {
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

void ExpectSameSnapshot(const ModelSnapshot& got, const ModelSnapshot& want) {
  EXPECT_EQ(got.events(), want.events());
  EXPECT_EQ(got.shard_events(), want.shard_events());
  EXPECT_EQ(got.pool_hash(), want.pool_hash());

  const recommend::TransformedSpace& gs = got.space();
  const recommend::TransformedSpace& ws = want.space();
  ASSERT_EQ(gs.num_points(), ws.num_points());
  ExpectBitwiseEqual(gs.pairs().data(), ws.pairs().data(), ws.num_points(),
                     "pairs");
  ExpectBitwiseEqual(gs.c_values(), ws.c_values(), "C");

  ExpectSameIndex(got.index(), want.index());
  ExpectSameQuantization(got.quantized(), want.quantized());
}

/// Share of owned partners whose list holds `event`.
double ListShare(const ModelSnapshot& snapshot, ebsn::EventId event) {
  const auto& pairs = snapshot.space().pairs();
  if (pairs.empty()) return 0.0;
  size_t holding = 0;
  for (const recommend::CandidatePair& pair : pairs) {
    holding += pair.event == event ? 1 : 0;
  }
  return static_cast<double>(holding * kTopK) /
         static_cast<double>(pairs.size());
}

embedding::NewEventSignals SignalsFor(uint32_t i) {
  embedding::NewEventSignals signals;
  signals.region = i % kLocations;
  signals.start_time = 1700000000 + static_cast<int64_t>(i) * 86400;
  signals.words = {{(i * 3) % kWords, 0.75f}, {(i * 11 + 1) % kWords, 1.5f}};
  return signals;
}

/// Drives one seeded write stream against one builder, publishing with
/// BuildNext and checking each publish against Build().
class WriteStream {
 public:
  WriteStream(uint64_t seed, const shard::ShardSpec& spec)
      : rng_(seed), seed_(seed) {
    SnapshotOptions options;
    options.top_k_events_per_partner = kTopK;
    options.shard = spec;
    pool_ = InitialPool();
    builder_ = std::make_unique<SnapshotBuilder>(DeltaStore(seed), pool_,
                                                 kUsers, options);
  }

  void Run() {
    for (int step = 0; step < kPublishes; ++step) {
      SCOPED_TRACE(::testing::Message() << "publish " << step);
      switch (step) {
        case 4:  // two appended events with identical signals: ties
          AppendEvent(SignalsFor(1000), foldin_);
          AppendEvent(SignalsFor(1000), foldin_);
          break;
        case 6:  // an appended event that lands at a partner's k-th slot
          AppendKthEvent();
          break;
        case 7: {  // its duplicate: ties that clean partner's k-th score
          const ebsn::EventId duplicate = AppendEvent(kth_signals_, foldin_);
          EXPECT_EQ(0, std::memcmp(EventRow(kth_event_), EventRow(duplicate),
                                   kDim * sizeof(float)));
          break;
        }
        case 8: {  // an event that enters most partners' lists
          embedding::OnlineUpdateOptions hot = foldin_;
          hot.bias = 60.0f;
          hot.learning_rate = 2.0f;
          hot_event_ = AppendEvent(SignalsFor(7), hot);
          break;
        }
        case 12:  // re-fold of a pooled event
          ASSERT_TRUE(builder_
                          ->FoldInEvent(pool_[rng_.UniformInt(pool_.size())],
                                        SignalsFor(step), foldin_)
                          .ok());
          break;
        case 16:  // a pool edit that is not an append
          pool_.erase(pool_.begin() + 3);
          builder_->set_event_pool(pool_);
          break;
        case 20:
        case 29:  // a reload
          builder_->ResetStagingStore(DeltaStore(seed_ + 1000 + step));
          break;
        case 24:  // nothing changed
          break;
        case 26:  // a write that moves a partner-half column's min or max
          MoveColumnExtreme(*previous_);
          break;
        default:
          RandomWrites(1 + static_cast<int>(rng_.UniformInt(4)));
      }
      const auto next = builder_->BuildNext();
      const auto full = builder_->Build();
      ExpectSameSnapshot(*next, *full);
      // A publish after a step that is not a reset, a re-fold or a pool
      // edit reuses the previous snapshot; it copies the previous
      // partner codes only when the partner-half parameters held.
      const bool delta_publish =
          step != 0 && step != 12 && step != 16 && step != 20 && step != 29;
      if (delta_publish) {
        const bool params_held = PartnerParamsKey(next->quantized()) ==
                                 PartnerParamsKey(previous_->quantized());
        ++(params_held ? codes_reused_ : codes_encoded_);
        if (step == 26) {
          EXPECT_FALSE(params_held)
              << "the write should move the partner-half parameters";
        }
      }
      previous_ = next;
      if (step == 6 || step == 7) {
        // The tie goes to the lower pool position: the duplicate stays
        // out and the partner keeps the first event at slot k.
        EXPECT_EQ(KthEventOf(*full, kth_partner_), kth_event_);
      }
      if (step == 8 && full->space().num_points() > 0) {
        EXPECT_GT(ListShare(*full, hot_event_), 0.5)
            << "the hot event should enter most partners' lists";
      }
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(codes_reused_, 0) << "no publish copied the partner codes";
    EXPECT_GT(codes_encoded_, 0) << "no publish encoded every partner row";
  }

 private:
  const float* EventRow(ebsn::EventId event) const {
    return builder_->staging_store()->VectorOf(graph::NodeType::kEvent, event);
  }

  /// The event at slot k of partner u's slice in `snapshot`.
  static ebsn::EventId KthEventOf(const ModelSnapshot& snapshot,
                                  ebsn::UserId u) {
    const auto& pairs = snapshot.space().pairs();
    for (size_t i = 0; i < pairs.size(); i += kTopK) {
      if (pairs[i].partner == u) return pairs[i + kTopK - 1].event;
    }
    ADD_FAILURE() << "partner " << u << " has no slice";
    return ebsn::kInvalidId;
  }

  /// Appends a folded-in event that some owned partner ranks exactly
  /// k-th: fold-ins of candidate signals are tried on a copy of the
  /// staging store until one has exactly k - 1 pool events scoring at
  /// least as high (the appended event has the highest position).
  void AppendKthEvent() {
    const auto last = builder_->Build();
    const auto& pairs = last->space().pairs();
    for (uint32_t i = 0; i < 200; ++i) {
      embedding::EmbeddingStore probe = *builder_->staging_store();
      const embedding::NewEventSignals signals = SignalsFor(2000 + i);
      ASSERT_TRUE(
          embedding::FoldInColdEvent(&probe, next_event_, signals, foldin_)
              .ok());
      const float* row = probe.VectorOf(graph::NodeType::kEvent, next_event_);
      for (size_t p = 0; p < pairs.size(); p += kTopK) {
        const ebsn::UserId u = pairs[p].partner;
        const float* uv = probe.VectorOf(graph::NodeType::kUser, u);
        const float score = Dot(uv, row, kDim);
        size_t above = 0;
        for (ebsn::EventId x : pool_) {
          above += Dot(uv, probe.VectorOf(graph::NodeType::kEvent, x),
                       kDim) >= score ? 1 : 0;
        }
        if (above == kTopK - 1) {
          kth_signals_ = signals;
          kth_partner_ = u;
          kth_event_ = AppendEvent(signals, foldin_);
          return;
        }
      }
    }
    FAIL() << "no candidate event lands at a partner's k-th slot";
  }

  /// Records an attendance that moves a column's min or max over the
  /// owned partners' rows, and so the partner-half parameters:
  /// candidate attendances are tried on a copy of the staging store
  /// until one does.
  void MoveColumnExtreme(const ModelSnapshot& last) {
    const std::vector<ebsn::UserId>& partners = last.index().partners();
    auto extremes = [&](const embedding::EmbeddingStore& store) {
      std::vector<float> out;
      for (uint32_t d = 0; d < kDim; ++d) {
        float lo = 0.0f, hi = 0.0f;
        for (size_t i = 0; i < partners.size(); ++i) {
          const float v =
              store.VectorOf(graph::NodeType::kUser, partners[i])[d];
          lo = i == 0 ? v : std::min(lo, v);
          hi = i == 0 ? v : std::max(hi, v);
        }
        out.push_back(lo);
        out.push_back(hi);
      }
      return out;
    };
    const std::vector<float> before = extremes(*builder_->staging_store());
    for (const ebsn::UserId u : partners) {
      for (const ebsn::EventId x : pool_) {
        embedding::EmbeddingStore probe = *builder_->staging_store();
        ASSERT_TRUE(
            embedding::UpdateUserWithAttendance(&probe, u, x, nudge_).ok());
        if (extremes(probe) != before) {
          ASSERT_TRUE(builder_->RecordAttendance(u, x, nudge_).ok());
          return;
        }
      }
    }
    FAIL() << "no attendance moves a partner-half column's min or max";
  }

  ebsn::EventId AppendEvent(const embedding::NewEventSignals& signals,
                            const embedding::OnlineUpdateOptions& options) {
    const ebsn::EventId event = next_event_++;
    EXPECT_LT(event, kEventRows);
    EXPECT_TRUE(builder_->FoldInEvent(event, signals, options).ok());
    pool_.push_back(event);
    builder_->set_event_pool(pool_);
    return event;
  }

  void RandomWrites(int count) {
    for (int i = 0; i < count; ++i) {
      const uint64_t roll = rng_.UniformInt(10);
      const auto user = static_cast<ebsn::UserId>(rng_.UniformInt(kUsers));
      const ebsn::EventId attended = pool_[rng_.UniformInt(pool_.size())];
      if (roll < 6) {
        ASSERT_TRUE(builder_->RecordAttendance(user, attended, nudge_).ok());
      } else if (roll < 8) {
        embedding::NewUserSignals signals;
        signals.attended_events = {attended,
                                   pool_[rng_.UniformInt(pool_.size())]};
        ASSERT_TRUE(builder_->FoldInUser(user, signals, foldin_).ok());
      } else if (next_event_ < kEventRows - 4) {
        AppendEvent(SignalsFor(static_cast<uint32_t>(next_event_)), foldin_);
      }
    }
  }

  Rng rng_;
  uint64_t seed_;
  std::vector<ebsn::EventId> pool_;
  std::unique_ptr<SnapshotBuilder> builder_;
  std::shared_ptr<const ModelSnapshot> previous_;  // the last BuildNext
  int codes_reused_ = 0;
  int codes_encoded_ = 0;
  ebsn::EventId next_event_ = kInitialEvents;
  ebsn::EventId hot_event_ = 0;
  embedding::NewEventSignals kth_signals_;
  ebsn::UserId kth_partner_ = 0;
  ebsn::EventId kth_event_ = 0;
  embedding::OnlineUpdateOptions foldin_;
  embedding::OnlineUpdateOptions nudge_ = [] {
    embedding::OnlineUpdateOptions o;
    o.iterations = 20;
    return o;
  }();
};

/// (shard index, shard count, stream seed); count 1 is unsharded.
class SnapshotDeltaTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint64_t>> {
};

TEST_P(SnapshotDeltaTest, EveryPublishEqualsAFullBuild) {
  const auto [index, count, seed] = GetParam();
  WriteStream(seed, shard::ShardSpec{index, count}).Run();
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SnapshotDeltaTest,
    ::testing::Values(std::make_tuple(0u, 1u, 11u), std::make_tuple(0u, 1u, 12u),
                      std::make_tuple(0u, 1u, 13u), std::make_tuple(0u, 2u, 21u),
                      std::make_tuple(1u, 2u, 21u), std::make_tuple(0u, 3u, 31u),
                      std::make_tuple(1u, 3u, 31u), std::make_tuple(2u, 3u, 31u)));

/// The pool a recovered checkpoint carries is checked against that
/// checkpoint's own store before either reaches the builder.
/// A per-test temporary directory for journals and checkpoints.
class IngestDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("gemrec_snapshot_builder_" + std::to_string(::getpid()) + "_" +
            info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

class CheckpointShapeTest : public IngestDirTest {
 protected:
  /// Starts a queue over a valid base after writing a checkpoint whose
  /// pool is `checkpoint_pool`.
  Status StartWithCheckpointPool(std::vector<ebsn::EventId> checkpoint_pool) {
    const std::string base = (dir_ / "checkpoint").string();
    EXPECT_TRUE(
        SaveIngestCheckpoint(base, DeltaStore(5), checkpoint_pool, 3).ok());
    SnapshotBuilder builder(DeltaStore(4), InitialPool(), kUsers,
                            SnapshotOptions{});
    RecommendationService service(ServiceOptions{});
    IngestionQueueOptions iq;
    iq.journal_path = (dir_ / "journal").string();
    iq.checkpoint_base = base;
    IngestionQueue queue(&service, &builder, iq);
    return queue.Start();
  }
};

TEST_F(CheckpointShapeTest, PoolNamingAnEventPastTheStoreIsRefused) {
  const Status s = StartWithCheckpointPool({0, 1, kEventRows});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(CheckpointShapeTest, PoolListingAnEventTwiceIsRefused) {
  const Status s = StartWithCheckpointPool({0, 1, 2, 1});
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(CheckpointShapeTest, FittingCheckpointStarts) {
  const Status s = StartWithCheckpointPool({0, 1, kEventRows - 1});
  EXPECT_TRUE(s.ok()) << s.ToString();
}

class IngestStartTest : public IngestDirTest {
 protected:
  IngestStartTest() { options_.top_k_events_per_partner = kTopK; }

  IngestionQueueOptions QueueOptions() const {
    IngestionQueueOptions iq;
    iq.journal_path = (dir_ / "journal").string();
    return iq;
  }

  uint64_t Publishes(const RecommendationService& service) const {
    return ::gemrec::testing::CounterValue(service.metrics()->Snapshot(),
                                           "gemrec_ingest_publishes_total");
  }

  SnapshotOptions options_;
};

TEST_F(IngestStartTest, KeepsTheServedBuildOnAnEmptyJournal) {
  SnapshotBuilder builder(DeltaStore(4), InitialPool(), kUsers, options_);
  RecommendationService service(ServiceOptions{});
  const std::shared_ptr<ModelSnapshot> booted = builder.Build();
  service.Publish(booted);
  const IngestionQueueOptions iq = QueueOptions();
  IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  EXPECT_EQ(service.CurrentSnapshot().get(), booted.get());
  EXPECT_EQ(service.CurrentSnapshot()->epoch(), 1u);
  EXPECT_EQ(Publishes(service), 0u);

  // The kept snapshot is the delta base of the next publish, which
  // must still equal a from-scratch build of the same state.
  IngestRecord record;
  record.user = 7;
  record.event = 3;
  ASSERT_TRUE(queue.Submit(record).ok());
  queue.Flush();
  const std::shared_ptr<const ModelSnapshot> served =
      service.CurrentSnapshot();
  EXPECT_EQ(served->epoch(), 2u);
  SnapshotBuilder fresh(DeltaStore(4), InitialPool(), kUsers, options_);
  ASSERT_TRUE(fresh.RecordAttendance(7, 3, iq.nudge).ok());
  ExpectSameSnapshot(*served, *fresh.Build());
  queue.Shutdown();
}

TEST_F(IngestStartTest, FoldInStagedAfterThePublishMakesStartPublish) {
  SnapshotBuilder builder(DeltaStore(4), InitialPool(), kUsers, options_);
  RecommendationService service(ServiceOptions{});
  const std::shared_ptr<ModelSnapshot> booted = builder.Build();
  service.Publish(booted);
  const IngestionQueueOptions iq = QueueOptions();
  ASSERT_TRUE(builder.RecordAttendance(5, 2, iq.nudge).ok());
  IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  const std::shared_ptr<const ModelSnapshot> served =
      service.CurrentSnapshot();
  EXPECT_NE(served.get(), booted.get());
  EXPECT_EQ(served->epoch(), 2u);
  EXPECT_EQ(Publishes(service), 1u);
  ExpectSameSnapshot(*served, *builder.Build());
  queue.Shutdown();
}

TEST_F(IngestStartTest, SnapshotOfAnotherStoreMakesStartPublish) {
  SnapshotBuilder builder(DeltaStore(4), InitialPool(), kUsers, options_);
  SnapshotBuilder other(DeltaStore(9), InitialPool(), kUsers, options_);
  RecommendationService service(ServiceOptions{});
  const std::shared_ptr<ModelSnapshot> booted = other.Build();
  service.Publish(booted);
  IngestionQueue queue(&service, &builder, QueueOptions());
  ASSERT_TRUE(queue.Start().ok());
  const std::shared_ptr<const ModelSnapshot> served =
      service.CurrentSnapshot();
  EXPECT_NE(served.get(), booted.get());
  EXPECT_EQ(served->epoch(), 2u);
  EXPECT_EQ(Publishes(service), 1u);
  ExpectSameSnapshot(*served, *builder.Build());
  queue.Shutdown();
}

}  // namespace
}  // namespace gemrec::serving
