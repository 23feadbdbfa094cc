// GroupScan, the served group ranking, against the exhaustive oracle
// GroupTopEvents: items, score bits and bound bits must match for sum
// and min over seeded spaces that stress the norm-ordered bounds —
// rows parallel to the reduced vector (where Cauchy–Schwarz is tight)
// with equal-norm duplicates visited in reverse id order, score ties
// across the cut, zero rows, signed rows, n = 0 and n >= |slice|, one
// member, kMaxGroupMembers members and repeated members — and over
// snapshot slices: the shards of N = 2 and 3 and a delta publish with
// appended pool events. (ta_alloc_test pins that a warm scan allocates
// only the items it returns.)

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/wire.h"
#include "recommend/query_kinds.h"
#include "serving/model_snapshot.h"
#include "serving/snapshot_builder.h"

namespace gemrec::recommend {
namespace {

constexpr GroupAggregator kAggregators[] = {GroupAggregator::kSum,
                                            GroupAggregator::kMin};

std::unique_ptr<embedding::EmbeddingStore> ZeroStore(uint32_t num_users,
                                                     uint32_t num_events,
                                                     uint32_t dim) {
  return std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
}

/// Rows drawn |N(0.2, 0.3²)| (rectified, like trained embeddings) or,
/// with `signed_rows`, N(0, 0.3²).
std::unique_ptr<embedding::EmbeddingStore> RandomStore(uint32_t num_users,
                                                       uint32_t num_events,
                                                       uint32_t dim,
                                                       uint64_t seed,
                                                       bool signed_rows) {
  auto store = ZeroStore(num_users, num_events, dim);
  Rng rng(seed);
  for (const graph::NodeType type :
       {graph::NodeType::kUser, graph::NodeType::kEvent}) {
    if (signed_rows) {
      store->MatrixOf(type).FillGaussian(&rng, 0.0, 0.3);
    } else {
      store->MatrixOf(type).FillAbsGaussian(&rng, 0.2, 0.3);
    }
  }
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t n) {
  std::vector<ebsn::EventId> events(n);
  for (uint32_t x = 0; x < n; ++x) events[x] = x;
  return events;
}

std::string Describe(GroupAggregator agg, size_t n,
                     const std::vector<ebsn::UserId>& members) {
  return std::string(GroupAggregatorName(agg)) + " n=" + std::to_string(n) +
         " |M|=" + std::to_string(members.size());
}

/// GroupScan over `ordered` must return bitwise what GroupTopEvents
/// returns over `events` (the same set in any order). Returns the
/// scan's stats.
SearchStats ExpectScanMatchesOracle(const GemModel& model,
                                    const std::vector<ebsn::EventId>& events,
                                    const EventsByNorm& ordered,
                                    ebsn::UserId user,
                                    const std::vector<ebsn::UserId>& members,
                                    GroupAggregator agg, size_t n,
                                    GroupScanScratch* scratch) {
  SCOPED_TRACE(Describe(agg, n, members));
  float want_bound = 0.0f;
  const std::vector<Recommendation> want =
      GroupTopEvents(model, events, user, members, agg, n, &want_bound);
  SearchStats stats;
  const std::vector<Recommendation> got =
      GroupScan(model, ordered, user, members, agg, n, scratch, &stats);
  EXPECT_EQ(got.size(), want.size());
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].event, want[i].event) << "rank " << i;
    EXPECT_EQ(got[i].partner, want[i].partner) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i].score),
              std::bit_cast<uint32_t>(want[i].score))
        << "rank " << i << ": " << got[i].score << " vs " << want[i].score;
  }
  EXPECT_EQ(std::bit_cast<uint32_t>(stats.unreturned_bound),
            std::bit_cast<uint32_t>(want_bound))
      << stats.unreturned_bound << " vs " << want_bound;
  EXPECT_LE(stats.points_examined, events.size());
  EXPECT_EQ(stats.examined_fraction,
            events.empty() ? 0.0
                           : static_cast<double>(stats.points_examined) /
                                 static_cast<double>(events.size()));
  return stats;
}

/// Both aggregators at every n in `ns`, over the pool `events`.
void ExpectAllMatch(const GemModel& model,
                    const std::vector<ebsn::EventId>& events,
                    ebsn::UserId user,
                    const std::vector<ebsn::UserId>& members,
                    const std::vector<size_t>& ns) {
  const EventsByNorm ordered = OrderEventsByNorm(model, events);
  GroupScanScratch scratch;
  for (const GroupAggregator agg : kAggregators) {
    for (const size_t n : ns) {
      ExpectScanMatchesOracle(model, events, ordered, user, members, agg, n,
                              &scratch);
    }
  }
}

/// n = 0, small, around the slice size and past it.
std::vector<size_t> CutsFor(size_t size) {
  return {0, 1, 2, 5, 10, size - 1, size, size + 3};
}

TEST(OrderEventsByNormTest, DescendingNormTiesByPosition) {
  auto store = RandomStore(4, 40, 8, 3, /*signed_rows=*/false);
  // Events 7 and 21 get the row of event 30; 5 a zero row.
  auto& rows = store->MatrixOf(graph::NodeType::kEvent);
  std::copy_n(rows.Row(30), 8, rows.Row(7));
  std::copy_n(rows.Row(30), 8, rows.Row(21));
  std::fill_n(rows.Row(5), 8, 0.0f);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> pool = AllEvents(40);
  std::reverse(pool.begin(), pool.end());
  const EventsByNorm ordered = OrderEventsByNorm(model, pool);
  ASSERT_EQ(ordered.ids.size(), pool.size());
  ASSERT_EQ(ordered.norms.size(), pool.size());
  std::vector<size_t> position(40);
  for (size_t j = 0; j < pool.size(); ++j) position[pool[j]] = j;
  for (size_t j = 0; j < ordered.ids.size(); ++j) {
    EXPECT_EQ(ordered.norms[j],
              NormInDouble(model.EventVec(ordered.ids[j]), model.dim()));
    if (j == 0) continue;
    const double prev = ordered.norms[j - 1];
    const double cur = ordered.norms[j];
    EXPECT_TRUE(prev > cur || (prev == cur && position[ordered.ids[j - 1]] <
                                                  position[ordered.ids[j]]))
        << "slot " << j;
  }
  EXPECT_EQ(ordered.ids.back(), 5u);
  EXPECT_EQ(ordered.norms.back(), 0.0);
}

TEST(GroupScanTest, SeededRectifiedAndSignedSpaces) {
  for (const bool signed_rows : {false, true}) {
    for (uint64_t seed = 0; seed < 24; ++seed) {
      const uint32_t dim = std::array<uint32_t, 4>{4, 13, 32, 64}[seed % 4];
      const uint32_t num_events = 40 + static_cast<uint32_t>(seed * 7 % 120);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " dim " << dim << " signed "
                   << signed_rows);
      auto store = RandomStore(30, num_events, dim, 100 + seed, signed_rows);
      GemModel model(store.get(), "GEM");
      Rng rng(seed);
      for (const size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
        const auto user = static_cast<ebsn::UserId>(rng.UniformInt(30));
        std::vector<ebsn::UserId> members;
        while (members.size() < size) {
          members.push_back(static_cast<ebsn::UserId>(rng.UniformInt(30)));
        }
        ExpectAllMatch(model, AllEvents(num_events), user, members,
                       CutsFor(num_events));
      }
    }
  }
}

/// Event rows s·r for the reduced vector r = |M|·ū + Σ m̄ of the query
/// (for one member also ū + m̄, the min aggregator's line): the norm
/// bound is tight there, so whether the computed score lies above or
/// below ‖r‖·‖x̄‖ + Σ u·m̄ is down to rounding. Each row is held by two
/// events, visited higher id first, so a bound that leaves out its
/// rounding slack loses the lower id's tie at the cut.
TEST(GroupScanTest, RowsParallelToTheReducedVector) {
  constexpr uint32_t kPairs = 24;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const uint32_t dim = seed % 2 == 0 ? 32 : 13;
    for (const size_t size : {size_t{1}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " dim " << dim << " |M| " << size);
      auto store = RandomStore(8, 2 * kPairs, dim, 500 + seed,
                               /*signed_rows=*/false);
      std::vector<ebsn::UserId> members;
      for (size_t i = 0; i < size; ++i) {
        members.push_back(static_cast<ebsn::UserId>(1 + i));
      }
      std::vector<float> r(dim);
      const float* uv = store->VectorOf(graph::NodeType::kUser, 0);
      for (uint32_t t = 0; t < dim; ++t) {
        double sum = static_cast<double>(size) * uv[t];
        for (const ebsn::UserId m : members) {
          sum += store->VectorOf(graph::NodeType::kUser, m)[t];
        }
        r[t] = static_cast<float>(sum);
      }
      Rng rng(seed);
      auto& rows = store->MatrixOf(graph::NodeType::kEvent);
      for (uint32_t j = 0; j < kPairs; ++j) {
        const float scale =
            1.0f + static_cast<float>(rng.UniformDouble()) * 0x1p-12f;
        for (uint32_t t = 0; t < dim; ++t) {
          rows.Row(j)[t] = scale * r[t];
          rows.Row(j + kPairs)[t] = rows.Row(j)[t];
        }
      }
      GemModel model(store.get(), "GEM");
      std::vector<ebsn::EventId> pool = AllEvents(2 * kPairs);
      std::reverse(pool.begin(), pool.end());
      ExpectAllMatch(model, pool, /*user=*/0, members,
                     {0, 1, 2, 3, 4, 6, 8, 10, 13});
    }
  }
}

/// Each of 12 random rows is held by 5 events at shuffled positions, so
/// equal norms and exact score ties fall at every cut.
TEST(GroupScanTest, EqualNormsAndScoreTiesAcrossTheCut) {
  constexpr uint32_t kRows = 12;
  constexpr uint32_t kCopies = 5;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    auto store = RandomStore(10, kRows * kCopies, 16, 900 + seed,
                             /*signed_rows=*/false);
    auto& rows = store->MatrixOf(graph::NodeType::kEvent);
    for (uint32_t x = kRows; x < kRows * kCopies; ++x) {
      std::copy_n(rows.Row(x % kRows), 16, rows.Row(x));
    }
    GemModel model(store.get(), "GEM");
    std::vector<ebsn::EventId> pool = AllEvents(kRows * kCopies);
    Rng rng(seed);
    for (size_t j = pool.size() - 1; j > 0; --j) {
      std::swap(pool[j], pool[rng.UniformInt(j + 1)]);
    }
    std::vector<size_t> ns;
    for (size_t n = 0; n <= 16; ++n) ns.push_back(n);
    ExpectAllMatch(model, pool, 0, {1, 2, 3}, ns);
    ExpectAllMatch(model, pool, 4, {5}, ns);
  }
}

TEST(GroupScanTest, ZeroRows) {
  constexpr uint32_t kEvents = 30;
  const std::vector<ebsn::EventId> pool = AllEvents(kEvents);
  // Every third event row zero.
  {
    auto store = RandomStore(6, kEvents, 8, 41, /*signed_rows=*/false);
    auto& rows = store->MatrixOf(graph::NodeType::kEvent);
    for (uint32_t x = 0; x < kEvents; x += 3) std::fill_n(rows.Row(x), 8, 0.0f);
    GemModel model(store.get(), "GEM");
    ExpectAllMatch(model, pool, 0, {1, 2}, CutsFor(kEvents));
  }
  // Every event row zero: all scores are the constant Σ u·m̄.
  {
    auto store = RandomStore(6, kEvents, 8, 42, /*signed_rows=*/false);
    store->MatrixOf(graph::NodeType::kEvent).Fill(0.0f);
    GemModel model(store.get(), "GEM");
    ExpectAllMatch(model, pool, 0, {1, 2}, CutsFor(kEvents));
  }
  // A zero user and zero members: every score is zero.
  {
    auto store = RandomStore(6, kEvents, 8, 43, /*signed_rows=*/false);
    store->MatrixOf(graph::NodeType::kUser).Fill(0.0f);
    GemModel model(store.get(), "GEM");
    ExpectAllMatch(model, pool, 0, {1, 2, 3}, CutsFor(kEvents));
  }
  // A zero store.
  {
    auto store = ZeroStore(6, kEvents, 8);
    GemModel model(store.get(), "GEM");
    ExpectAllMatch(model, pool, 0, {1}, CutsFor(kEvents));
  }
}

TEST(GroupScanTest, EmptySlice) {
  auto store = RandomStore(4, 4, 8, 7, /*signed_rows=*/false);
  GemModel model(store.get(), "GEM");
  ExpectAllMatch(model, {}, 0, {1, 2}, {0, 1, 5});
}

TEST(GroupScanTest, OneMemberMaxMembersAndRepeatedMembers) {
  constexpr uint32_t kUsers = net::kMaxGroupMembers + 4;
  constexpr uint32_t kEvents = 150;
  auto store = RandomStore(kUsers, kEvents, 32, 77, /*signed_rows=*/false);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::EventId> pool = AllEvents(kEvents);
  const std::vector<size_t> ns = {0, 1, 10, kEvents - 1, kEvents};

  ExpectAllMatch(model, pool, 0, {7}, ns);
  ExpectAllMatch(model, pool, 7, {7}, ns);  // the user as its own member

  std::vector<ebsn::UserId> all;
  for (ebsn::UserId m = 1; all.size() < net::kMaxGroupMembers; ++m) {
    all.push_back(m);
  }
  ExpectAllMatch(model, pool, 0, all, ns);

  ExpectAllMatch(model, pool, 0, {3, 3, 3, 5}, ns);
  ExpectAllMatch(model, pool, 0, {5, 3, 5, 3, 5}, ns);
  std::vector<ebsn::UserId> repeated;
  Rng rng(5);
  while (repeated.size() < net::kMaxGroupMembers) {
    repeated.push_back(static_cast<ebsn::UserId>(1 + rng.UniformInt(4)));
  }
  ExpectAllMatch(model, pool, 0, repeated, ns);
}

/// On random rectified rows the sum's bounds leave most events
/// unscored; the min's per-member lines are looser there, but still
/// prune. (On the trained serving benchmark city, sum scores about 1%
/// of the events and min about 3%; DESIGN §17.2.)
TEST(GroupScanTest, BoundsPrune) {
  constexpr uint32_t kEvents = 600;
  auto store = RandomStore(50, kEvents, 32, 11, /*signed_rows=*/false);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::EventId> pool = AllEvents(kEvents);
  const EventsByNorm ordered = OrderEventsByNorm(model, pool);
  GroupScanScratch scratch;
  Rng rng(11);
  for (const GroupAggregator agg : kAggregators) {
    size_t scored = 0;
    constexpr int kQueries = 30;
    for (int q = 0; q < kQueries; ++q) {
      const auto user = static_cast<ebsn::UserId>(rng.UniformInt(50));
      std::vector<ebsn::UserId> members;
      while (members.size() < 3) {
        members.push_back(static_cast<ebsn::UserId>(rng.UniformInt(50)));
      }
      scored += ExpectScanMatchesOracle(model, pool, ordered, user, members,
                                        agg, 10, &scratch)
                    .points_examined;
    }
    const size_t most = agg == GroupAggregator::kSum ? kQueries * kEvents / 10
                                                     : kQueries * kEvents * 9 / 10;
    EXPECT_LT(scored, most) << GroupAggregatorName(agg);
  }
}

/// The embedding-store shape a SnapshotBuilder folds events into.
embedding::EmbeddingStore BuilderStore(uint64_t seed) {
  embedding::EmbeddingStore store(8, std::array<uint32_t, 5>{30, 80, 4, 33, 50});
  Rng rng(seed);
  for (size_t t = 0; t < embedding::EmbeddingStore::kNumTypes; ++t) {
    store.MatrixOf(static_cast<graph::NodeType>(t))
        .FillAbsGaussian(&rng, 0.2, 0.3);
  }
  return store;
}

/// A snapshot's slice is its owned pool events in OrderEventsByNorm
/// order, and GroupScan over it is the oracle over shard_events().
void ExpectSnapshotSliceServes(const serving::ModelSnapshot& snapshot,
                               const shard::ShardSpec& spec) {
  std::vector<ebsn::EventId> owned;
  for (const ebsn::EventId x : snapshot.events()) {
    if (shard::OwnsEvent(spec, x)) owned.push_back(x);
  }
  const EventsByNorm want = OrderEventsByNorm(snapshot.model(), owned);
  const EventsByNorm& slice = snapshot.shard_events_by_norm();
  EXPECT_EQ(slice.ids, want.ids);
  EXPECT_EQ(slice.norms, want.norms);
  EXPECT_EQ(&snapshot.shard_events(), &slice.ids);
  GroupScanScratch scratch;
  Rng rng(snapshot.events().size());
  for (int q = 0; q < 6; ++q) {
    const auto user = static_cast<ebsn::UserId>(rng.UniformInt(30));
    std::vector<ebsn::UserId> members;
    while (members.size() < 1 + static_cast<size_t>(q % 3)) {
      members.push_back(static_cast<ebsn::UserId>(rng.UniformInt(30)));
    }
    for (const GroupAggregator agg : kAggregators) {
      for (const size_t n : {size_t{0}, size_t{3}, size_t{10}, owned.size()}) {
        ExpectScanMatchesOracle(snapshot.model(), snapshot.shard_events(),
                                slice, user, members, agg, n, &scratch);
      }
    }
  }
}

TEST(GroupScanSnapshotTest, ShardSlicesOfTwoAndThree) {
  const embedding::EmbeddingStore store = BuilderStore(3);
  const std::vector<ebsn::EventId> pool = AllEvents(48);
  for (const uint32_t count : {1u, 2u, 3u}) {
    for (uint32_t index = 0; index < count; ++index) {
      SCOPED_TRACE(::testing::Message() << "shard " << index << "/" << count);
      serving::SnapshotOptions options;
      options.top_k_events_per_partner = 5;
      options.shard = {index, count};
      const serving::ModelSnapshot snapshot(store, pool, 30, options);
      ExpectSnapshotSliceServes(snapshot, options.shard);
    }
  }
}

TEST(GroupScanSnapshotTest, DeltaPublishWithAppendedEvents) {
  for (const uint32_t count : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "shards " << count);
    serving::SnapshotOptions options;
    options.top_k_events_per_partner = 5;
    options.shard = {count - 1, count};
    std::vector<ebsn::EventId> pool = AllEvents(24);
    serving::SnapshotBuilder builder(BuilderStore(9), pool, 30, options);
    ExpectSnapshotSliceServes(*builder.BuildNext(), options.shard);
    embedding::OnlineUpdateOptions foldin;
    for (ebsn::EventId x = 24; x < 36; ++x) {
      embedding::NewEventSignals signals;
      signals.region = x % 4;
      signals.start_time = 1700000000 + static_cast<int64_t>(x) * 86400;
      signals.words = {{(x * 3) % 50, 0.75f}, {(x * 11 + 1) % 50, 1.5f}};
      embedding::OnlineUpdateOptions fold = foldin;
      if (x == 30) {  // an event that outscores the pool
        fold.bias = 60.0f;
        fold.learning_rate = 2.0f;
      }
      ASSERT_TRUE(builder.FoldInEvent(x, signals, fold).ok());
      pool.push_back(x);
      if (x % 4 != 3) continue;
      // A delta publish: the previous pool is a prefix of this one.
      const auto next = builder.BuildNext();
      ASSERT_EQ(next->events(), pool);
      ExpectSnapshotSliceServes(*next, options.shard);
      EXPECT_EQ(next->shard_events(), builder.Build()->shard_events());
    }
  }
}

}  // namespace
}  // namespace gemrec::recommend
