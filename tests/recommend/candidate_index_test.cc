#include "recommend/candidate_index.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/vec_math.h"
#include "shard/partitioner.h"

namespace gemrec::recommend {
namespace {

std::unique_ptr<embedding::EmbeddingStore> RandomStore(
    uint32_t num_users, uint32_t num_events, uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      4, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.3, 0.2);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.3, 0.2);
  return store;
}

/// A store with `dim`-wide rows, all zero; tests write the rows.
std::unique_ptr<embedding::EmbeddingStore> ZeroStore(uint32_t dim,
                                                     uint32_t num_users,
                                                     uint32_t num_events) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  store->MatrixOf(graph::NodeType::kUser).Fill(0.0f);
  store->MatrixOf(graph::NodeType::kEvent).Fill(0.0f);
  return store;
}

void SetRow(float* row, const std::vector<float>& values) {
  std::copy(values.begin(), values.end(), row);
}

/// The exhaustive ranking a pruned list must equal: every pool event's
/// Dot(ū', x̄), ordered by score descending (float comparison) and then
/// pool position ascending, cut at k.
CandidateList ExhaustiveList(const GemModel& model,
                             const std::vector<ebsn::EventId>& events,
                             const std::vector<ebsn::UserId>& partners,
                             size_t k) {
  CandidateList list;
  std::vector<float> score(events.size());
  std::vector<uint32_t> order(events.size());
  for (ebsn::UserId u : partners) {
    for (size_t j = 0; j < events.size(); ++j) {
      score[j] = Dot(model.UserVec(u), model.EventVec(events[j]), model.dim());
    }
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return score[a] > score[b] || (score[a] == score[b] && a < b);
    });
    for (size_t j = 0; j < k; ++j) {
      list.pairs.push_back(CandidatePair{events[order[j]], u});
      list.c.push_back(score[order[j]]);
    }
  }
  return list;
}

/// Pairs equal and C bitwise equal; reports the first differing slot.
void ExpectSameList(const CandidateList& got, const CandidateList& want) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  ASSERT_EQ(got.c.size(), want.c.size());
  for (size_t i = 0; i < want.pairs.size(); ++i) {
    ASSERT_TRUE(got.pairs[i].event == want.pairs[i].event &&
                got.pairs[i].partner == want.pairs[i].partner &&
                std::memcmp(&got.c[i], &want.c[i], sizeof(float)) == 0)
        << "slot " << i << ": got (" << got.pairs[i].event << ", "
        << got.pairs[i].partner << ", " << got.c[i] << "), want ("
        << want.pairs[i].event << ", " << want.pairs[i].partner << ", "
        << want.c[i] << ")";
  }
}

/// A seeded space mixing what the norm-ordered walk must get right:
///  - for each partner, events parallel to its row (x̄ = c·ū', where
///    the Cauchy–Schwarz bound is tight up to rounding), each followed
///    at a higher pool position by a copy with a larger norm and the
///    same Dot, so the walk meets the copy first and the tie must go
///    to the parallel event;
///  - a zero partner row, zero event rows and a row of -0 entries;
///  - rows of one common norm (sign flips of one row);
///  - one huge-norm event with a low cosine;
///  - signed random rows.
/// Pool positions are not event ids: the pool lists ids in reverse.
struct MixedSpace {
  static constexpr uint32_t kUsers = 12;
  std::unique_ptr<embedding::EmbeddingStore> store;
  std::vector<ebsn::EventId> events;
};

MixedSpace MakeMixedSpace(uint32_t dim, uint64_t seed) {
  constexpr float kScales[] = {0.5f, 1.0f, 3.7f, 10.0f};
  constexpr uint32_t kRandom = 20;
  constexpr uint32_t kEqualNorm = 6;
  const uint32_t num_events =
      (MixedSpace::kUsers - 1) * 2 * std::size(kScales) + 3 + kEqualNorm +
      1 + kRandom;
  MixedSpace space;
  space.store = ZeroStore(dim, MixedSpace::kUsers, num_events);
  space.events.resize(num_events);
  for (uint32_t j = 0; j < num_events; ++j) {
    space.events[j] = num_events - 1 - j;
  }
  Rng rng(seed);
  auto row_at = [&](uint32_t position) {
    return space.store->VectorOf(graph::NodeType::kEvent,
                                 space.events[position]);
  };
  uint32_t position = 0;
  // User kUsers - 1 keeps its zero row.
  for (uint32_t u = 0; u + 1 < MixedSpace::kUsers; ++u) {
    float* uv = space.store->VectorOf(graph::NodeType::kUser, u);
    for (uint32_t d = 0; d + 1 < dim; ++d) {
      uv[d] = static_cast<float>(rng.Gaussian(0.2, 1.0));
    }
    for (const float c : kScales) {
      float* parallel = row_at(position++);
      float* wider = row_at(position++);
      for (uint32_t d = 0; d < dim; ++d) parallel[d] = c * uv[d];
      std::copy_n(parallel, dim, wider);
      // ū' is 0 there, so the Dot is unchanged and the norm grows.
      wider[dim - 1] = 0.5f * c;
    }
  }
  position += 2;  // two zero rows
  std::fill_n(row_at(position++), dim, -0.0f);
  std::vector<float> base(dim);
  for (float& v : base) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (uint32_t i = 0; i < kEqualNorm; ++i) {
    float* row = row_at(position++);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = rng.UniformInt(2) == 0 ? base[d] : -base[d];
    }
  }
  float* huge = row_at(position++);
  for (uint32_t d = 0; d < dim; ++d) huge[d] = d % 2 == 0 ? 1000.0f : -1000.0f;
  for (uint32_t i = 0; i < kRandom; ++i) {
    float* row = row_at(position++);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Gaussian(0.0, 1.0));
    }
  }
  EXPECT_EQ(position, num_events);
  return space;
}

TEST(CandidateIndexTest, ZeroTopKKeepsEveryPair) {
  auto store = RandomStore(5, 7, 1);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events = {0, 1, 2, 3, 4, 5, 6};
  const auto pairs = BuildCandidatePairs(model, events, AllUsers(5), 0);
  EXPECT_EQ(pairs.size(), 35u);
}

TEST(CandidateIndexTest, TopKLimitsPairsPerPartner) {
  auto store = RandomStore(5, 10, 2);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events;
  for (uint32_t x = 0; x < 10; ++x) events.push_back(x);
  const auto pairs = BuildCandidatePairs(model, events, AllUsers(5), 3);
  EXPECT_EQ(pairs.size(), 15u);
  std::vector<int> per_partner(5, 0);
  for (const auto& p : pairs) ++per_partner[p.partner];
  for (int c : per_partner) EXPECT_EQ(c, 3);
}

TEST(CandidateIndexTest, TopKEventsAreThePartnersBestEvents) {
  auto store = RandomStore(4, 20, 3);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events;
  for (uint32_t x = 0; x < 20; ++x) events.push_back(x);
  const auto per_user = TopKEventsPerUser(model, events, AllUsers(4), 5);
  for (uint32_t u = 0; u < 4; ++u) {
    ASSERT_EQ(per_user[u].size(), 5u);
    // Minimum kept score must be >= every dropped score.
    float min_kept = 1e30f;
    std::set<ebsn::EventId> kept(per_user[u].begin(),
                                 per_user[u].end());
    for (ebsn::EventId x : per_user[u]) {
      min_kept = std::min(min_kept, model.ScoreUserEvent(u, x));
    }
    for (ebsn::EventId x : events) {
      if (kept.count(x) != 0) continue;
      EXPECT_LE(model.ScoreUserEvent(u, x), min_kept + 1e-6f);
    }
  }
}

TEST(CandidateIndexTest, TopKListIsSortedByScoreDescending) {
  auto store = RandomStore(2, 15, 4);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events;
  for (uint32_t x = 0; x < 15; ++x) events.push_back(x);
  const auto per_user = TopKEventsPerUser(model, events, AllUsers(2), 6);
  for (uint32_t u = 0; u < 2; ++u) {
    for (size_t i = 1; i < per_user[u].size(); ++i) {
      EXPECT_GE(model.ScoreUserEvent(u, per_user[u][i - 1]),
                model.ScoreUserEvent(u, per_user[u][i]));
    }
  }
}

TEST(CandidateIndexTest, TopKLargerThanEventPoolKeepsAll) {
  auto store = RandomStore(3, 4, 5);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events = {0, 1, 2, 3};
  const auto pairs = BuildCandidatePairs(model, events, AllUsers(3), 99);
  EXPECT_EQ(pairs.size(), 12u);
}

TEST(CandidateIndexTest, EventSubsetIsRespected) {
  auto store = RandomStore(3, 10, 6);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events = {2, 5, 9};
  const auto pairs = BuildCandidatePairs(model, events, AllUsers(3), 2);
  for (const auto& p : pairs) {
    EXPECT_TRUE(p.event == 2 || p.event == 5 || p.event == 9);
  }
}

TEST(CandidateIndexTest, PartnerSubsetIsSubsequenceOfFullBuild) {
  // A partner's pairs depend on that partner alone, so building for a
  // subset yields exactly the full list's pairs of those partners, in
  // the full list's order — pruned and unpruned alike.
  auto store = RandomStore(11, 8, 9);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<ebsn::UserId> subset = {1, 4, 5, 10};
  for (const uint32_t top_k : {0u, 3u}) {
    const auto full = BuildCandidatePairs(model, events, AllUsers(11), top_k);
    std::vector<CandidatePair> want;
    for (const auto& p : full) {
      if (std::find(subset.begin(), subset.end(), p.partner) !=
          subset.end()) {
        want.push_back(p);
      }
    }
    const auto got = BuildCandidatePairs(model, events, subset, top_k);
    ASSERT_EQ(got.size(), want.size()) << "top_k=" << top_k;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].event, want[i].event) << "i=" << i;
      EXPECT_EQ(got[i].partner, want[i].partner) << "i=" << i;
    }
  }
  EXPECT_TRUE(BuildCandidatePairs(model, events, {}, 3).empty());
}

TEST(CandidateIndexTest, NormWalkEqualsExhaustiveRanking) {
  // The walk stops once the widened bound ‖ū'‖·‖x̄‖ of the next event is
  // strictly below the k-th score; it must still return bitwise the
  // exhaustive ranking, pairs and C, for every width Dot splits into
  // vector body and tail.
  for (const uint32_t dim : {4u, 13u, 32u, 64u}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const MixedSpace space = MakeMixedSpace(dim, seed * 7919 + dim);
      GemModel model(space.store.get(), "GEM");
      const auto partners = AllUsers(MixedSpace::kUsers);
      const std::vector<ebsn::UserId> subset = {9, 2, 11, 5};
      const uint32_t pool = static_cast<uint32_t>(space.events.size());
      for (const uint32_t k : {1u, 2u, pool - 1}) {
        SCOPED_TRACE(::testing::Message()
                     << "dim=" << dim << " seed=" << seed << " k=" << k);
        const CandidateList want =
            ExhaustiveList(model, space.events, partners, k);
        ExpectSameList(BuildCandidateList(model, space.events, partners, k),
                       want);
        const auto per_user =
            TopKEventsPerUser(model, space.events, partners, k);
        for (size_t i = 0; i < partners.size(); ++i) {
          for (size_t j = 0; j < k; ++j) {
            ASSERT_EQ(per_user[i][j], want.pairs[i * k + j].event)
                << "partner " << i << " slot " << j;
          }
        }
        ExpectSameList(BuildCandidateList(model, space.events, subset, k),
                       ExhaustiveList(model, space.events, subset, k));
      }
    }
  }
}

TEST(CandidateIndexTest, NormWalkEqualsExhaustiveRankingOnTrainedShapes) {
  // Nonnegative rows of spread norms, as training leaves them, with a
  // pool large enough that the walk stops early for most partners.
  for (const uint32_t dim : {4u, 13u, 32u}) {
    auto store = ZeroStore(dim, 40, 300);
    Rng rng(dim);
    store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.3, 0.2);
    store->MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.3, 0.2);
    for (uint32_t x = 0; x < 300; ++x) {
      const float scale = 0.2f + static_cast<float>(x % 17) * 0.3f;
      float* row = store->VectorOf(graph::NodeType::kEvent, x);
      for (uint32_t d = 0; d < dim; ++d) row[d] *= scale;
    }
    GemModel model(store.get(), "GEM");
    std::vector<ebsn::EventId> events(300);
    std::iota(events.begin(), events.end(), 0u);
    for (const uint32_t k : {1u, 2u, 20u}) {
      SCOPED_TRACE(::testing::Message() << "dim=" << dim << " k=" << k);
      ExpectSameList(BuildCandidateList(model, events, AllUsers(40), k),
                     ExhaustiveList(model, events, AllUsers(40), k));
    }
  }
}

TEST(CandidateIndexTest, TiedScoresResolveByPoolPosition) {
  // Rows: A scores highest; B and its duplicate B' tie; W ties them
  // with a larger norm (the walk meets it first); D scores lowest.
  auto store = ZeroStore(4, 1, 5);
  SetRow(store->VectorOf(graph::NodeType::kUser, 0), {1.0f, 2.0f, 0.5f, 0.0f});
  SetRow(store->VectorOf(graph::NodeType::kEvent, 0), {1, 1, 1, 0});   // B
  SetRow(store->VectorOf(graph::NodeType::kEvent, 1), {3, 1, 1, 1});   // A
  SetRow(store->VectorOf(graph::NodeType::kEvent, 2), {0.1f, 0, 0, 0});  // D
  SetRow(store->VectorOf(graph::NodeType::kEvent, 3), {1, 1, 1, 0});   // B'
  SetRow(store->VectorOf(graph::NodeType::kEvent, 4), {1, 1, 1, 9});   // W
  GemModel model(store.get(), "GEM");
  auto slice = [&](const std::vector<ebsn::EventId>& events, uint32_t k) {
    const CandidateList list = BuildCandidateList(model, events, {0}, k);
    ExpectSameList(list, ExhaustiveList(model, events, {0}, k));
    std::vector<ebsn::EventId> ids;
    for (const auto& p : list.pairs) ids.push_back(p.event);
    return ids;
  };
  // Pool positions D, W, B', A, B: the tie goes to W, then B', then B.
  const std::vector<ebsn::EventId> pool = {2, 4, 3, 1, 0};
  EXPECT_EQ(slice(pool, 1), (std::vector<ebsn::EventId>{1}));
  EXPECT_EQ(slice(pool, 2), (std::vector<ebsn::EventId>{1, 4}));  // straddles
  EXPECT_EQ(slice(pool, 3), (std::vector<ebsn::EventId>{1, 4, 3}));
  EXPECT_EQ(slice(pool, 4), (std::vector<ebsn::EventId>{1, 4, 3, 0}));
  // Reversed pool: B, A, B', W, D.
  const std::vector<ebsn::EventId> reversed(pool.rbegin(), pool.rend());
  EXPECT_EQ(slice(reversed, 2), (std::vector<ebsn::EventId>{1, 0}));
  EXPECT_EQ(slice(reversed, 3), (std::vector<ebsn::EventId>{1, 0, 3}));
  EXPECT_EQ(slice(reversed, 4), (std::vector<ebsn::EventId>{1, 0, 3, 4}));
  // TopKEventsPerUser ranks the same way, the whole pool included.
  EXPECT_EQ(TopKEventsPerUser(model, reversed, {0}, 9)[0],
            (std::vector<ebsn::EventId>{1, 0, 3, 4, 2}));
}

TEST(CandidateIndexTest, SignedZeroScoresTieAndResolveByPosition) {
  EXPECT_TRUE((RankKey{0.0f, 1} > RankKey{-0.0f, 2}));
  EXPECT_TRUE((RankKey{-0.0f, 1} > RankKey{0.0f, 2}));
  EXPECT_FALSE((RankKey{-0.0f, 2} > RankKey{0.0f, 1}));
  EXPECT_TRUE((RankKey{0.0f, 2} <= RankKey{-0.0f, 1}));
  EXPECT_TRUE((RankKey{1.0f, 9} > RankKey{0.0f, 1}));

  // Zero scores from a zero row, a -0 row, a row orthogonal to ū' with
  // the largest norm (met first) and a row whose products cancel.
  auto store = ZeroStore(4, 2, 6);
  SetRow(store->VectorOf(graph::NodeType::kUser, 0), {1, -1, 0, 0});
  SetRow(store->VectorOf(graph::NodeType::kEvent, 0), {0, 0, 0, 0});
  SetRow(store->VectorOf(graph::NodeType::kEvent, 1), {-0.0f, -0.0f, -0.0f, -0.0f});
  SetRow(store->VectorOf(graph::NodeType::kEvent, 2), {0, 0, 30, 40});
  SetRow(store->VectorOf(graph::NodeType::kEvent, 3), {2, 2, 0, 0});
  SetRow(store->VectorOf(graph::NodeType::kEvent, 4), {-1, 1, 0, 0});  // -2
  SetRow(store->VectorOf(graph::NodeType::kEvent, 5), {1, 0, 0, 0});   // 1
  // User 1 keeps a zero row: every score is 0, so its slice is the
  // lowest positions.
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::EventId> pool = {4, 2, 1, 5, 3, 0};
  const CandidateList list = BuildCandidateList(model, pool, AllUsers(2), 4);
  ExpectSameList(list, ExhaustiveList(model, pool, AllUsers(2), 4));
  std::vector<ebsn::EventId> ids;
  for (const auto& p : list.pairs) ids.push_back(p.event);
  EXPECT_EQ(ids, (std::vector<ebsn::EventId>{5, 2, 1, 3,  //
                                             4, 2, 1, 5}));
}

/// The first partner index of each ranking chunk after the first, for
/// `work` partners to rank out of `n` (ThreadPool::
/// ForEachChunk's split).
std::vector<size_t> ChunkStarts(size_t n, size_t work) {
  const size_t chunks = std::max<size_t>(1, work / kMinChunkPartners);
  std::vector<size_t> starts;
  for (size_t c = 1; c < chunks; ++c) starts.push_back(c * n / chunks);
  return starts;
}

/// A space that ranks in several chunks. The pool mixes rows of one
/// norm (sign flips of one row), exact duplicates, whose scores tie
/// for every partner, and zero rows among signed random rows; its
/// positions are not its ids. Partner rows come from a short cycle of
/// shared rows, and the partners on both sides of every chunk start
/// of `partners` share a row, so their slices tie score for score.
struct ChunkedSpace {
  static constexpr uint32_t kDim = 8;
  static constexpr uint32_t kEvents = 64;
  std::unique_ptr<embedding::EmbeddingStore> store;
  std::vector<ebsn::EventId> events;
};

ChunkedSpace MakeChunkedSpace(uint32_t num_users,
                              const std::vector<ebsn::UserId>& partners,
                              uint64_t seed) {
  constexpr uint32_t kDim = ChunkedSpace::kDim;
  constexpr uint32_t kEvents = ChunkedSpace::kEvents;
  ChunkedSpace space;
  space.store = ZeroStore(kDim, num_users, kEvents);
  Rng rng(seed);
  auto gaussian = [&](float* row) {
    for (uint32_t d = 0; d < kDim; ++d) {
      row[d] = static_cast<float>(rng.Gaussian(0.1, 1.0));
    }
  };
  auto event = [&](uint32_t x) {
    return space.store->VectorOf(graph::NodeType::kEvent, x);
  };
  std::vector<float> base(kDim);
  gaussian(base.data());
  for (uint32_t x = 0; x < 12; ++x) {  // one norm
    for (uint32_t d = 0; d < kDim; ++d) {
      event(x)[d] = rng.UniformInt(2) == 0 ? base[d] : -base[d];
    }
  }
  for (uint32_t x = 12; x < 24; x += 2) {  // duplicate pairs
    gaussian(event(x));
    std::copy_n(event(x), kDim, event(x + 1));
  }
  // Events 24 and 25 keep zero rows.
  for (uint32_t x = 26; x < kEvents; ++x) gaussian(event(x));
  space.events.resize(kEvents);
  for (uint32_t j = 0; j < kEvents; ++j) {
    space.events[j] = (j * 37 + 11) % kEvents;
  }
  std::vector<std::vector<float>> cycle(5, std::vector<float>(kDim));
  for (auto& row : cycle) gaussian(row.data());
  std::copy_n(base.data(), kDim, cycle[0].data());
  auto user = [&](ebsn::UserId u) {
    return space.store->VectorOf(graph::NodeType::kUser, u);
  };
  for (ebsn::UserId u = 0; u < num_users; ++u) {
    if (u % 7 == 3) {
      gaussian(user(u));
    } else {
      std::copy_n(cycle[u % cycle.size()].data(), kDim, user(u));
    }
  }
  for (const size_t b : ChunkStarts(partners.size(), partners.size())) {
    std::copy_n(user(partners[b - 1]), kDim, user(partners[b]));
  }
  return space;
}

/// Expects `list` bitwise the exhaustive ranking and its events
/// TopKEventsPerUser's.
void ExpectExhaustive(const GemModel& model, const ChunkedSpace& space,
                      const std::vector<ebsn::UserId>& partners, uint32_t k,
                      const CandidateList& list) {
  const CandidateList want = ExhaustiveList(model, space.events, partners, k);
  ExpectSameList(list, want);
  const auto per_user = TopKEventsPerUser(model, space.events, partners, k);
  for (size_t i = 0; i < partners.size(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      ASSERT_EQ(per_user[i][j], want.pairs[i * k + j].event)
          << "partner " << i << " slot " << j;
    }
  }
}

TEST(CandidateIndexTest, ChunkedBuildEqualsExhaustiveRanking) {
  constexpr uint32_t kUsers = 3 * kMinChunkPartners + 37;
  const auto partners = AllUsers(kUsers);
  ASSERT_GE(ChunkStarts(kUsers, kUsers).size(), 2u);
  const ChunkedSpace space = MakeChunkedSpace(kUsers, partners, 17);
  GemModel model(space.store.get(), "GEM");
  for (const uint32_t k : {1u, 5u, 13u}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const uint64_t started = ThreadPool::workers_started();
    const CandidateList list =
        BuildCandidateList(model, space.events, partners, k);
    if (ThreadPool::ClampThreads(0) > 1) {
      EXPECT_GT(ThreadPool::workers_started(), started);
    }
    ExpectExhaustive(model, space, partners, k, list);
  }
}

TEST(CandidateIndexTest, ChunkedShardSliceEqualsExhaustiveRanking) {
  // Shard 1 of 3 owns partners 1, 4, 7, ...: a non-contiguous list.
  constexpr uint32_t kUsers = 3 * (3 * kMinChunkPartners + 20);
  const auto owned = shard::OwnedPartners(shard::ShardSpec{1, 3}, kUsers);
  ASSERT_GE(ChunkStarts(owned.size(), owned.size()).size(), 2u);
  const ChunkedSpace space = MakeChunkedSpace(kUsers, owned, 29);
  GemModel model(space.store.get(), "GEM");
  const uint32_t k = 6;
  const CandidateList list = BuildCandidateList(model, space.events, owned, k);
  ExpectExhaustive(model, space, owned, k, list);
  // The shard's list is its partners' part of the whole list.
  const CandidateList whole =
      BuildCandidateList(model, space.events, AllUsers(kUsers), k);
  for (size_t i = 0; i < owned.size(); ++i) {
    ASSERT_EQ(std::memcmp(list.c.data() + i * k,
                          whole.c.data() + size_t{owned[i]} * k,
                          k * sizeof(float)),
              0)
        << "partner " << owned[i];
  }
}

TEST(CandidateIndexTest, ChunkedDeltaEqualsFreshBuild) {
  constexpr uint32_t kUsers = 3 * kMinChunkPartners + 37;
  constexpr uint32_t kAppended = 6;
  const auto partners = AllUsers(kUsers);
  ChunkedSpace space = MakeChunkedSpace(kUsers, partners, 43);
  GemModel model(space.store.get(), "GEM");
  const uint32_t k = 5;
  const std::vector<ebsn::EventId> old_pool(space.events.begin(),
                                            space.events.end() - kAppended);
  Rng rng(7);
  // Moves the rows of the users that `dirty` marks; returns their count.
  auto move_rows = [&](const std::vector<uint8_t>& dirty) {
    size_t count = 0;
    for (ebsn::UserId u = 0; u < kUsers; ++u) {
      if (dirty[u] == 0) continue;
      ++count;
      float* row = space.store->VectorOf(graph::NodeType::kUser, u);
      for (uint32_t d = 0; d < ChunkedSpace::kDim; ++d) {
        row[d] = 1.5f * row[d] + static_cast<float>(rng.Gaussian(0.0, 0.5));
      }
    }
    return count;
  };
  // Each case: whether the delta appends events, which users move and
  // whether the delta must run on the calling thread alone.
  struct Case {
    const char* name;
    bool append;
    std::function<bool(ebsn::UserId)> moves;
    bool no_thread;
  };
  const Case cases[] = {
      {"append, scattered users", true,
       [](ebsn::UserId u) { return u % 50 == 1; }, true},
      {"append, nearly every user", true,
       [](ebsn::UserId u) { return u % 40 != 1; }, false},
      {"no append, nearly every user", false,
       [](ebsn::UserId u) { return u % 40 != 1; }, false},
      {"no append, 64 users", false,
       [](ebsn::UserId u) { return u % 13 == 1; }, true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<ebsn::EventId>& before =
        c.append ? old_pool : space.events;
    const CandidateList previous_list =
        BuildCandidateList(model, before, partners, k);
    const TransformedSpace previous(model, previous_list.pairs,
                                    previous_list.c);
    std::vector<uint8_t> dirty(kUsers, 0);
    for (ebsn::UserId u = 0; u < kUsers; ++u) dirty[u] = c.moves(u);
    const size_t moved = move_rows(dirty);
    const CandidateDelta delta{&previous, before.size(), &dirty};
    const uint64_t started = ThreadPool::workers_started();
    const CandidateList list =
        BuildCandidateList(model, space.events, partners, k, &delta);
    if (c.no_thread) {
      EXPECT_LE(moved, 64u);
      EXPECT_TRUE(ChunkStarts(kUsers, moved).empty());
      EXPECT_EQ(ThreadPool::workers_started(), started);
    } else {
      EXPECT_GE(ChunkStarts(kUsers, moved).size(), 2u);
    }
    ExpectExhaustive(model, space, partners, k, list);
    ExpectSameList(list, BuildCandidateList(model, space.events, partners, k));
    ASSERT_EQ(list.ranked.size(), kUsers);
    for (ebsn::UserId u = 0; u < kUsers; ++u) {
      if (dirty[u] != 0) {
        EXPECT_EQ(list.ranked[u], 1) << "user " << u;
      }
      if (!c.append) {
        EXPECT_EQ(list.ranked[u], dirty[u]) << "user " << u;
      }
    }
  }
}

}  // namespace
}  // namespace gemrec::recommend
