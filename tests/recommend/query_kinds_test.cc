// Query-kind layer unit + differential tests: name/parse round-trips,
// the bitwise-equality contracts between the model-level score
// functions and the TA engine's score assembly, the exhaustive group /
// reciprocal oracles' ordering and bound semantics, and the certified
// reciprocal top-n — on exact TA (ReciprocalSearch) and on the
// quantized batch walk the service runs — against
// its brute-force oracle over many seeded spaces.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "recommend/batch_ta_search.h"
#include "recommend/candidate_index.h"
#include "recommend/quantized_space.h"
#include "recommend/query_kinds.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {
namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

std::unique_ptr<embedding::EmbeddingStore> RandomStore(uint32_t num_users,
                                                       uint32_t num_events,
                                                       uint32_t dim,
                                                       uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t n) {
  std::vector<ebsn::EventId> events(n);
  for (uint32_t x = 0; x < n; ++x) events[x] = x;
  return events;
}

TEST(QueryKindNamesTest, NameParseRoundTrip) {
  for (QueryKind kind : {QueryKind::kPartner, QueryKind::kGroup,
                         QueryKind::kReciprocal}) {
    QueryKind parsed;
    ASSERT_TRUE(ParseQueryKind(QueryKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  for (GroupAggregator agg : {GroupAggregator::kSum, GroupAggregator::kMin}) {
    GroupAggregator parsed;
    ASSERT_TRUE(ParseGroupAggregator(GroupAggregatorName(agg), &parsed));
    EXPECT_EQ(parsed, agg);
  }
}

TEST(QueryKindNamesTest, ParseRejectsUnknownSpellings) {
  QueryKind kind;
  EXPECT_FALSE(ParseQueryKind("", &kind));
  EXPECT_FALSE(ParseQueryKind("Partner", &kind));
  EXPECT_FALSE(ParseQueryKind("groups", &kind));
  EXPECT_FALSE(ParseQueryKind("pair", &kind));
  GroupAggregator agg;
  EXPECT_FALSE(ParseGroupAggregator("", &agg));
  EXPECT_FALSE(ParseGroupAggregator("max", &agg));
  EXPECT_FALSE(ParseGroupAggregator("Sum", &agg));
}

// PairwiseScore must reproduce the TA engine's score assembly bitwise:
// serve-path answers for kPartner come out of TaSearch, and the group
// score is a fold of PairwiseScore, so any rounding divergence between
// the two would break the cross-kind differential suites.
TEST(PairwiseScoreTest, BitwiseEqualToTaAssembly) {
  auto store = RandomStore(12, 10, 8, 77);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(10), AllUsers(12), /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);

  std::vector<float> q;
  for (ebsn::UserId u = 0; u < 4; ++u) {
    space.QueryVector(model, u, &q);
    const auto hits = ta.Search(q, space.num_points(), u);
    ASSERT_FALSE(hits.empty());
    for (const SearchHit& hit : hits) {
      const float direct =
          PairwiseScore(model, u, hit.pair.partner, hit.pair.event);
      EXPECT_EQ(direct, hit.score)
          << "u=" << u << " event=" << hit.pair.event
          << " partner=" << hit.pair.partner;
    }
  }
}

// DirectedScore must equal q·p over the transformed space for the
// query (u, u, 0) bitwise — ReciprocalSearch's deepening loop depends
// on it.
TEST(DirectedScoreTest, BitwiseEqualToZeroedCQuery) {
  auto store = RandomStore(10, 9, 8, 31);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(9), AllUsers(10), /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);

  std::vector<float> q;
  for (ebsn::UserId u = 0; u < 3; ++u) {
    ReciprocalQueryVector(model, u, space.point_dim(), &q);
    const auto hits = ta.Search(q, space.num_points(), u);
    ASSERT_FALSE(hits.empty());
    for (const SearchHit& hit : hits) {
      EXPECT_EQ(DirectedScore(model, u, hit.pair.partner, hit.pair.event),
                hit.score)
          << "u=" << u << " event=" << hit.pair.event
          << " partner=" << hit.pair.partner;
    }
  }
}

TEST(ReciprocalScoreTest, SymmetricAndNeverAboveEitherDirection) {
  auto store = RandomStore(14, 11, 16, 5);
  GemModel model(store.get(), "GEM");
  for (ebsn::UserId u = 0; u < 6; ++u) {
    for (ebsn::UserId v = u + 1; v < 10; ++v) {
      for (ebsn::EventId x = 0; x < 11; ++x) {
        const float r = ReciprocalScore(model, u, v, x);
        EXPECT_EQ(r, ReciprocalScore(model, v, u, x));
        EXPECT_LE(r, DirectedScore(model, u, v, x));
        EXPECT_LE(r, DirectedScore(model, v, u, x));
      }
    }
  }
}

TEST(GroupEventScoreTest, SumAndMinMatchManualFold) {
  auto store = RandomStore(10, 8, 8, 99);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::UserId> members = {3, 1, 7};
  for (ebsn::EventId x = 0; x < 8; ++x) {
    float sum = 0.0f;
    float worst = std::numeric_limits<float>::infinity();
    for (const ebsn::UserId m : members) {
      const float f = PairwiseScore(model, 0, m, x);
      sum += f;
      worst = std::min(worst, f);
    }
    EXPECT_EQ(sum,
              GroupEventScore(model, 0, members, x, GroupAggregator::kSum));
    EXPECT_EQ(worst,
              GroupEventScore(model, 0, members, x, GroupAggregator::kMin));
  }
}

// kSum accumulates in member order; any permutation must still agree
// mathematically, and the documented contract is the *given* order, so
// the same order always yields identical floats.
TEST(GroupEventScoreTest, SameMemberOrderYieldsIdenticalFloats) {
  auto store = RandomStore(20, 6, 12, 123);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::UserId> members = {9, 2, 14, 5};
  for (ebsn::EventId x = 0; x < 6; ++x) {
    EXPECT_EQ(GroupEventScore(model, 1, members, x, GroupAggregator::kSum),
              GroupEventScore(model, 1, members, x, GroupAggregator::kSum));
  }
}

TEST(RecommendationOrderTest, ScoreDescThenEventThenPartner) {
  const Recommendation a{2, 5, 1.0f};
  const Recommendation b{1, 9, 0.5f};
  EXPECT_TRUE(RecommendationOrder(a, b));
  EXPECT_FALSE(RecommendationOrder(b, a));
  // Tied score: lower event wins.
  const Recommendation c{1, 9, 1.0f};
  EXPECT_TRUE(RecommendationOrder(c, a));
  // Tied score and event: lower partner wins.
  const Recommendation d{2, 3, 1.0f};
  EXPECT_TRUE(RecommendationOrder(d, a));
  // Irreflexive.
  EXPECT_FALSE(RecommendationOrder(a, a));
}

TEST(GroupTopEventsTest, RanksByAggregateAndReportsBound) {
  auto store = RandomStore(12, 20, 8, 2024);
  GemModel model(store.get(), "GEM");
  const std::vector<ebsn::UserId> members = {2, 4};
  const auto events = AllEvents(20);

  for (GroupAggregator agg : {GroupAggregator::kSum, GroupAggregator::kMin}) {
    float bound = 0.0f;
    const auto top = GroupTopEvents(model, events, 0, members, agg, 5, &bound);
    ASSERT_EQ(top.size(), 5u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].partner, ebsn::kInvalidId);
      EXPECT_EQ(top[i].score,
                GroupEventScore(model, 0, members, top[i].event, agg));
      if (i > 0) {
        EXPECT_TRUE(!RecommendationOrder(top[i], top[i - 1]));
      }
    }
    // The bound is the best dropped score: no unreturned event may beat
    // it, and it never exceeds the n-th returned score.
    EXPECT_LE(bound, top.back().score);
    std::vector<bool> returned(20, false);
    for (const auto& r : top) returned[r.event] = true;
    for (ebsn::EventId x = 0; x < 20; ++x) {
      if (returned[x]) continue;
      EXPECT_LE(GroupEventScore(model, 0, members, x, agg), bound);
    }
  }
}

TEST(GroupTopEventsTest, NothingDroppedYieldsNegInfBound) {
  auto store = RandomStore(6, 4, 8, 7);
  GemModel model(store.get(), "GEM");
  float bound = 123.0f;
  const auto top = GroupTopEvents(model, AllEvents(4), 0, {1},
                                  GroupAggregator::kSum, 10, &bound);
  EXPECT_EQ(top.size(), 4u);
  EXPECT_EQ(bound, kNegInf);
}

TEST(ReciprocalTopPairsTest, ExcludesSelfAndRanksByMin) {
  auto store = RandomStore(10, 8, 8, 41);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(8), AllUsers(10), /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));

  float bound = 0.0f;
  const ebsn::UserId u = 3;
  const auto top = ReciprocalTopPairs(model, space, u, 6, &bound);
  ASSERT_EQ(top.size(), 6u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_NE(top[i].partner, u);
    EXPECT_EQ(top[i].score,
              ReciprocalScore(model, u, top[i].partner, top[i].event));
    if (i > 0) {
      EXPECT_FALSE(RecommendationOrder(top[i], top[i - 1]));
    }
  }
  EXPECT_LE(bound, top.back().score);
}

struct RecipTrial {
  uint64_t seed = 0;
  uint32_t num_users = 0;
  uint32_t num_events = 0;
  uint32_t dim = 0;
  uint32_t top_k = 0;
  size_t n = 0;
};

RecipTrial MakeRecipTrial(uint64_t index) {
  SplitMix64 mix(0xacebeef + index);
  RecipTrial trial;
  trial.seed = mix.Next();
  trial.num_users = 3 + mix.Next() % 40;
  trial.num_events = 2 + mix.Next() % 30;
  const uint32_t dims[] = {4, 8, 16};
  trial.dim = dims[mix.Next() % 3];
  trial.top_k = (mix.Next() % 2 == 0) ? 0 : 1 + mix.Next() % trial.num_events;
  trial.n = 1 + mix.Next() % 24;
  return trial;
}

// A certified reciprocal answer must equal the exhaustive oracle
// bitwise rank by rank, and its bound must be sound: at least every
// unreturned pair's reciprocal score and at most the n-th returned
// score (the shard merger's completeness certificate needs both).
void ExpectCertifiedReciprocal(const GemModel& model,
                               const TransformedSpace& space,
                               ebsn::UserId u, size_t n,
                               const std::vector<Recommendation>& served,
                               float bound) {
  SCOPED_TRACE(::testing::Message() << "u=" << u << " n=" << n);
  float best_unreturned = 0.0f;
  const auto oracle = ReciprocalTopPairs(model, space, u, n, &best_unreturned);
  ASSERT_EQ(served.size(), oracle.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].event, oracle[i].event) << "rank " << i;
    EXPECT_EQ(served[i].partner, oracle[i].partner) << "rank " << i;
    EXPECT_EQ(served[i].score, oracle[i].score) << "rank " << i;
  }
  EXPECT_GE(bound, best_unreturned) << "an unreturned pair beats the bound";
  if (!served.empty()) {
    EXPECT_LE(bound, served.back().score);
  }
}

// Certified iterative-deepening search vs. the exhaustive oracle over
// many seeded spaces, including n larger than the space and spaces
// small enough that the first round already exhausts.
class ReciprocalDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReciprocalDifferentialTest, MatchesBruteForceOracle) {
  const RecipTrial trial = MakeRecipTrial(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " top_k=" << trial.top_k << " n=" << trial.n);

  auto store =
      RandomStore(trial.num_users, trial.num_events, trial.dim, trial.seed);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(trial.num_events),
                                   AllUsers(trial.num_users), trial.top_k);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);
  ReciprocalScratch scratch;

  for (ebsn::UserId u = 0; u < std::min(3u, trial.num_users); ++u) {
    float search_bound = 0.0f;
    SearchStats stats;
    const auto served = ReciprocalSearch(model, ta, space, u, trial.n,
                                         &scratch, &search_bound, &stats);
    ExpectCertifiedReciprocal(model, space, u, trial.n, served,
                              search_bound);
    EXPECT_EQ(stats.unreturned_bound, search_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(ThirtySeeds, ReciprocalDifferentialTest,
                         ::testing::Range<uint64_t>(0, 30));

// The serving engine's reciprocal path, driven directly: every query's
// forward vector (u, u, 0) rides one quantized SearchBatch call at
// depth ReciprocalDepth(n), is rescored by CertifyReciprocal, and only
// the uncertified queries walk again, at twice their depth.
void CheckBatchWalkReciprocal(
    const GemModel& model, const TransformedSpace& space,
    const std::vector<std::pair<ebsn::UserId, size_t>>& queries) {
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace workspace;

  std::vector<std::vector<float>> vectors(queries.size());
  std::vector<size_t> depth(queries.size());
  std::vector<size_t> open(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ReciprocalQueryVector(model, queries[i].first, space.point_dim(),
                          &vectors[i]);
    depth[i] = ReciprocalDepth(queries[i].second);
    open[i] = i;
  }
  std::vector<Recommendation> top;
  for (int round = 0; !open.empty(); ++round) {
    ASSERT_LT(round, 32) << "deepening never certified";
    std::vector<BatchQuery> walk;
    for (const size_t i : open) {
      walk.push_back(BatchQuery{vectors[i].data(), depth[i],
                                queries[i].first});
    }
    std::vector<std::vector<SearchHit>> hits(walk.size());
    std::vector<SearchStats> stats(walk.size());
    batch.SearchBatch(walk.data(), walk.size(), hits.data(), nullptr,
                      &workspace, stats.data());
    std::vector<size_t> still_open;
    for (size_t j = 0; j < open.size(); ++j) {
      const size_t i = open[j];
      const auto [user, n] = queries[i];
      float bound = 0.0f;
      if (!CertifyReciprocal(model, user, n, depth[i], hits[j],
                             stats[j].unreturned_bound, &top, &bound)) {
        depth[i] *= 2;
        still_open.push_back(i);
        continue;
      }
      ExpectCertifiedReciprocal(model, space, user, n, top, bound);
    }
    open = std::move(still_open);
  }
}

class BatchWalkReciprocalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchWalkReciprocalTest, CertifiedAnswerEqualsOracle) {
  const RecipTrial trial = MakeRecipTrial(GetParam());
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " top_k=" << trial.top_k << " n=" << trial.n);
  auto store =
      RandomStore(trial.num_users, trial.num_events, trial.dim, trial.seed);
  // Odd seeds skew the user norms: a heavy user's forward ranking
  // d(u -> .) then says little about the reciprocal min, so first walks
  // fail to certify and the follow-up rounds run.
  if (GetParam() % 2 == 1) {
    Matrix& users = store->MatrixOf(graph::NodeType::kUser);
    for (size_t r = 0; r < users.rows(); ++r) {
      const float scale = r % 5 == 0 ? 50.0f : 0.05f + 0.1f * (r % 7);
      for (size_t c = 0; c < users.cols(); ++c) users.At(r, c) *= scale;
    }
  }
  GemModel model(store.get(), "GEM");
  TransformedSpace space(
      model, BuildCandidatePairs(model, AllEvents(trial.num_events),
                                 AllUsers(trial.num_users), trial.top_k));
  // Every user in one batch, plus one query asking for more pairs than
  // exist (the exhausted branch).
  std::vector<std::pair<ebsn::UserId, size_t>> queries;
  for (ebsn::UserId u = 0; u < trial.num_users; ++u) {
    queries.push_back({u, trial.n});
  }
  queries.push_back({0, space.num_points() + 3});
  CheckBatchWalkReciprocal(model, space, queries);
}

INSTANTIATE_TEST_SUITE_P(ThirtySeeds, BatchWalkReciprocalTest,
                         ::testing::Range<uint64_t>(0, 30));

// Per-column scales spread across ~10 orders of magnitude, the worst
// case for affine quantization (see quantized_ta_differential_test):
// the walk's widened bound and the certificate's rounding slack must
// still never certify a wrong reciprocal top-n.
TEST(BatchWalkReciprocalTest, ScaleExtremesStayCertified) {
  constexpr uint32_t kUsers = 30;
  constexpr uint32_t kEvents = 20;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    auto store = RandomStore(kUsers, kEvents, 8, 0xe47e3 + seed);
    Rng rng(0x5ca1e + seed);
    for (auto type : {graph::NodeType::kUser, graph::NodeType::kEvent}) {
      Matrix& m = store->MatrixOf(type);
      for (size_t c = 0; c < m.cols(); ++c) {
        const float factor =
            std::pow(10.0f, -5.0f + 10.0f * rng.UniformFloat());
        for (size_t r = 0; r < m.rows(); ++r) m.At(r, c) *= factor;
      }
    }
    GemModel model(store.get(), "GEM");
    TransformedSpace space(
        model, BuildCandidatePairs(model, AllEvents(kEvents),
                                   AllUsers(kUsers), /*top_k=*/0));
    std::vector<std::pair<ebsn::UserId, size_t>> queries;
    for (ebsn::UserId u = 0; u < kUsers; ++u) queries.push_back({u, 10});
    CheckBatchWalkReciprocal(model, space, queries);
  }
}

TEST(ReciprocalSearchTest, EmptySpaceAndZeroNAreDefined) {
  auto store = RandomStore(4, 3, 8, 1);
  GemModel model(store.get(), "GEM");
  auto pairs = BuildCandidatePairs(model, AllEvents(3), AllUsers(4), /*top_k=*/0);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);
  ReciprocalScratch scratch;

  float bound = 0.0f;
  const auto none =
      ReciprocalSearch(model, ta, space, 0, 0, &scratch, &bound);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(bound, kNegInf);

  TransformedSpace empty(model, std::vector<CandidatePair>{});
  TaSearch empty_ta(&empty);
  const auto from_empty =
      ReciprocalSearch(model, empty_ta, empty, 0, 5, &scratch, &bound);
  EXPECT_TRUE(from_empty.empty());
  EXPECT_EQ(bound, kNegInf);
}

}  // namespace
}  // namespace gemrec::recommend
