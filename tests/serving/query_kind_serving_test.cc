// Serve-path coverage for the non-partner query kinds: group and
// reciprocal answers must be bitwise-equal to the offline brute-force
// oracles over many seeded spaces in BOTH retrieval modes (exact TA
// and quantized batched — the special kinds are pinned to exact
// scoring, so the mode must not change a single float), the result
// cache must never cross-return between kinds / aggregators / member
// sets, and malformed requests must come back as typed bad-requests,
// never empty-but-ok answers.

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/query_kinds.h"
#include "serving/recommendation_service.h"
#include "serving/result_cache.h"

namespace gemrec::serving {
namespace {

std::unique_ptr<embedding::EmbeddingStore> RandomStore(
    uint32_t num_users, uint32_t num_events, uint32_t dim, uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t num_events) {
  std::vector<ebsn::EventId> events(num_events);
  for (uint32_t x = 0; x < num_events; ++x) events[x] = x;
  return events;
}

std::shared_ptr<ModelSnapshot> MakeSnapshot(
    const embedding::EmbeddingStore& store, uint32_t num_users,
    uint32_t num_events, uint32_t top_k = 0) {
  SnapshotOptions options;
  options.top_k_events_per_partner = top_k;
  return std::make_shared<ModelSnapshot>(store, AllEvents(num_events),
                                         num_users, options);
}

void ExpectSameItems(const std::vector<recommend::Recommendation>& served,
                     const std::vector<recommend::Recommendation>& oracle) {
  ASSERT_EQ(served.size(), oracle.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].event, oracle[i].event) << "rank " << i;
    EXPECT_EQ(served[i].partner, oracle[i].partner) << "rank " << i;
    EXPECT_EQ(served[i].score, oracle[i].score) << "rank " << i;
  }
}

// One seeded trial per parameter; each trial exercises both retrieval
// modes, both group aggregators and the reciprocal path.
class QueryKindDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(QueryKindDifferentialTest, ServeMatchesOracleInBothModes) {
  SplitMix64 mix(0x9f00d5 + GetParam());
  const uint32_t num_users = 4 + mix.Next() % 30;
  const uint32_t num_events = 3 + mix.Next() % 25;
  const uint32_t dims[] = {4, 8, 16};
  const uint32_t dim = dims[mix.Next() % 3];
  const uint64_t seed = mix.Next();
  const size_t n = 1 + mix.Next() % 12;
  const ebsn::UserId user = mix.Next() % num_users;
  std::vector<ebsn::UserId> group;
  const size_t group_size = 1 + mix.Next() % 4;
  for (size_t i = 0; i < group_size; ++i) {
    group.push_back(static_cast<ebsn::UserId>(mix.Next() % num_users));
  }
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " |U|=" << num_users
               << " |X|=" << num_events << " K=" << dim << " n=" << n
               << " user=" << user << " |G|=" << group.size());

  auto store = RandomStore(num_users, num_events, dim, seed);

  for (const bool use_batch_ta : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "use_batch_ta=" << use_batch_ta);
    // Publish stamps the snapshot's epoch, so each service gets its
    // own build (same store, identical floats).
    auto snapshot = MakeSnapshot(*store, num_users, num_events);
    ServiceOptions options;
    options.num_workers = 2;
    options.use_batch_ta = use_batch_ta;
    RecommendationService service(options);
    service.Publish(snapshot);

    for (const recommend::GroupAggregator agg :
         {recommend::GroupAggregator::kSum,
          recommend::GroupAggregator::kMin}) {
      QueryRequest request;
      request.user = user;
      request.n = static_cast<uint32_t>(n);
      request.kind = recommend::QueryKind::kGroup;
      request.aggregator = agg;
      request.group = group;
      request.bypass_cache = true;
      const QueryResponse response = service.Query(request);
      EXPECT_EQ(response.code, ResponseCode::kOk);

      float bound = 0.0f;
      const auto oracle = recommend::GroupTopEvents(
          snapshot->model(), snapshot->shard_events(), user, group, agg, n,
          &bound);
      ExpectSameItems(response.items, oracle);
      EXPECT_EQ(response.ta_bound, bound);
      for (const auto& item : response.items) {
        EXPECT_EQ(item.partner, ebsn::kInvalidId);
      }
    }

    {
      QueryRequest request;
      request.user = user;
      request.n = static_cast<uint32_t>(n);
      request.kind = recommend::QueryKind::kReciprocal;
      request.bypass_cache = true;
      const QueryResponse response = service.Query(request);
      EXPECT_EQ(response.code, ResponseCode::kOk);

      // ReciprocalSearch is certified equal to the exhaustive oracle
      // (pinned by the recommend-layer differential), so the served
      // answer must match the oracle bitwise in both modes.
      const auto oracle =
          recommend::ReciprocalTopPairs(snapshot->model(), snapshot->space(),
                                        user, n);
      ExpectSameItems(response.items, oracle);
      if (!response.items.empty()) {
        EXPECT_LE(response.ta_bound, response.items.back().score)
            << "reciprocal bound would void the merge certificate";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwentyEightSeeds, QueryKindDifferentialTest,
                         ::testing::Range<uint64_t>(0, 28));

// Regression for the cache-collision bug this PR fixes: before the
// kind/aggregator/group fields joined CacheKey, a kGroup answer could
// replay verbatim for the same user's kPartner query.
TEST(QueryKindCacheTest, GroupAndPartnerNeverCrossReturn) {
  auto store = RandomStore(16, 12, 8, 55);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 16, 12));

  QueryRequest group_request;
  group_request.user = 4;
  group_request.n = 6;
  group_request.kind = recommend::QueryKind::kGroup;
  group_request.group = {1, 2};
  const QueryResponse group_first = service.Query(group_request);
  EXPECT_FALSE(group_first.cache_hit);
  ASSERT_FALSE(group_first.items.empty());
  EXPECT_EQ(group_first.items[0].partner, ebsn::kInvalidId);

  // Same user and n, partner kind: must be a cache MISS and must carry
  // real partners, not the group answer's kInvalidId fillers.
  QueryRequest partner_request;
  partner_request.user = 4;
  partner_request.n = 6;
  const QueryResponse partner = service.Query(partner_request);
  EXPECT_FALSE(partner.cache_hit)
      << "kPartner query replayed a kGroup cache entry";
  ASSERT_FALSE(partner.items.empty());
  for (const auto& item : partner.items) {
    EXPECT_NE(item.partner, ebsn::kInvalidId);
  }

  // Reciprocal for the same user/n is a third distinct entry.
  QueryRequest recip_request;
  recip_request.user = 4;
  recip_request.n = 6;
  recip_request.kind = recommend::QueryKind::kReciprocal;
  EXPECT_FALSE(service.Query(recip_request).cache_hit);

  // Each kind still hits its own entry on repeat.
  EXPECT_TRUE(service.Query(group_request).cache_hit);
  EXPECT_TRUE(service.Query(partner_request).cache_hit);
  EXPECT_TRUE(service.Query(recip_request).cache_hit);
}

TEST(QueryKindCacheTest, AggregatorAndMemberSetAreKeyComponents) {
  auto store = RandomStore(16, 12, 8, 56);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 16, 12));

  QueryRequest request;
  request.user = 2;
  request.n = 5;
  request.kind = recommend::QueryKind::kGroup;
  request.group = {3, 7};
  request.aggregator = recommend::GroupAggregator::kSum;
  EXPECT_FALSE(service.Query(request).cache_hit);
  EXPECT_TRUE(service.Query(request).cache_hit);

  // min-aggregation over the same members is a different query.
  request.aggregator = recommend::GroupAggregator::kMin;
  EXPECT_FALSE(service.Query(request).cache_hit)
      << "min-aggregated query replayed the sum-aggregated entry";

  // A different member set is a different query.
  request.aggregator = recommend::GroupAggregator::kSum;
  request.group = {3, 8};
  EXPECT_FALSE(service.Query(request).cache_hit);

  // Member ORDER is semantic for kSum (it fixes the float accumulation
  // order), so a permuted group is also a distinct entry.
  request.group = {7, 3};
  EXPECT_FALSE(service.Query(request).cache_hit)
      << "permuted member list replayed the original group's entry";
}

TEST(QueryKindCacheTest, CacheKeyForDistinguishesKinds) {
  QueryRequest partner;
  partner.user = 9;
  partner.n = 10;
  QueryRequest group = partner;
  group.kind = recommend::QueryKind::kGroup;
  group.group = {1, 2, 3};
  QueryRequest recip = partner;
  recip.kind = recommend::QueryKind::kReciprocal;

  const CacheKey pk = CacheKey::For(partner);
  const CacheKey gk = CacheKey::For(group);
  const CacheKey rk = CacheKey::For(recip);
  EXPECT_FALSE(pk == gk);
  EXPECT_FALSE(pk == rk);
  EXPECT_FALSE(gk == rk);

  // Non-group kinds ignore stray group fields: a partner request that
  // accidentally carries members maps to the same key as one without.
  QueryRequest stray = partner;
  stray.group = {1, 2, 3};
  EXPECT_TRUE(CacheKey::For(stray) == pk);

  // HashGroup is order-sensitive.
  EXPECT_NE(CacheKey::HashGroup({1, 2, 3}), CacheKey::HashGroup({3, 2, 1}));
  EXPECT_NE(CacheKey::HashGroup({1}), CacheKey::HashGroup({1, 1}));
}

TEST(QueryKindCacheTest, CachedSpecialKindReplaysBound) {
  auto store = RandomStore(14, 10, 8, 57);
  auto snapshot = MakeSnapshot(*store, 14, 10);
  RecommendationService service(ServiceOptions{});
  service.Publish(snapshot);

  QueryRequest request;
  request.user = 1;
  request.n = 3;
  request.kind = recommend::QueryKind::kGroup;
  request.group = {5};
  const QueryResponse first = service.Query(request);
  ASSERT_FALSE(first.cache_hit);
  const QueryResponse second = service.Query(request);
  ASSERT_TRUE(second.cache_hit);
  EXPECT_EQ(second.ta_bound, first.ta_bound)
      << "cache hit lost the certified bound";
}

TEST(QueryKindBadRequestTest, MalformedRequestsAreTyped) {
  auto store = RandomStore(10, 8, 6, 58);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 8));

  // Group query with no members.
  QueryRequest empty_group;
  empty_group.user = 1;
  empty_group.n = 5;
  empty_group.kind = recommend::QueryKind::kGroup;
  QueryResponse response = service.Query(empty_group);
  EXPECT_EQ(response.code, ResponseCode::kBadRequest);
  EXPECT_TRUE(response.items.empty());

  // Group member beyond the user universe.
  QueryRequest bad_member;
  bad_member.user = 1;
  bad_member.n = 5;
  bad_member.kind = recommend::QueryKind::kGroup;
  bad_member.group = {2, 10};
  response = service.Query(bad_member);
  EXPECT_EQ(response.code, ResponseCode::kBadRequest);
  EXPECT_TRUE(response.items.empty());

  // Querying user beyond the universe, every kind.
  for (const recommend::QueryKind kind :
       {recommend::QueryKind::kPartner, recommend::QueryKind::kGroup,
        recommend::QueryKind::kReciprocal}) {
    QueryRequest oob;
    oob.user = 10;
    oob.n = 5;
    oob.kind = kind;
    if (kind == recommend::QueryKind::kGroup) oob.group = {1};
    response = service.Query(oob);
    EXPECT_EQ(response.code, ResponseCode::kBadRequest)
        << "kind " << recommend::QueryKindName(kind);
    EXPECT_TRUE(response.items.empty());
  }
  EXPECT_GE(service.metrics()
                ->GetCounter("gemrec_service_bad_requests_total")
                ->Value(),
            5u);
  // Each dispatched query bumped its kind counter, valid or not.
  EXPECT_GE(service.metrics()
                ->GetCounter("gemrec_query_kind_total{kind=\"group\"}")
                ->Value(),
            2u);

  // A well-formed query still works afterwards.
  QueryRequest ok;
  ok.user = 1;
  ok.n = 5;
  ok.kind = recommend::QueryKind::kGroup;
  ok.group = {2};
  response = service.Query(ok);
  EXPECT_EQ(response.code, ResponseCode::kOk);
  EXPECT_FALSE(response.items.empty());
}

// Bad requests must not poison the cache: a rejected group query and a
// later well-formed one with the same user/n are unrelated entries.
TEST(QueryKindBadRequestTest, BadRequestNeverCached) {
  auto store = RandomStore(10, 8, 6, 59);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 8));

  QueryRequest bad;
  bad.user = 2;
  bad.n = 4;
  bad.kind = recommend::QueryKind::kGroup;  // empty group
  EXPECT_EQ(service.Query(bad).code, ResponseCode::kBadRequest);

  QueryRequest good = bad;
  good.group = {1};
  const QueryResponse response = service.Query(good);
  EXPECT_EQ(response.code, ResponseCode::kOk);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_FALSE(response.items.empty());
}

}  // namespace
}  // namespace gemrec::serving
