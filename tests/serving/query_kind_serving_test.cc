// Serve-path coverage for the non-partner query kinds: group and
// reciprocal answers must be bitwise-equal to the offline brute-force
// oracles over many seeded spaces, both when computed (group by its
// event scan, reciprocal on the quantized batch walk) and when
// replayed from the result cache; one worker batch mixing every kind,
// a cache hit and a bad request must answer each request by its own
// oracle; the result cache must never cross-return between kinds /
// aggregators / member sets, and malformed requests must come back as
// typed bad-requests, never empty-but-ok answers.

#include <array>
#include <future>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/brute_force.h"
#include "recommend/query_kinds.h"
#include "serving/recommendation_service.h"
#include "serving/result_cache.h"
#include "../testing/metrics.h"

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

// One seeded trial per parameter; each trial exercises both serve
// modes of a query — computed on a miss, then replayed from the cache —
// both group aggregators and the reciprocal path.
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
  auto snapshot = MakeSnapshot(*store, num_users, num_events);
  ServiceOptions options;
  options.num_workers = 2;
  RecommendationService service(options);
  service.Publish(snapshot);

  for (const bool cached : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "cached=" << cached);
    for (const recommend::GroupAggregator agg :
         {recommend::GroupAggregator::kSum,
          recommend::GroupAggregator::kMin}) {
      QueryRequest request;
      request.user = user;
      request.n = static_cast<uint32_t>(n);
      request.kind = recommend::QueryKind::kGroup;
      request.aggregator = agg;
      request.group = group;
      const QueryResponse response = service.Query(request);
      EXPECT_EQ(response.code, ResponseCode::kOk);
      EXPECT_EQ(response.cache_hit, cached);

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
      const QueryResponse response = service.Query(request);
      EXPECT_EQ(response.code, ResponseCode::kOk);
      EXPECT_EQ(response.cache_hit, cached);

      // The batch walk's certificate makes the served answer equal the
      // exhaustive oracle bitwise (pinned at the recommend layer by
      // the certificate soundness differential).
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

// One worker batch carrying every miss shape at once: partner, group
// and reciprocal misses (one reciprocal deep enough to need a
// follow-up walk). The cache hit and the out-of-range users submitted
// among them complete on submit and never ride the batch. Pins the
// miss-index and staging-buffer bookkeeping when kinds interleave in
// one SearchBatch call: each request must come back with its own
// oracle's answer or its typed kBadRequest.
TEST(QueryKindMixedBatchTest, EveryKindInOneBatchGetsItsOwnAnswer) {
  constexpr uint32_t kUsers = 40;
  constexpr uint32_t kEvents = 30;
  auto store = RandomStore(kUsers, kEvents, 8, 61);
  // Uneven user norms decorrelate the forward ranking d(u -> .) from
  // the reciprocal min: user 0's walk certifies only at depth 512 of
  // 1200 pairs, so it rides follow-up calls without exhausting.
  Matrix& users = store->MatrixOf(graph::NodeType::kUser);
  for (size_t r = 0; r < users.rows(); ++r) {
    const float scale = r == 0 ? 2.0f : 0.05f + 0.1f * (r % 7);
    for (size_t c = 0; c < users.cols(); ++c) users.At(r, c) *= scale;
  }
  auto snapshot = MakeSnapshot(*store, kUsers, kEvents);

  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 64;
  RecommendationService service(options);
  service.Publish(snapshot);

  // Warm the cache entry the batch will hit.
  QueryRequest cached;
  cached.user = 5;
  cached.n = 6;
  const QueryResponse warm = service.Query(cached);
  ASSERT_FALSE(warm.cache_hit);

  // Park the only worker inside a batch so every miss below queues up
  // and is drained together.
  std::promise<void> entered, release;
  std::shared_future<void> released = release.get_future().share();
  QueryRequest blocker;
  blocker.user = 1;
  blocker.n = 3;
  blocker.bypass_cache = true;
  service.SubmitAsync(blocker, [&entered, released](QueryResponse) {
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();

  std::vector<QueryRequest> requests;
  const auto add = [&](recommend::QueryKind kind, ebsn::UserId user,
                       uint32_t n, std::vector<ebsn::UserId> group = {}) {
    QueryRequest request;
    request.kind = kind;
    request.user = user;
    request.n = n;
    request.group = std::move(group);
    requests.push_back(request);
  };
  add(recommend::QueryKind::kPartner, 2, 7);
  add(recommend::QueryKind::kReciprocal, 0, 16);  // deepens
  add(recommend::QueryKind::kPartner, kUsers, 5);  // out of range
  add(recommend::QueryKind::kGroup, 3, 4, {7, 9});
  requests.push_back(cached);
  add(recommend::QueryKind::kReciprocal, 4, 5);
  add(recommend::QueryKind::kReciprocal, kUsers + 3, 5);  // out of range
  add(recommend::QueryKind::kPartner, 6, 9);
  add(recommend::QueryKind::kReciprocal, 8, 2);
  const auto batches = [&] {
    return testing::CounterValue(*service.metrics(),
                                 "gemrec_service_batches_total");
  };
  const auto walks = [&] {
    return service.metrics()
        ->GetHistogram("gemrec_service_quantize_scan_us")
        ->Snapshot()
        .count;
  };
  const uint64_t batches_before = batches();
  const uint64_t walks_before = walks();
  std::vector<std::future<QueryResponse>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service.Submit(request));
  }
  release.set_value();
  std::vector<QueryResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());
  // The six misses rode one batch, and the heavy user's reciprocal miss
  // took a follow-up walk on top of the batch's first SearchBatch call.
  EXPECT_EQ(batches(), batches_before + 1);
  EXPECT_GE(walks(), walks_before + 2);

  std::vector<float> q;
  recommend::BruteForceSearch brute(&snapshot->space());
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryRequest& request = requests[i];
    SCOPED_TRACE(::testing::Message()
                 << "request " << i << " kind "
                 << recommend::QueryKindName(request.kind) << " user "
                 << request.user);
    const QueryResponse& response = responses[i];
    if (request.user >= kUsers) {
      EXPECT_EQ(response.code, ResponseCode::kBadRequest);
      EXPECT_TRUE(response.items.empty());
      continue;
    }
    ASSERT_EQ(response.code, ResponseCode::kOk);
    EXPECT_EQ(response.cache_hit, i == 4);
    std::vector<recommend::Recommendation> oracle;
    switch (request.kind) {
      case recommend::QueryKind::kPartner:
        snapshot->QueryVector(request.user, &q);
        for (const recommend::SearchHit& hit :
             brute.Search(q, request.n, request.user)) {
          oracle.push_back(recommend::Recommendation{
              hit.pair.event, hit.pair.partner, hit.score});
        }
        break;
      case recommend::QueryKind::kGroup:
        oracle = recommend::GroupTopEvents(
            snapshot->model(), snapshot->shard_events(), request.user,
            request.group, request.aggregator, request.n);
        break;
      case recommend::QueryKind::kReciprocal: {
        float best_unreturned = 0.0f;
        oracle = recommend::ReciprocalTopPairs(
            snapshot->model(), snapshot->space(), request.user, request.n,
            &best_unreturned);
        EXPECT_GE(response.ta_bound, best_unreturned);
        EXPECT_LE(response.ta_bound, response.items.back().score);
        // A walk does not depend on its batch-mates: served alone, the
        // query reproduces its answer, its certificate and the work of
        // its final walk.
        QueryRequest alone = request;
        alone.bypass_cache = true;
        const QueryResponse single = service.Query(alone);
        ExpectSameItems(single.items, response.items);
        EXPECT_EQ(single.ta_bound, response.ta_bound);
        EXPECT_EQ(single.stats.points_examined,
                  response.stats.points_examined);
        EXPECT_EQ(single.stats.sorted_accesses,
                  response.stats.sorted_accesses);
        break;
      }
    }
    ExpectSameItems(response.items, oracle);
  }

}

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
