// Adversarial/property tests for the aggregate-list TA beyond the
// canonical q_u = (ū, ū, 1) queries: arbitrary nonnegative queries,
// pruned candidate spaces, duplicate-heavy coordinates and tie-dense
// scores. TA must stay *exact* (same score multiset as brute force).

#include <gtest/gtest.h>

#include "recommend/brute_force.h"
#include "recommend/candidate_index.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {
namespace {

std::unique_ptr<embedding::EmbeddingStore> RandomStore(
    uint32_t num_users, uint32_t num_events, uint32_t dim,
    uint64_t seed, float sparsity = 0.0f) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  auto fill = [&](Matrix* m) {
    for (float& v : m->data()) {
      v = rng.UniformFloat() < sparsity
              ? 0.0f
              : static_cast<float>(std::fabs(rng.Gaussian(0.2, 0.3)));
    }
  };
  fill(&store->MatrixOf(graph::NodeType::kUser));
  fill(&store->MatrixOf(graph::NodeType::kEvent));
  return store;
}

void ExpectTaMatchesBruteForce(const TransformedSpace& space,
                               const std::vector<float>& query, size_t n,
                               ebsn::UserId exclude) {
  TaSearch ta(&space);
  BruteForceSearch bf(&space);
  const auto a = ta.Search(query, n, exclude);
  const auto b = bf.Search(query, n, exclude);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].score, b[i].score, 1e-4f) << "rank " << i;
  }
}

TEST(TaGenericTest, ArbitraryNonnegativeQueriesAreExact) {
  auto store = RandomStore(12, 10, 5, 1);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < 10; ++x) {
    for (uint32_t u = 0; u < 12; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> query(space.point_dim());
    for (auto& q : query) {
      q = static_cast<float>(std::fabs(rng.Gaussian(0.0, 1.0)));
    }
    // The C weight (last coordinate) need not be 1.
    ExpectTaMatchesBruteForce(space, query, 1 + trial % 7,
                              static_cast<ebsn::UserId>(trial % 12));
  }
}

TEST(TaGenericTest, ZeroCWeightStillExact) {
  auto store = RandomStore(8, 8, 4, 3);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t u = 0; u < 8; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  std::vector<float> query(space.point_dim(), 0.5f);
  query[space.point_dim() - 1] = 0.0f;
  ExpectTaMatchesBruteForce(space, query, 5, 0);
}

TEST(TaGenericTest, AllZeroQueryStillReturnsRequestedCount) {
  auto store = RandomStore(5, 5, 3, 4);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < 5; ++x) {
    for (uint32_t u = 0; u < 5; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  TaSearch ta(&space);
  std::vector<float> query(space.point_dim(), 0.0f);
  const auto hits = ta.Search(query, 7, 0);
  EXPECT_EQ(hits.size(), 7u);
  for (const auto& h : hits) {
    EXPECT_EQ(h.score, 0.0f);
    EXPECT_NE(h.pair.partner, 0u);
  }
}

TEST(TaGenericTest, PrunedSpacesAreExact) {
  auto store = RandomStore(20, 30, 6, 5);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events;
  for (uint32_t x = 0; x < 30; ++x) events.push_back(x);
  for (uint32_t k : {1u, 3u, 10u}) {
    auto pairs = BuildCandidatePairs(model, events, AllUsers(20), k);
    TransformedSpace space(model, std::move(pairs));
    std::vector<float> query;
    space.QueryVector(model, 7, &query);
    ExpectTaMatchesBruteForce(space, query, 10, 7);
  }
}

TEST(TaGenericTest, SparseEmbeddingsAreExact) {
  // 70% zero coordinates — many ties and empty dimensions.
  auto store = RandomStore(15, 15, 8, 6, /*sparsity=*/0.7f);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < 15; ++x) {
    for (uint32_t u = 0; u < 15; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  std::vector<float> query;
  for (ebsn::UserId u : {0u, 5u, 14u}) {
    space.QueryVector(model, u, &query);
    ExpectTaMatchesBruteForce(space, query, 12, u);
  }
}

TEST(TaGenericTest, SinglePairSpace) {
  auto store = RandomStore(2, 1, 3, 7);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, {{0, 1}});
  TaSearch ta(&space);
  std::vector<float> query;
  space.QueryVector(model, 0, &query);
  const auto hits = ta.Search(query, 5, 0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].pair.event, 0u);
  EXPECT_EQ(hits[0].pair.partner, 1u);
}

TEST(TaGenericTest, ExcludingTheOnlyPartnerYieldsNothing) {
  auto store = RandomStore(2, 3, 3, 8);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs = {{0, 1}, {1, 1}, {2, 1}};
  TransformedSpace space(model, pairs);
  TaSearch ta(&space);
  std::vector<float> query;
  space.QueryVector(model, 1, &query);
  EXPECT_TRUE(ta.Search(query, 3, 1).empty());
}

/// Property sweep: random shapes, random exclusions, k requests around
/// the space size.
class TaRandomSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaRandomSweepTest, AlwaysMatchesBruteForce) {
  Rng rng(GetParam());
  const uint32_t num_users = 2 + rng.UniformInt(25);
  const uint32_t num_events = 1 + rng.UniformInt(25);
  auto store = RandomStore(num_users, num_events, 4 + rng.UniformInt(6),
                           GetParam() * 13 + 1);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < num_events; ++x) {
    for (uint32_t u = 0; u < num_users; ++u) {
      if (rng.Bernoulli(0.8)) pairs.push_back({x, u});
    }
  }
  if (pairs.empty()) pairs.push_back({0, 0});
  TransformedSpace space(model, pairs);
  std::vector<float> query;
  const auto user = static_cast<ebsn::UserId>(rng.UniformInt(num_users));
  space.QueryVector(model, user, &query);
  const size_t n = 1 + rng.UniformInt(pairs.size() + 3);
  ExpectTaMatchesBruteForce(space, query, n, user);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaRandomSweepTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace gemrec::recommend
