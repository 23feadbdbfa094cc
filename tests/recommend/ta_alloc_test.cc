// Pins the zero-allocation contracts of TaSearch and BatchTaSearch:
// once their scratch and output buffers are warm, SearchInto,
// SearchBatch and the reciprocal rescore must not touch the heap; and
// a warm GroupScan allocates only the items it returns.
// Lives in its own test binary because it replaces the global
// allocator (testing/counting_allocator.h).

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../testing/counting_allocator.h"
#include "recommend/batch_ta_search.h"
#include "recommend/candidate_index.h"
#include "recommend/gem_model.h"
#include "recommend/quantized_space.h"
#include "recommend/query_kinds.h"
#include "recommend/space_transform.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {
namespace {

TEST(TaAllocTest, SteadyStateSearchIntoAllocatesNothing) {
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  constexpr uint32_t kDim = 8;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(17);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < kEvents; ++x) {
    for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  TaSearch ta(&space);

  // Pre-build every query so the measured loop constructs none.
  std::vector<std::vector<float>> queries(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) {
    space.QueryVector(model, u, &queries[u]);
  }

  TaSearch::Scratch scratch;
  std::vector<SearchHit> hits;
  SearchStats stats;
  // Warm-up: grows the scratch buffers and the output capacity.
  for (uint32_t u = 0; u < kUsers; ++u) {
    ta.SearchInto(queries[u], 10, u, &hits, &stats, &scratch);
  }

  const size_t before = ::gemrec::testing::Allocations();
  for (int round = 0; round < 50; ++round) {
    for (uint32_t u = 0; u < kUsers; ++u) {
      ta.SearchInto(queries[u], 10, u, &hits, &stats, &scratch);
      ASSERT_FALSE(hits.empty());
    }
  }
  const size_t after = ::gemrec::testing::Allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state SearchInto performed " << (after - before)
      << " heap allocations over 1250 queries";
}

/// Same contract for the quantized batch path: once the Workspace and
/// the result vectors are warm, SearchBatch must not touch the heap.
TEST(TaAllocTest, SteadyStateSearchBatchAllocatesNothing) {
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  constexpr uint32_t kDim = 8;
  constexpr size_t kBatch = 25;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(18);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < kEvents; ++x) {
    for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  SpaceIndex index(&space);

  std::vector<std::vector<float>> queries(kUsers);
  std::vector<BatchQuery> batch_queries(kBatch);
  for (uint32_t u = 0; u < kUsers; ++u) {
    space.QueryVector(model, u, &queries[u]);
    batch_queries[u] = BatchQuery{queries[u].data(), 10, u};
  }

  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace ws;
  std::vector<std::vector<SearchHit>> results(kBatch);
  BatchSearchStats stats;
  // Warm-up: grows workspace buffers and result capacities.
  batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                    &stats, &ws);

  const size_t before = ::gemrec::testing::Allocations();
  for (int round = 0; round < 50; ++round) {
    batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                      &stats, &ws);
    ASSERT_FALSE(results[0].empty());
  }
  const size_t after = ::gemrec::testing::Allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state SearchBatch performed " << (after - before)
      << " heap allocations over 50 batches of " << kBatch;
}

/// A batch whose walks outrun one 64-row code block: 300 partner
/// groups of at most 2 pairs each, and event embeddings shrunk 1000x so
/// the partner list leads the walk. A top-200 then reads at least 100
/// partner groups, so each query expands several blocks; the
/// expansions reuse the workspace's heaps once they are warm.
TEST(TaAllocTest, SteadyStateDeepWalkBatchAllocatesNothing) {
  constexpr uint32_t kUsers = 300;
  constexpr uint32_t kEvents = 12;
  constexpr uint32_t kDim = 8;
  constexpr size_t kBatch = 8;
  constexpr size_t kN = 200;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(20);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  Matrix& events = store->MatrixOf(graph::NodeType::kEvent);
  events.FillAbsGaussian(&rng, 0.2, 0.3);
  for (size_t r = 0; r < events.rows(); ++r) {
    for (size_t c = 0; c < events.cols(); ++c) events.At(r, c) *= 1e-3f;
  }
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> pool(kEvents);
  for (uint32_t x = 0; x < kEvents; ++x) pool[x] = x;
  TransformedSpace space(model,
                         BuildCandidatePairs(model, pool, AllUsers(kUsers), 2));
  SpaceIndex index(&space);

  std::vector<std::vector<float>> queries(kBatch);
  std::vector<BatchQuery> batch_queries(kBatch);
  for (uint32_t i = 0; i < kBatch; ++i) {
    const uint32_t u = 37 * i;
    space.QueryVector(model, u, &queries[i]);
    batch_queries[i] = BatchQuery{queries[i].data(), kN, u};
  }

  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace ws;
  std::vector<std::vector<SearchHit>> results(kBatch);
  BatchSearchStats stats;
  batch.SearchBatch(batch_queries.data(), kBatch, results.data(), &stats,
                    &ws);

  const size_t before = ::gemrec::testing::Allocations();
  for (int round = 0; round < 20; ++round) {
    batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                      &stats, &ws);
    ASSERT_EQ(results[0].size(), kN);
  }
  const size_t after = ::gemrec::testing::Allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state deep-walk SearchBatch performed "
      << (after - before) << " heap allocations over 20 batches";
}

/// A flat partner half: the queries' partner coordinates are all 0, so
/// every partner code is 0, every block bound is 0 and every partner
/// dot is 0. The first read of the partner list therefore expands every
/// one of its 16 blocks, and the warm workspace must hold them all
/// without touching the heap.
TEST(TaAllocTest, SteadyStateFlatQueryExpandingEveryBlockAllocatesNothing) {
  constexpr uint32_t kUsers = 1000;
  constexpr uint32_t kEvents = 12;
  constexpr uint32_t kDim = 8;
  constexpr size_t kBatch = 8;
  constexpr size_t kN = 10;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(21);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> pool(kEvents);
  for (uint32_t x = 0; x < kEvents; ++x) pool[x] = x;
  TransformedSpace space(model,
                         BuildCandidatePairs(model, pool, AllUsers(kUsers), 2));
  SpaceIndex index(&space);

  std::vector<std::vector<float>> queries(kBatch);
  std::vector<BatchQuery> batch_queries(kBatch);
  for (uint32_t i = 0; i < kBatch; ++i) {
    const uint32_t u = 101 * i;
    space.QueryVector(model, u, &queries[i]);
    std::fill(queries[i].begin() + kDim, queries[i].begin() + 2 * kDim,
              0.0f);
    batch_queries[i] = BatchQuery{queries[i].data(), kN, u};
  }

  QuantizedSpace quant(&index);
  const size_t blocks = quant.event_blocks().num_blocks() +
                        quant.partner_blocks().num_blocks();
  ASSERT_EQ(quant.partner_blocks().num_blocks(), 16u);
  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace ws;
  std::vector<std::vector<SearchHit>> results(kBatch);
  BatchSearchStats stats;
  batch.SearchBatch(batch_queries.data(), kBatch, results.data(), &stats,
                    &ws);

  const size_t before = ::gemrec::testing::Allocations();
  for (int round = 0; round < 20; ++round) {
    batch.SearchBatch(batch_queries.data(), kBatch, results.data(),
                      &stats, &ws);
    ASSERT_EQ(results[0].size(), kN);
    ASSERT_EQ(stats.blocks_expanded, kBatch * blocks);
  }
  const size_t after = ::gemrec::testing::Allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state flat-query SearchBatch performed "
      << (after - before) << " heap allocations over 20 batches";
}

/// The serving batch shape: partner queries and reciprocal forward
/// walks (query (u, u, 0) at depth ReciprocalDepth(n)) share one
/// SearchBatch call, then every reciprocal result is rescored and
/// certified. Once the workspace, the result vectors and the rescore
/// buffer are warm, none of it may touch the heap.
TEST(TaAllocTest, SteadyStateReciprocalBatchAllocatesNothing) {
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  constexpr uint32_t kDim = 8;
  constexpr size_t kN = 10;

  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(19);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < kEvents; ++x) {
    for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  SpaceIndex index(&space);

  // Even users ask partner queries, odd users reciprocal ones.
  std::vector<std::vector<float>> queries(kUsers);
  std::vector<BatchQuery> batch_queries(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) {
    size_t depth = kN;
    if (u % 2 == 1) {
      ReciprocalQueryVector(model, u, space.point_dim(), &queries[u]);
      depth = ReciprocalDepth(kN);
    } else {
      space.QueryVector(model, u, &queries[u]);
    }
    batch_queries[u] = BatchQuery{queries[u].data(), depth, u};
  }

  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace ws;
  std::vector<std::vector<SearchHit>> results(kUsers);
  std::vector<SearchStats> stats(kUsers);
  std::vector<Recommendation> top;
  size_t certified = 0;
  const auto serve = [&] {
    batch.SearchBatch(batch_queries.data(), kUsers, results.data(),
                      nullptr, &ws, stats.data());
    for (uint32_t u = 1; u < kUsers; u += 2) {
      float bound = 0.0f;
      certified += CertifyReciprocal(model, u, kN, batch_queries[u].n,
                                     results[u], stats[u].unreturned_bound,
                                     &top, &bound);
    }
  };
  serve();  // warm-up: grows every buffer

  certified = 0;
  const size_t before = ::gemrec::testing::Allocations();
  for (int round = 0; round < 50; ++round) serve();
  const size_t after = ::gemrec::testing::Allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state reciprocal batch performed " << (after - before)
      << " heap allocations over 50 batches";
  EXPECT_GT(certified, 0u) << "no reciprocal query exercised the rescore";
}

/// Once its scratch is warm, a served group scan's one heap allocation
/// is the vector of items it returns (none when it returns nothing).
TEST(TaAllocTest, WarmGroupScanAllocatesOnlyItsItems) {
  constexpr uint32_t kUsers = 40;
  constexpr uint32_t kEvents = 300;
  auto store = std::make_unique<embedding::EmbeddingStore>(
      32, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
  Rng rng(21);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.2, 0.3);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> pool(kEvents);
  for (uint32_t x = 0; x < kEvents; ++x) pool[x] = x;
  const EventsByNorm ordered = OrderEventsByNorm(model, pool);

  struct Query {
    ebsn::UserId user;
    std::vector<ebsn::UserId> members;
    GroupAggregator agg;
    size_t n;
  };
  std::vector<Query> queries;
  for (int q = 0; q < 60; ++q) {
    Query query{static_cast<ebsn::UserId>(rng.UniformInt(kUsers)), {},
                q % 2 == 0 ? GroupAggregator::kSum : GroupAggregator::kMin,
                std::array<size_t, 5>{0, 1, 10, 50, kEvents}[q % 5]};
    const size_t size = 1 + rng.UniformInt(8);
    while (query.members.size() < size) {
      query.members.push_back(
          static_cast<ebsn::UserId>(rng.UniformInt(kUsers)));
    }
    queries.push_back(std::move(query));
  }

  GroupScanScratch scratch;
  SearchStats stats;
  size_t returning = 0;  // queries that return items
  for (const Query& q : queries) {  // warm-up: grows the scratch
    const auto items = GroupScan(model, ordered, q.user, q.members, q.agg,
                                 q.n, &scratch, &stats);
    returning += items.empty() ? 0 : 1;
  }
  ASSERT_GT(returning, 0u);
  ASSERT_LT(returning, queries.size());
  const size_t before = ::gemrec::testing::Allocations();
  for (int round = 0; round < 5; ++round) {
    for (const Query& q : queries) {
      GroupScan(model, ordered, q.user, q.members, q.agg, q.n, &scratch,
                &stats);
    }
  }
  const size_t after = ::gemrec::testing::Allocations();
  EXPECT_EQ(after - before, 5 * returning)
      << "a warm group scan should allocate only its returned items";
}

}  // namespace
}  // namespace gemrec::recommend
