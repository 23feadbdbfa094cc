// Unit tests of the quantized companion space: degenerate inputs the
// affine quantizer must survive without dividing by zero (empty store,
// a single pair, constant and all-zero columns), plus the property the
// whole retrieval stack leans on — QuantizeQuery's epsilon is a true
// one-sided bound on |approximate - exact| for every pair.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/vec_math.h"
#include "recommend/batch_ta_search.h"
#include "recommend/brute_force.h"
#include "recommend/candidate_index.h"
#include "recommend/gem_model.h"
#include "recommend/quantized_space.h"
#include "shard/partitioner.h"

namespace gemrec::recommend {
namespace {

std::unique_ptr<embedding::EmbeddingStore> MakeStore(uint32_t num_users,
                                                     uint32_t num_events,
                                                     uint32_t dim,
                                                     uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<CandidatePair> AllPairs(uint32_t num_users,
                                    uint32_t num_events) {
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < num_events; ++x) {
    for (uint32_t u = 0; u < num_users; ++u) pairs.push_back({x, u});
  }
  return pairs;
}

/// Recomputes the approximate score of pair `id` exactly the way
/// BatchTaSearch's component stage does, from the public accessors.
float ApproxScore(const QuantizedSpace& quant,
                  const QuantizedSpace::QuantizedQuery& qq,
                  const std::vector<int16_t>& eq,
                  const std::vector<int16_t>& pq, uint32_t id) {
  const SpaceIndex& index = quant.index();
  const uint32_t k = quant.latent_dim();
  const uint32_t e = index.pair_event_idx()[id];
  const uint32_t u = index.pair_partner_idx()[id];
  const float a =
      qq.event_bias +
      qq.event_scale *
          static_cast<float>(DotQ16(eq.data(), quant.EventCodes(e), k));
  const float b =
      qq.partner_bias +
      qq.partner_scale *
          static_cast<float>(DotQ16(pq.data(), quant.PartnerCodes(u), k));
  return a + b + qq.c_weight * quant.c_values()[id];
}

void CheckEpsilonBound(const TransformedSpace& space, const GemModel& model,
                       uint32_t num_users) {
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  const uint32_t k = quant.latent_dim();
  std::vector<int16_t> eq(k), pq(k);
  std::vector<float> q;
  std::vector<float> point(space.point_dim());
  for (uint32_t user = 0; user < num_users; ++user) {
    space.QueryVector(model, user, &q);
    const auto qq = quant.QuantizeQuery(q.data(), eq.data(), pq.data());
    for (uint32_t id = 0; id < space.num_points(); ++id) {
      space.CopyPoint(id, point.data());
      const float exact = Dot(q.data(), point.data(), space.point_dim());
      const float approx = ApproxScore(quant, qq, eq, pq, id);
      // Tiny slack for the fp32 evaluation of the bound itself.
      EXPECT_LE(std::fabs(approx - exact),
                qq.epsilon * 1.001f + 1e-5f)
          << "pair " << id << " user " << user << " eps=" << qq.epsilon;
    }
  }
}

TEST(QuantizedSpaceTest, EmptyStoreBuildsAndSearchesSafely) {
  auto store = MakeStore(3, 2, 4, 11);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, std::vector<CandidatePair>{});
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  EXPECT_TRUE(quant.c_values().empty());
  EXPECT_EQ(quant.num_events(), 0u);

  std::vector<float> q;
  space.QueryVector(model, 0, &q);
  const uint32_t k = quant.latent_dim();
  std::vector<int16_t> eq(k), pq(k);
  const auto qq = quant.QuantizeQuery(q.data(), eq.data(), pq.data());
  EXPECT_TRUE(std::isfinite(qq.epsilon));

  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace ws;
  std::vector<SearchHit> hits;
  BatchQuery query{q.data(), 5, 0};
  BatchSearchStats stats;
  batch.SearchBatch(&query, 1, &hits, &stats, &ws);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.points_examined, 0u);
}

TEST(QuantizedSpaceTest, SinglePairSpaceIsExact) {
  auto store = MakeStore(1, 1, 4, 12);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, AllPairs(1, 1));
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BruteForceSearch bf(&space);
  BatchTaSearch::Workspace ws;

  std::vector<float> q;
  space.QueryVector(model, 0, &q);
  std::vector<SearchHit> hits;

  // Excluding the only partner leaves nothing.
  BatchQuery self{q.data(), 3, 0};
  batch.SearchBatch(&self, 1, &hits, nullptr, &ws);
  EXPECT_TRUE(hits.empty());

  // An absent exclusion returns the single pair with the exact score.
  BatchQuery other{q.data(), 3, 99};
  batch.SearchBatch(&other, 1, &hits, nullptr, &ws);
  const auto oracle = bf.Search(q, 3, 99);
  ASSERT_EQ(hits.size(), 1u);
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_EQ(hits[0].score, oracle[0].score);
  EXPECT_EQ(hits[0].pair.event, oracle[0].pair.event);
}

TEST(QuantizedSpaceTest, ConstantAndZeroColumnsDoNotDivideByZero) {
  auto store = MakeStore(12, 8, 6, 13);
  // A constant nonzero partner dimension and an all-zero event one:
  // both quantize to range 0 (scale 0, codes 0).
  Matrix& users = store->MatrixOf(graph::NodeType::kUser);
  for (size_t r = 0; r < users.rows(); ++r) users.At(r, 3) = 0.5f;
  Matrix& events = store->MatrixOf(graph::NodeType::kEvent);
  for (size_t r = 0; r < events.rows(); ++r) events.At(r, 1) = 0.0f;

  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, AllPairs(12, 8));
  CheckEpsilonBound(space, model, 4);
}

TEST(QuantizedSpaceTest, AllZeroStoreQuantizes) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      4, std::array<uint32_t, 5>{5, 4, 1, 1, 1});
  store->MatrixOf(graph::NodeType::kUser).Fill(0.0f);
  store->MatrixOf(graph::NodeType::kEvent).Fill(0.0f);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, AllPairs(5, 4));
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BatchTaSearch::Workspace ws;
  std::vector<float> q;
  space.QueryVector(model, 0, &q);
  std::vector<SearchHit> hits;
  BatchQuery query{q.data(), 4, 0};
  batch.SearchBatch(&query, 1, &hits, nullptr, &ws);
  EXPECT_EQ(hits.size(), 4u);  // n caps the 16 non-excluded pairs
  for (const auto& h : hits) EXPECT_EQ(h.score, 0.0f);
}

TEST(QuantizedSpaceTest, EpsilonBoundsApproximationError) {
  auto store = MakeStore(30, 15, 8, 14);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, AllPairs(30, 15));
  CheckEpsilonBound(space, model, 6);
}

// Codes are 11-bit: every row code lies in [0, 2047], and in each
// non-flat column the minimum codes to 0 and the maximum to 2047.
TEST(QuantizedSpaceTest, RowCodesSpanTheElevenBitRange) {
  auto store = MakeStore(10, 6, 4, 15);
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, AllPairs(10, 6));
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  const uint32_t k = quant.latent_dim();
  for (const bool partner : {false, true}) {
    const size_t groups = partner ? quant.num_partners() : quant.num_events();
    for (uint32_t d = 0; d < k; ++d) {
      int lo = 2047, hi = 0;
      for (size_t g = 0; g < groups; ++g) {
        const int code = (partner ? quant.PartnerCodes(g)
                                  : quant.EventCodes(g))[d];
        ASSERT_GE(code, 0);
        ASSERT_LE(code, 2047);
        lo = std::min(lo, code);
        hi = std::max(hi, code);
      }
      EXPECT_EQ(lo, 0) << "partner " << partner << " dim " << d;
      EXPECT_EQ(hi, 2047) << "partner " << partner << " dim " << d;
    }
  }
}

/// The reference C order: std::stable_sort of the pair ids by C
/// descending.
std::vector<uint32_t> StableSortOrder(const std::vector<float>& c) {
  std::vector<uint32_t> order(c.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return c[a] > c[b]; });
  return order;
}

TEST(SpaceIndexCOrderTest, RadixOrderEqualsStableSortOnTiedValues) {
  // The index reads C only as sort keys, so these spaces take picked C
  // values over event-major pairs rather than dot products.
  auto store = MakeStore(60, 50, 4, 77);
  GemModel model(store.get(), "GEM");
  const std::vector<CandidatePair> all = AllPairs(60, 50);
  auto expect_stable_order = [&](const std::vector<float>& c) {
    const TransformedSpace space(
        model, {all.begin(), all.begin() + static_cast<long>(c.size())}, c);
    const SpaceIndex index(&space);
    const std::vector<uint32_t> want = StableSortOrder(c);
    EXPECT_EQ(index.c_sorted(), want);
    ASSERT_EQ(index.c_sorted_values().size(), c.size());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(std::bit_cast<uint32_t>(index.c_sorted_values()[r]),
                std::bit_cast<uint32_t>(c[want[r]]));
    }
  };
  // Repeated values, both zeros (which `>` finds equal), negatives,
  // subnormals and values whose keys share every high digit.
  expect_stable_order({0.5f,   -0.0f, 0.0f,   2.0f,  0.5f,  -3.0f,
                       1e-40f, 0.0f,  -1e-40f, -0.0f, 2.0f,  -3.0f,
                       1.0f,   1.0000001f, 1.0f, 1e30f, -1e30f, 0.5f});
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    // Few distinct values among many pairs: long runs of ties.
    std::vector<float> values(1 + rng.UniformInt(6));
    for (float& v : values) v = static_cast<float>(rng.Gaussian(0.0, 2.0));
    std::vector<float> many(1 + rng.UniformInt(3000));
    for (float& v : many) v = values[rng.UniformInt(values.size())];
    expect_stable_order(many);
  }
  expect_stable_order({});
}

TEST(SpaceIndexCOrderTest, IndexOrderEqualsStableSortOnTiedSpaces) {
  // Users and events that share rows give every C value many pairs.
  auto store = MakeStore(12, 9, 4, 21);
  for (auto type : {graph::NodeType::kUser, graph::NodeType::kEvent}) {
    Matrix& m = store->MatrixOf(type);
    for (size_t r = 3; r < m.rows(); ++r) {
      for (size_t d = 0; d < m.cols(); ++d) m.At(r, d) = m.At(r % 3, d);
    }
  }
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, AllPairs(12, 9));
  SpaceIndex index(&space);
  EXPECT_EQ(index.c_sorted(), StableSortOrder(space.c_values()));

  // A shard that owns no partner builds an empty space.
  const CandidateList none = BuildCandidateList(
      model, {0, 1, 2, 3, 4, 5}, shard::OwnedPartners({1, 2}, 1), 2);
  TransformedSpace empty(model, none.pairs, none.c);
  SpaceIndex empty_index(&empty);
  EXPECT_TRUE(empty_index.c_sorted().empty());
  EXPECT_EQ(empty_index.c_sorted(), StableSortOrder(empty.c_values()));
  EXPECT_EQ(empty_index.num_partners(), 0u);
}

}  // namespace
}  // namespace gemrec::recommend
