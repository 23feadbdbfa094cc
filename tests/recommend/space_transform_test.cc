#include "recommend/space_transform.h"

#include <algorithm>
#include <array>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec_math.h"

namespace gemrec::recommend {
namespace {

/// Store with 3 users and 3 events in a 2-dim space with hand-set
/// coordinates.
std::unique_ptr<embedding::EmbeddingStore> MakeStore() {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      2, std::array<uint32_t, 5>{3, 3, 1, 1, 1});
  const float users[3][2] = {{1, 0}, {0, 1}, {0.5, 0.5}};
  const float events[3][2] = {{2, 0}, {0, 2}, {1, 1}};
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t f = 0; f < 2; ++f) {
      store->VectorOf(graph::NodeType::kUser, i)[f] = users[i][f];
      store->VectorOf(graph::NodeType::kEvent, i)[f] = events[i][f];
    }
  }
  return store;
}

TEST(SpaceTransformTest, PointDimIs2KPlus1) {
  auto store = MakeStore();
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, {{0, 0}});
  EXPECT_EQ(space.point_dim(), 5u);
  EXPECT_EQ(space.num_points(), 1u);
}

TEST(SpaceTransformTest, PointLayoutIsEventPartnerDot) {
  auto store = MakeStore();
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, {{1, 2}});  // event 1, partner 2
  float p[5];
  space.CopyPoint(0, p);
  // (x̄, ū', ū'ᵀx̄) = (0, 2, 0.5, 0.5, 1.0)
  EXPECT_FLOAT_EQ(p[0], 0.0f);
  EXPECT_FLOAT_EQ(p[1], 2.0f);
  EXPECT_FLOAT_EQ(p[2], 0.5f);
  EXPECT_FLOAT_EQ(p[3], 0.5f);
  EXPECT_FLOAT_EQ(p[4], 1.0f);
}

TEST(SpaceTransformTest, AssembledPointIsRowsAndDotBitwise) {
  // 37 dims: the Dot kernels' vector blocks straddle the x̄/ū' seam.
  constexpr uint32_t kDim = 37;
  embedding::EmbeddingStore store(kDim, std::array<uint32_t, 5>{7, 5, 1, 1, 1});
  Rng rng(3);
  store.MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store.MatrixOf(graph::NodeType::kEvent).FillGaussian(&rng, 0.0, 0.5);
  GemModel model(&store, "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < 5; ++x) {
    for (uint32_t u = 0; u < 7; ++u) pairs.push_back({x, u});
  }
  TransformedSpace space(model, pairs);
  std::vector<float> got(space.point_dim());
  std::vector<float> want(space.point_dim());
  for (size_t i = 0; i < space.num_points(); ++i) {
    const float* x = model.EventVec(pairs[i].event);
    const float* u = model.UserVec(pairs[i].partner);
    std::copy_n(x, kDim, want.begin());
    std::copy_n(u, kDim, want.begin() + kDim);
    want[2 * kDim] = Dot(u, x, kDim);
    space.CopyPoint(i, got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             want.size() * sizeof(float)))
        << "pair " << i;
    EXPECT_EQ(0, std::memcmp(&space.c_values()[i], &want[2 * kDim],
                             sizeof(float)));
  }
}

TEST(SpaceTransformTest, QueryLayoutIsUserUserOne) {
  auto store = MakeStore();
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, {{0, 0}});
  std::vector<float> q;
  space.QueryVector(model, 1, &q);
  ASSERT_EQ(q.size(), 5u);
  EXPECT_FLOAT_EQ(q[0], 0.0f);
  EXPECT_FLOAT_EQ(q[1], 1.0f);
  EXPECT_FLOAT_EQ(q[2], 0.0f);
  EXPECT_FLOAT_EQ(q[3], 1.0f);
  EXPECT_FLOAT_EQ(q[4], 1.0f);
}

TEST(SpaceTransformTest, InnerProductEqualsEqn8Score) {
  // The core correctness property of §IV: q_u · p_{xu'} must equal
  // ūᵀx̄ + ū'ᵀx̄ + ūᵀū' for every (u, x, u').
  auto store = MakeStore();
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < 3; ++x) {
    for (uint32_t p = 0; p < 3; ++p) pairs.push_back({x, p});
  }
  TransformedSpace space(model, pairs);
  std::vector<float> q;
  std::vector<float> point(space.point_dim());
  for (uint32_t u = 0; u < 3; ++u) {
    space.QueryVector(model, u, &q);
    for (size_t i = 0; i < space.num_points(); ++i) {
      const auto& pair = space.pair(i);
      space.CopyPoint(i, point.data());
      const float via_transform =
          Dot(q.data(), point.data(), space.point_dim());
      const float direct = model.ScoreUserEvent(u, pair.event) +
                           model.ScoreUserEvent(pair.partner, pair.event) +
                           model.ScoreUserUser(u, pair.partner);
      EXPECT_NEAR(via_transform, direct, 1e-5f)
          << "u=" << u << " x=" << pair.event << " p=" << pair.partner;
    }
  }
}

TEST(SpaceTransformTest, EmptyPairListSupported) {
  auto store = MakeStore();
  GemModel model(store.get(), "GEM");
  TransformedSpace space(model, {});
  EXPECT_EQ(space.num_points(), 0u);
}

TEST(GemModelTest, ScoresAreDotProducts) {
  auto store = MakeStore();
  GemModel model(store.get(), "GEM-A");
  EXPECT_EQ(model.Name(), "GEM-A");
  EXPECT_FLOAT_EQ(model.ScoreUserEvent(0, 0), 2.0f);  // (1,0)·(2,0)
  EXPECT_FLOAT_EQ(model.ScoreUserEvent(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(model.ScoreUserUser(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(model.ScoreUserUser(0, 2), 0.5f);
}

TEST(GemModelTest, DefaultTripleScoreIsPairwiseDecomposition) {
  auto store = MakeStore();
  GemModel model(store.get(), "GEM");
  const float expected = model.ScoreUserEvent(0, 2) +
                         model.ScoreUserEvent(1, 2) +
                         model.ScoreUserUser(0, 1);
  EXPECT_FLOAT_EQ(model.ScoreTriple(0, 1, 2), expected);
}

}  // namespace
}  // namespace gemrec::recommend
