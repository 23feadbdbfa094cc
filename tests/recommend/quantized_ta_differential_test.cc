// Randomized differential test of the quantized batched retrieval:
// over 50 seeded synthetic spaces (varying |U|, |X|, K, pruning,
// filters and deliberate ties), BatchTaSearch must
// return exactly the BruteForce top-n, modulo tie interleaving.
//
// Unlike the exact-TA differential (ta_differential_test.cc), scores
// here must match brute force *bitwise*: the batch path re-ranks every
// examined pair with the same full-width fp32 Dot kernel brute force
// uses, so any score difference at all means a true top-n candidate
// was pruned by the widened quantized threshold — the one bug class
// this suite exists to catch.
//
// A second property suite stretches per-dimension value ranges across
// ten orders of magnitude (the worst case for per-dimension affine
// quantization) and asserts the widened bound still never prunes a
// true top-k candidate.
//
// A third suite drives walks through many 64-row code blocks of the
// partner list: identical partner rows, so every block ties at one
// bound, top-n walks deep enough to expand several blocks, and walks
// that run to exhaustion.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/batch_ta_search.h"
#include "recommend/brute_force.h"
#include "recommend/candidate_index.h"
#include "recommend/quantized_space.h"

namespace gemrec::recommend {
namespace {

struct TrialConfig {
  uint64_t seed = 0;
  uint32_t num_users = 0;
  uint32_t num_events = 0;
  uint32_t dim = 0;
  uint32_t top_k = 0;
  uint32_t pool_size = 0;
  size_t n = 0;
  bool quantize_values = false;  // coarse grid -> deliberate ties
};

TrialConfig MakeTrial(uint64_t index) {
  SplitMix64 mix(0xba7c4ed + index);
  TrialConfig trial;
  trial.seed = mix.Next();
  trial.num_users = 3 + mix.Next() % 58;   // 3 .. 60
  trial.num_events = 2 + mix.Next() % 46;  // 2 .. 47
  const uint32_t dims[] = {2, 4, 8, 16};
  trial.dim = dims[mix.Next() % 4];
  trial.pool_size = 1 + mix.Next() % trial.num_events;
  trial.top_k =
      (mix.Next() % 3 == 0) ? 0 : 1 + mix.Next() % trial.pool_size;
  const size_t space_bound =
      static_cast<size_t>(trial.num_users) * trial.pool_size;
  trial.n = 1 + mix.Next() % (space_bound + 4);  // sometimes > space
  trial.quantize_values = (mix.Next() % 4 == 0);
  return trial;
}

std::unique_ptr<embedding::EmbeddingStore> BuildStore(
    const TrialConfig& trial) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      trial.dim, std::array<uint32_t, 5>{trial.num_users,
                                         trial.num_events, 1, 1, 1});
  Rng rng(trial.seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  if (trial.quantize_values) {
    for (auto type : {graph::NodeType::kUser, graph::NodeType::kEvent}) {
      Matrix& m = store->MatrixOf(type);
      for (size_t r = 0; r < m.rows(); ++r) {
        for (size_t c = 0; c < m.cols(); ++c) {
          m.At(r, c) = std::round(m.At(r, c) * 4.0f) / 4.0f;
        }
      }
    }
  }
  return store;
}

std::vector<ebsn::EventId> BuildPool(const TrialConfig& trial) {
  std::vector<ebsn::EventId> all(trial.num_events);
  for (uint32_t x = 0; x < trial.num_events; ++x) all[x] = x;
  Rng rng(trial.seed ^ 0xf11e5);
  rng.Shuffle(&all);
  all.resize(trial.pool_size);
  std::sort(all.begin(), all.end());
  return all;
}

/// Runs every case of a space as ONE batch and compares each query's
/// results against brute force.
void CheckBatchedDifferential(const TransformedSpace& space,
                              const GemModel& model, uint32_t num_users,
                              size_t n) {
  SpaceIndex index(&space);
  QuantizedSpace quant(&index);
  BatchTaSearch batch(&quant);
  BruteForceSearch bf(&space);

  // Several query users, self-exclusion, plus one query whose excluded
  // partner is absent from the space.
  std::vector<std::pair<ebsn::UserId, ebsn::UserId>> cases;
  for (uint32_t u = 0; u < std::min(4u, num_users); ++u) {
    cases.push_back({u, u});
  }
  cases.push_back({0, num_users + 100});

  std::vector<std::vector<float>> queries(cases.size());
  std::vector<BatchQuery> bq(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    space.QueryVector(model, cases[i].first, &queries[i]);
    bq[i] = BatchQuery{queries[i].data(), n, cases[i].second};
  }
  std::vector<std::vector<SearchHit>> results(cases.size());
  BatchTaSearch::Workspace ws;
  BatchSearchStats stats;
  batch.SearchBatch(bq.data(), bq.size(), results.data(), &stats, &ws);

  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [query_user, exclude] = cases[i];
    SCOPED_TRACE(::testing::Message()
                 << "u=" << query_user << " exclude=" << exclude);
    const auto& hits = results[i];
    const auto oracle = bf.Search(queries[i], n, exclude);

    ASSERT_EQ(hits.size(), oracle.size()) << "result count diverged";
    for (size_t r = 0; r < hits.size(); ++r) {
      // Bitwise: the exact re-rank runs the same kernel brute force
      // does, so the score sequences must be identical even at ties.
      ASSERT_EQ(hits[r].score, oracle[r].score)
          << "rank " << r << ": a true top-n candidate was pruned";
      EXPECT_NE(hits[r].pair.partner, exclude);
    }
    // Outside exactly-tied blocks, identities agree position by
    // position (within a tied block either searcher may keep either
    // pair, and a full boundary may cut an arbitrary equal).
    for (size_t r = 0; r < hits.size(); ++r) {
      const float s = oracle[r].score;
      const bool tied_above = r > 0 && oracle[r - 1].score == s;
      const bool tied_below =
          r + 1 < oracle.size() && oracle[r + 1].score == s;
      const bool tied_at_cut =
          r + 1 == oracle.size() && n == oracle.size();
      if (tied_above || tied_below || tied_at_cut) continue;
      EXPECT_EQ(hits[r].pair.event, oracle[r].pair.event) << "rank " << r;
      EXPECT_EQ(hits[r].pair.partner, oracle[r].pair.partner)
          << "rank " << r;
    }
  }
}

void CheckTrial(const TrialConfig& trial) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " top_k=" << trial.top_k << " pool=" << trial.pool_size
               << " n=" << trial.n);
  auto store = BuildStore(trial);
  GemModel model(store.get(), "GEM");
  const auto pool = BuildPool(trial);
  auto pairs =
      BuildCandidatePairs(model, pool, AllUsers(trial.num_users), trial.top_k);
  TransformedSpace space(model, std::move(pairs));
  CheckBatchedDifferential(space, model, trial.num_users, trial.n);
}

class QuantizedTaDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuantizedTaDifferentialTest, MatchesBruteForce) {
  CheckTrial(MakeTrial(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, QuantizedTaDifferentialTest,
                         ::testing::Range<uint64_t>(0, 50));

/// Worst case for affine quantization: per-dimension scales spread
/// across ~10 orders of magnitude. The widened threshold must still
/// never prune a true top-k candidate — verified by demanding exact
/// brute-force agreement.
TEST(QuantizedScaleExtremesTest, WidenedBoundNeverPrunesTrueTopK) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    constexpr uint32_t kUsers = 30;
    constexpr uint32_t kEvents = 20;
    constexpr uint32_t kDim = 8;
    auto store = std::make_unique<embedding::EmbeddingStore>(
        kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
    Rng rng(0xe47e3 + seed);
    store->MatrixOf(graph::NodeType::kUser)
        .FillAbsGaussian(&rng, 0.2, 0.3);
    store->MatrixOf(graph::NodeType::kEvent)
        .FillAbsGaussian(&rng, 0.2, 0.3);
    // Random extreme per-column magnitudes, independent per matrix.
    for (auto type : {graph::NodeType::kUser, graph::NodeType::kEvent}) {
      Matrix& m = store->MatrixOf(type);
      for (size_t c = 0; c < m.cols(); ++c) {
        const float factor =
            std::pow(10.0f, -5.0f + 10.0f * rng.UniformFloat());
        for (size_t r = 0; r < m.rows(); ++r) m.At(r, c) *= factor;
      }
    }
    GemModel model(store.get(), "GEM");
    std::vector<CandidatePair> pairs;
    for (uint32_t x = 0; x < kEvents; ++x) {
      for (uint32_t u = 0; u < kUsers; ++u) pairs.push_back({x, u});
    }
    TransformedSpace space(model, std::move(pairs));
    CheckBatchedDifferential(space, model, kUsers, 10);
  }
}

// --- Walks that outrun one code block. The walk reads each group list
// through a BlockOrder that expands 64-row blocks as their bounds reach
// it; these spaces have several partner blocks.

/// A seeded space over `num_users` (> 64) partner groups and 12
/// events, each partner keeping its `top_k` best events.
TrialConfig DeepTrial(uint64_t seed, uint32_t num_users, uint32_t top_k,
                      size_t n) {
  TrialConfig trial;
  trial.seed = 0xdee9a1c + seed;
  trial.num_users = num_users;
  trial.num_events = 12;
  trial.dim = 8;
  trial.pool_size = trial.num_events;
  trial.top_k = top_k;
  trial.n = n;
  return trial;
}

/// Checks `store` (shaped by `trial`) against brute force.
void CheckDeepTrial(const TrialConfig& trial,
                    const embedding::EmbeddingStore& store) {
  GemModel model(&store, "GEM");
  auto pairs = BuildCandidatePairs(model, BuildPool(trial),
                                   AllUsers(trial.num_users), trial.top_k);
  TransformedSpace space(model, std::move(pairs));
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " top_k=" << trial.top_k << " n=" << trial.n);
  CheckBatchedDifferential(space, model, trial.num_users, trial.n);
}

/// Every partner row has the same codes, so every partner block has the
/// same bound and every partner dot equals it: the list is in group
/// order, and each emission hinges on the >= expansion rule.
TEST(QuantizedDeepWalkTest, EveryPartnerBlockTiesAtOneBound) {
  for (const size_t n : {size_t{10}, size_t{200}}) {
    const TrialConfig trial = DeepTrial(0, 200, 3, n);
    auto store = BuildStore(trial);
    Matrix& users = store->MatrixOf(graph::NodeType::kUser);
    for (size_t r = 1; r < users.rows(); ++r) {
      for (size_t c = 0; c < users.cols(); ++c) {
        users.At(r, c) = users.At(0, c);
      }
    }
    CheckDeepTrial(trial, *store);
  }
}

/// Top-n walks with n >= 200 over 300 partner groups. In the first
/// half of the seeds the event embeddings are shrunk 1000x, so the
/// partner list leads every step of the walk; each partner group holds
/// at most 2 pairs, so a top-200 walks at least 100 groups deep, past
/// the first 64-row block.
TEST(QuantizedDeepWalkTest, DeepWalksExpandManyBlocks) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (const size_t n : {size_t{200}, size_t{320}}) {
      const TrialConfig trial = DeepTrial(seed, 300, 2, n);
      auto store = BuildStore(trial);
      if (seed < 3) {
        Matrix& events = store->MatrixOf(graph::NodeType::kEvent);
        for (size_t r = 0; r < events.rows(); ++r) {
          for (size_t c = 0; c < events.cols(); ++c) {
            events.At(r, c) *= 1e-3f;
          }
        }
      }
      CheckDeepTrial(trial, *store);
    }
  }
}

/// n above ResultsPossible: the walk consumes every position of every
/// list, expanding every block.
TEST(QuantizedDeepWalkTest, ExhaustiveWalksMatchBruteForce) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const TrialConfig trial = DeepTrial(seed, 150, 4, 150 * 4 + 10);
    CheckDeepTrial(trial, *BuildStore(trial));
  }
}

}  // namespace
}  // namespace gemrec::recommend
