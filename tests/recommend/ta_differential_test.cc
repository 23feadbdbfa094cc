// Randomized differential test: over ~50 seeded synthetic spaces with
// varying |U|, |X|, K, pruning k and filters, TaSearch must return
// exactly the BruteForce top-n, modulo the documented tie-breaking:
//
//   * Scores: TA assembles q·p as A + B + c_w*C (three partial sums)
//     while brute force computes one full-width SIMD dot product, so
//     equal mathematical scores may differ by float-rounding noise;
//     we compare with a tolerance scaled to the score magnitude.
//   * Ties: when several pairs share a score within that tolerance at
//     the cut boundary, either searcher may keep either pair; ranks
//     within a tied block may also interleave. Outside tied blocks the
//     (event, partner) identities must match position by position.
//
// Any divergence beyond that is a real pruning/threshold bug.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/brute_force.h"
#include "recommend/candidate_index.h"
#include "recommend/ta_search.h"

namespace gemrec::recommend {
namespace {

struct TrialConfig {
  uint64_t seed = 0;
  uint32_t num_users = 0;
  uint32_t num_events = 0;
  uint32_t dim = 0;
  uint32_t top_k = 0;        // pruning level (0 = unpruned)
  uint32_t pool_size = 0;    // filtered recommendable-event subset
  size_t n = 0;              // requested top-n
  bool quantize = false;     // coarse values -> deliberate score ties
};

/// Derives a diverse trial deterministically from its index.
TrialConfig MakeTrial(uint64_t index) {
  SplitMix64 mix(0x5eedf00d + index);
  TrialConfig trial;
  trial.seed = mix.Next();
  trial.num_users = 3 + mix.Next() % 58;   // 3 .. 60
  trial.num_events = 2 + mix.Next() % 46;  // 2 .. 47
  const uint32_t dims[] = {2, 4, 8, 16};
  trial.dim = dims[mix.Next() % 4];
  // Pruning: unpruned on a third of trials, else top-k in [1, |pool|].
  trial.pool_size = 1 + mix.Next() % trial.num_events;
  trial.top_k =
      (mix.Next() % 3 == 0) ? 0 : 1 + mix.Next() % trial.pool_size;
  const size_t space_bound =
      static_cast<size_t>(trial.num_users) * trial.pool_size;
  trial.n = 1 + mix.Next() % (space_bound + 4);  // sometimes > space
  trial.quantize = (mix.Next() % 4 == 0);        // force real ties
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
  if (trial.quantize) {
    // Snap coordinates to a coarse grid so distinct pairs share exact
    // scores — the tie-handling paths must cope.
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

/// Filtered event pool: a deterministic subset of the event universe,
/// standing in for EventFilter output (time/geo filters reduce to
/// "some subset of events" by the time the space is built).
std::vector<ebsn::EventId> BuildPool(const TrialConfig& trial) {
  std::vector<ebsn::EventId> all(trial.num_events);
  for (uint32_t x = 0; x < trial.num_events; ++x) all[x] = x;
  Rng rng(trial.seed ^ 0xf11e5);
  rng.Shuffle(&all);
  all.resize(trial.pool_size);
  std::sort(all.begin(), all.end());
  return all;
}

void CheckDifferential(const TrialConfig& trial) {
  SCOPED_TRACE(::testing::Message()
               << "seed=" << trial.seed << " |U|=" << trial.num_users
               << " |X|=" << trial.num_events << " K=" << trial.dim
               << " top_k=" << trial.top_k << " pool=" << trial.pool_size
               << " n=" << trial.n << " quantize=" << trial.quantize);
  auto store = BuildStore(trial);
  GemModel model(store.get(), "GEM");
  const auto pool = BuildPool(trial);
  auto pairs =
      BuildCandidatePairs(model, pool, AllUsers(trial.num_users), trial.top_k);
  TransformedSpace space(model, std::move(pairs));
  TaSearch ta(&space);
  BruteForceSearch bf(&space);

  std::vector<float> q;
  // Several query users per space, plus an exclude-partner id that is
  // absent from the space (filters nothing).
  std::vector<std::pair<ebsn::UserId, ebsn::UserId>> cases;
  for (uint32_t u = 0; u < std::min(4u, trial.num_users); ++u) {
    cases.push_back({u, u});
  }
  cases.push_back({0, trial.num_users + 100});
  for (const auto& [query_user, exclude] : cases) {
    space.QueryVector(model, query_user, &q);
    const auto ta_hits = ta.Search(q, trial.n, exclude);
    const auto bf_hits = bf.Search(q, trial.n, exclude);

    ASSERT_EQ(ta_hits.size(), bf_hits.size())
        << "result count diverged (u=" << query_user << ")";
    for (size_t i = 0; i < ta_hits.size(); ++i) {
      const float tol =
          1e-4f * std::max(1.0f, std::fabs(bf_hits[i].score));
      ASSERT_NEAR(ta_hits[i].score, bf_hits[i].score, tol)
          << "rank " << i << " (u=" << query_user << ")";
      EXPECT_NE(ta_hits[i].pair.partner, exclude);
      if (i > 0) {
        EXPECT_GE(ta_hits[i - 1].score + tol, ta_hits[i].score)
            << "TA results not sorted descending";
      }
    }
    // Outside tied blocks, identities must agree position by position.
    for (size_t i = 0; i < ta_hits.size(); ++i) {
      const float s = bf_hits[i].score;
      const float tol = 1e-4f * std::max(1.0f, std::fabs(s));
      const bool tied_above =
          i > 0 && std::fabs(bf_hits[i - 1].score - s) <= tol;
      const bool tied_below = i + 1 < bf_hits.size() &&
                              std::fabs(bf_hits[i + 1].score - s) <= tol;
      // A boundary hit tied with the first *excluded* score is also
      // ambiguous: brute force kept one of several equals.
      const bool tied_at_cut =
          i + 1 == bf_hits.size() && trial.n == bf_hits.size();
      if (tied_above || tied_below || tied_at_cut) continue;
      EXPECT_EQ(ta_hits[i].pair.event, bf_hits[i].pair.event)
          << "rank " << i << " (u=" << query_user << ")";
      EXPECT_EQ(ta_hits[i].pair.partner, bf_hits[i].pair.partner)
          << "rank " << i << " (u=" << query_user << ")";
    }
  }
}

class TaDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaDifferentialTest, MatchesBruteForce) {
  CheckDifferential(MakeTrial(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, TaDifferentialTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace gemrec::recommend
