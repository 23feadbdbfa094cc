#include "recommend/candidate_index.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/vec_math.h"

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

TEST(CandidateIndexTest, ParallelTopKMatchesSerialExactly) {
  // Determinism contract: sharding the per-user loop over a pool must
  // be bit-identical to the serial path, for any pool size.
  auto store = RandomStore(30, 40, 7);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events;
  for (uint32_t x = 0; x < 40; ++x) events.push_back(x);
  const auto serial = TopKEventsPerUser(model, events, AllUsers(30), 6);
  for (size_t workers : {1u, 3u, 7u}) {
    ThreadPool pool(workers);
    const auto parallel =
        TopKEventsPerUser(model, events, AllUsers(30), 6, &pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t u = 0; u < serial.size(); ++u) {
      EXPECT_EQ(parallel[u], serial[u])
          << "u=" << u << " workers=" << workers;
    }
  }
}

TEST(CandidateIndexTest, ParallelBuildCandidatePairsMatchesSerial) {
  auto store = RandomStore(12, 18, 8);
  GemModel model(store.get(), "GEM");
  std::vector<ebsn::EventId> events;
  for (uint32_t x = 0; x < 18; ++x) events.push_back(x);
  const auto serial = BuildCandidatePairs(model, events, AllUsers(12), 4);
  ThreadPool pool(4);
  const auto parallel =
      BuildCandidatePairs(model, events, AllUsers(12), 4, &pool);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].event, serial[i].event) << "i=" << i;
    EXPECT_EQ(parallel[i].partner, serial[i].partner) << "i=" << i;
  }
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

}  // namespace
}  // namespace gemrec::recommend
