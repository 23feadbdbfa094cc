// The tier's acceptance bar: scatter-gather over N real serve stacks
// (ShardGroup: per-shard ModelSnapshot slices behind real NetServers,
// a CoordinatorBackend fanning out over real sockets) returns the
// SAME top-k as one unsharded instance — score-bitwise per rank, and
// identity-exact whenever scores are distinct (ties are documented to
// resolve by the merger's deterministic (event, partner) order, which
// need not match the single instance's heap order) — for N in
// {1, 2, 3, 4}, over 25 seeded embedding spaces, on the quantized
// batch walk with fp32 re-rank. A store with fewer users than shards
// leaves some shards without a partner: those must build, answer empty
// and complete, and leave the merge bitwise.
// Also checks the threshold-merge soundness chain end-to-end: every
// full merge's coordinator bound must sit at or below its k-th score.

#include <array>
#include <chrono>
#include <cstring>
#include <future>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "serving/model_snapshot.h"
#include "serving/recommendation_service.h"
#include "shard/coordinator.h"
#include "shard/shard_group.h"

namespace gemrec::shard {
namespace {

constexpr uint32_t kUsers = 36;
constexpr uint32_t kEvents = 24;
constexpr uint32_t kDim = 8;
constexpr size_t kTopN = 10;

std::unique_ptr<embedding::EmbeddingStore> RandomStore(
    uint64_t seed, uint32_t num_users = kUsers) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{num_users, kEvents, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents() {
  std::vector<ebsn::EventId> events(kEvents);
  for (uint32_t x = 0; x < kEvents; ++x) events[x] = x;
  return events;
}

serving::QueryResponse Ask(CoordinatorBackend* coordinator,
                           ebsn::UserId user) {
  serving::QueryRequest request;
  request.user = user;
  request.n = kTopN;
  std::promise<serving::QueryResponse> promise;
  auto future = promise.get_future();
  coordinator->SubmitAsync(request,
                           [&promise](serving::QueryResponse response) {
                             promise.set_value(std::move(response));
                           });
  EXPECT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "coordinator hung";
  return future.get();
}

bool ScoresAllDistinct(const std::vector<recommend::Recommendation>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1].score == v[i].score) return false;
  }
  return true;
}

void RunSeed(uint64_t seed, uint32_t num_users = kUsers,
             std::initializer_list<uint32_t> shard_counts = {1, 2, 3, 4}) {
  const auto store = RandomStore(seed, num_users);

  // Unsharded reference: a direct (no-socket) service over the full
  // candidate space.
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::ServiceOptions service_options;
  service_options.num_workers = 1;
  serving::RecommendationService reference(service_options);
  reference.Publish(std::make_shared<serving::ModelSnapshot>(
      *store, AllEvents(), num_users, snapshot_options));

  const std::vector<ebsn::UserId> users = {
      0, static_cast<ebsn::UserId>(seed % num_users),
      static_cast<ebsn::UserId>((seed * 7 + 3) % num_users), num_users - 1};

  for (const uint32_t num_shards : shard_counts) {
    ShardGroupOptions group_options;
    group_options.num_shards = num_shards;
    group_options.snapshot = snapshot_options;
    group_options.service = service_options;
    ShardGroup group(*store, AllEvents(), num_users, group_options);
    ASSERT_TRUE(group.Start().ok());

    RouterOptions router_options;
    router_options.shard_deadline =
        std::chrono::milliseconds(10000);  // differential: no misses
    CoordinatorBackend coordinator(group.endpoints(),
                                   router_options);
    ASSERT_TRUE(coordinator.Start().ok());

    for (const ebsn::UserId user : users) {
      serving::QueryRequest request;
      request.user = user;
      request.n = kTopN;
      const serving::QueryResponse want = reference.Query(request);
      const serving::QueryResponse got = Ask(&coordinator, user);

      ASSERT_FALSE(got.partial)
          << "seed " << seed << " shards " << num_shards;
      ASSERT_EQ(got.items.size(), want.items.size())
          << "seed " << seed << " shards " << num_shards << " user "
          << user;
      for (size_t i = 0; i < want.items.size(); ++i) {
        uint32_t want_bits = 0, got_bits = 0;
        std::memcpy(&want_bits, &want.items[i].score, 4);
        std::memcpy(&got_bits, &got.items[i].score, 4);
        ASSERT_EQ(got_bits, want_bits)
            << "seed " << seed << " shards " << num_shards << " user "
            << user << " rank " << i << ": " << got.items[i].score
            << " vs " << want.items[i].score;
      }
      if (ScoresAllDistinct(want.items)) {
        for (size_t i = 0; i < want.items.size(); ++i) {
          EXPECT_EQ(got.items[i].event, want.items[i].event)
              << "rank " << i;
          EXPECT_EQ(got.items[i].partner, want.items[i].partner)
              << "rank " << i;
        }
      }
      // Soundness chain, observable at the coordinator: a full merge's
      // unreturned bound never exceeds its k-th kept score.
      if (got.items.size() == kTopN) {
        EXPECT_LE(got.ta_bound, got.items.back().score)
            << "seed " << seed << " shards " << num_shards;
      }
    }
    coordinator.Stop();
    group.Stop();
  }
}

TEST(ShardDifferentialTest, MatchesSingleInstanceAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardDifferentialTest, ShardOwningNoPartnerAnswersEmptyAndComplete) {
  // 3 users over 5 shards: shards 3 and 4 own no partner, so their
  // candidate space is empty.
  constexpr uint32_t kFewUsers = 3;
  const auto store = RandomStore(41, kFewUsers);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  snapshot_options.shard = ShardSpec{4, 5};
  auto snapshot = std::make_shared<serving::ModelSnapshot>(
      *store, AllEvents(), kFewUsers, snapshot_options);
  EXPECT_EQ(snapshot->num_candidate_pairs(), 0u);
  serving::ServiceOptions service_options;
  service_options.num_workers = 1;
  serving::RecommendationService service(service_options);
  service.Publish(std::move(snapshot));
  for (const recommend::QueryKind kind :
       {recommend::QueryKind::kPartner, recommend::QueryKind::kReciprocal}) {
    for (ebsn::UserId user = 0; user < kFewUsers; ++user) {
      serving::QueryRequest request;
      request.user = user;
      request.n = kTopN;
      request.kind = kind;
      const serving::QueryResponse got = service.Query(request);
      const std::string trace = std::string(recommend::QueryKindName(kind)) +
                                " user " + std::to_string(user);
      EXPECT_EQ(got.code, serving::ResponseCode::kOk) << trace;
      EXPECT_TRUE(got.items.empty()) << trace;
      EXPECT_FALSE(got.partial) << trace;
      EXPECT_EQ(got.ta_bound, -std::numeric_limits<float>::infinity())
          << trace;
    }
  }
  service.Shutdown();

  // The tier around the empty shards still merges bitwise.
  RunSeed(41, kFewUsers, {4, 5});
}

}  // namespace
}  // namespace gemrec::shard
