// Scatter-gather coverage for the non-partner query kinds: group (both
// aggregators — min exercises the non-additive merge-certificate case)
// and reciprocal answers from an N-shard tier must be bitwise-identical
// to one unsharded instance for N in {1, 2, 3, 4} over seeded spaces
// and over a store with fewer users than shards (some shards own no
// partner), and
// a request every shard refuses as invalid must come back from the
// coordinator as the same typed kBadRequest a single instance answers —
// never an empty partial answer.

#include <array>
#include <chrono>
#include <cstring>
#include <future>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serving/model_snapshot.h"
#include "serving/recommendation_service.h"
#include "shard/coordinator.h"
#include "shard/shard_group.h"
#include "../testing/metrics.h"

namespace gemrec::shard {
namespace {

using testing::CounterValue;
using testing::NetCounter;

constexpr uint32_t kUsers = 30;
constexpr uint32_t kEvents = 22;
constexpr uint32_t kDim = 8;
constexpr size_t kTopN = 8;

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
                           const serving::QueryRequest& request) {
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

void ExpectBitwiseEqual(const serving::QueryResponse& got,
                        const serving::QueryResponse& want,
                        const std::string& trace) {
  ASSERT_EQ(got.items.size(), want.items.size()) << trace;
  for (size_t i = 0; i < want.items.size(); ++i) {
    EXPECT_EQ(got.items[i].event, want.items[i].event)
        << trace << " rank " << i;
    EXPECT_EQ(got.items[i].partner, want.items[i].partner)
        << trace << " rank " << i;
    uint32_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &want.items[i].score, 4);
    std::memcpy(&got_bits, &got.items[i].score, 4);
    EXPECT_EQ(got_bits, want_bits) << trace << " rank " << i << ": "
                                   << got.items[i].score << " vs "
                                   << want.items[i].score;
  }
}

void RunSeed(uint64_t seed, uint32_t num_users = kUsers,
             std::initializer_list<uint32_t> shard_counts = {1, 2, 3, 4}) {
  const auto store = RandomStore(seed, num_users);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::ServiceOptions service_options;
  service_options.num_workers = 1;
  serving::RecommendationService reference(service_options);
  reference.Publish(std::make_shared<serving::ModelSnapshot>(
      *store, AllEvents(), num_users, snapshot_options));

  const ebsn::UserId user = static_cast<ebsn::UserId>(seed % num_users);
  std::vector<serving::QueryRequest> requests;
  for (const recommend::GroupAggregator agg :
       {recommend::GroupAggregator::kSum, recommend::GroupAggregator::kMin}) {
    serving::QueryRequest request;
    request.user = user;
    request.n = kTopN;
    request.kind = recommend::QueryKind::kGroup;
    request.aggregator = agg;
    request.group = {static_cast<ebsn::UserId>((user + 1) % num_users),
                     static_cast<ebsn::UserId>((user + 5) % num_users),
                     static_cast<ebsn::UserId>((user + 11) % num_users)};
    requests.push_back(request);
  }
  {
    serving::QueryRequest request;
    request.user = user;
    request.n = kTopN;
    request.kind = recommend::QueryKind::kReciprocal;
    requests.push_back(request);
  }

  for (const uint32_t num_shards : shard_counts) {
    ShardGroupOptions group_options;
    group_options.num_shards = num_shards;
    group_options.snapshot = snapshot_options;
    group_options.service = service_options;
    ShardGroup group(*store, AllEvents(), num_users, group_options);
    ASSERT_TRUE(group.Start().ok());

    RouterOptions router_options;
    router_options.shard_deadline =
        std::chrono::milliseconds(10000);
    CoordinatorBackend coordinator(group.endpoints(), router_options);
    ASSERT_TRUE(coordinator.Start().ok());

    for (const serving::QueryRequest& request : requests) {
      const std::string trace =
          std::string("seed ") + std::to_string(seed) + " shards " +
          std::to_string(num_shards) + " kind " +
          recommend::QueryKindName(request.kind) + "/" +
          recommend::GroupAggregatorName(request.aggregator);
      const serving::QueryResponse want = reference.Query(request);
      const serving::QueryResponse got = Ask(&coordinator, request);
      ASSERT_FALSE(got.partial) << trace;
      ASSERT_EQ(got.code, serving::ResponseCode::kOk) << trace;
      ExpectBitwiseEqual(got, want, trace);
      // Merge-certificate soundness: a full merge's unreturned bound
      // never exceeds its k-th kept score. For the min aggregator the
      // per-shard bounds are genuine exhaustive-scan bounds, so this
      // exercises the non-additive branch of the certificate.
      if (got.items.size() == kTopN) {
        EXPECT_LE(got.ta_bound, got.items.back().score) << trace;
      }
    }
    coordinator.Stop();
    group.Stop();
  }
}

TEST(QueryKindShardDifferentialTest, MatchesSingleInstanceAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // 3 users over 4 and 5 shards: the last shards own no partner, so
  // their reciprocal walks run over an empty space, while their event
  // slices still serve group queries.
  RunSeed(11, /*num_users=*/3, {4, 5});
}

TEST(QueryKindShardBadRequestTest, InvalidUserIsBadRequestNotPartial) {
  // User 35 of 30: a single instance answers kBadRequest, and so must a
  // coordinator over 2 shards — in process and over the wire, where the
  // coordinator's own front-end counts it as a bad request, not as a
  // partial result.
  const auto store = RandomStore(35);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  ShardGroupOptions group_options;
  group_options.num_shards = 2;
  group_options.snapshot = snapshot_options;
  group_options.service.num_workers = 1;
  ShardGroup group(*store, AllEvents(), kUsers, group_options);
  ASSERT_TRUE(group.Start().ok());
  RouterOptions router_options;
  router_options.shard_deadline =
      std::chrono::milliseconds(10000);
  CoordinatorBackend coordinator(group.endpoints(), router_options);
  ASSERT_TRUE(coordinator.Start().ok());
  net::NetServer front(&coordinator, net::ServerOptions{});
  ASSERT_TRUE(front.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", front.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  serving::ServiceOptions service_options;
  service_options.num_workers = 1;
  serving::RecommendationService reference(service_options);
  reference.Publish(std::make_shared<serving::ModelSnapshot>(
      *store, AllEvents(), kUsers, snapshot_options));

  uint64_t asked = 0;
  for (const recommend::QueryKind kind :
       {recommend::QueryKind::kPartner, recommend::QueryKind::kGroup,
        recommend::QueryKind::kReciprocal}) {
    const std::string trace =
        std::string("kind ") + recommend::QueryKindName(kind);
    serving::QueryRequest request;
    request.user = kUsers + 5;
    request.n = kTopN;
    request.kind = kind;
    if (kind == recommend::QueryKind::kGroup) request.group = {4, 7};
    ASSERT_EQ(reference.Query(request).code,
              serving::ResponseCode::kBadRequest)
        << trace;

    const serving::QueryResponse got = Ask(&coordinator, request);
    EXPECT_EQ(got.code, serving::ResponseCode::kBadRequest) << trace;
    EXPECT_FALSE(got.partial) << trace;
    EXPECT_TRUE(got.items.empty()) << trace;

    auto outcome = (*client)->Query(request);
    ASSERT_TRUE(outcome.ok()) << trace << ": " << outcome.status().ToString();
    EXPECT_FALSE(outcome->ok) << trace;
    EXPECT_EQ(outcome->error, net::ErrorCode::kBadRequest) << trace;
    asked += 2;
  }

  const obs::MetricsSnapshot stats = coordinator.metrics()->Snapshot();
  EXPECT_EQ(CounterValue(stats, "gemrec_shard_queries_total"), asked);
  EXPECT_EQ(CounterValue(stats, "gemrec_shard_partial_results_total"), 0u);
  EXPECT_EQ(NetCounter(stats, "bad_requests"), asked / 2);

  front.Stop();
  coordinator.Stop();
  group.Stop();
}

}  // namespace
}  // namespace gemrec::shard
