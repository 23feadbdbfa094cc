// Failure semantics of the scatter-gather tier, over real sockets end
// to end (Client -> coordinator NetServer -> CoordinatorBackend ->
// ShardRouter -> shard NetServers): killing one shard mid-load
// degrades to TYPED partial results (wire partial flag set, remaining
// shards' answers intact, no coordinator hang or crash), the breaker
// evicts the dead shard and re-probes it back in after a restart on
// the same port, and `gemrec stats` against the coordinator returns
// the merged registry (coordinator counters + per-shard {shard="i"}
// rollups) — even while the coordinator front-end is draining.

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/model_snapshot.h"
#include "serving/recommendation_service.h"
#include "shard/coordinator.h"
#include "shard/shard_group.h"
#include "../testing/metrics.h"

namespace gemrec::shard {
namespace {

using testing::CounterValue;

constexpr uint32_t kUsers = 20;
constexpr uint32_t kEvents = 12;
constexpr uint32_t kDim = 8;

std::unique_ptr<embedding::EmbeddingStore> RandomStore(uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kUsers, kEvents, 1, 1, 1});
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

ShardGroupOptions GroupOptions(uint32_t num_shards) {
  ShardGroupOptions options;
  options.num_shards = num_shards;
  options.snapshot.top_k_events_per_partner = 0;
  options.service.num_workers = 1;
  return options;
}

CoordinatorOptions FastBreaker() {
  CoordinatorOptions options;
  options.router.shard_deadline = std::chrono::milliseconds(500);
  options.router.breaker_threshold = 2;
  options.router.breaker_backoff = std::chrono::milliseconds(50);
  options.router.breaker_backoff_max = std::chrono::milliseconds(400);
  return options;
}

TEST(ShardFailureTest, KillOneShardMidLoadDegradesToTypedPartial) {
  const auto store = RandomStore(11);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions(3));
  ASSERT_TRUE(group.Start().ok());
  CoordinatorBackend coordinator(group.endpoints(), FastBreaker());
  ASSERT_TRUE(coordinator.Start().ok());

  net::NetServer server(&coordinator, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  serving::QueryRequest request;
  request.user = 3;
  request.n = 10;

  // Healthy baseline: full (non-partial) answers over the wire.
  auto baseline = client.value()->Query(request);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline.value().ok);
  EXPECT_FALSE(baseline.value().response.partial);
  const size_t full_count = baseline.value().response.items.size();
  EXPECT_GT(full_count, 0u);

  // Kill shard 1 under continuing load. Every in-flight and subsequent
  // query must still be ANSWERED (no hang, no transport error from the
  // coordinator) and, once the router notices, answered with the v2
  // partial flag while the other shards' items survive.
  group.StopShard(1);
  bool saw_partial = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    request.bypass_cache = true;
    auto outcome = client.value()->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome.value().ok)
        << "typed error instead of partial degradation";
    if (outcome.value().response.partial) {
      saw_partial = true;
      EXPECT_GT(outcome.value().response.items.size(), 0u)
          << "remaining shards' answers were lost";
      EXPECT_LT(outcome.value().response.items.size(), full_count + 1);
      break;
    }
  }
  ASSERT_TRUE(saw_partial) << "never saw a typed partial result";

  {
    const auto snapshot = coordinator.metrics()->Snapshot();
    EXPECT_GE(CounterValue(snapshot, "gemrec_shard_partial_results_total"),
              1u);
    EXPECT_GE(CounterValue(snapshot, "gemrec_shard_evictions_total"), 1u);
  }

  // Restart on the SAME port: the breaker's fixed-endpoint re-probe
  // must find it and restore full answers.
  ASSERT_TRUE(group.RestartShard(1).ok());
  bool recovered = false;
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < recover_deadline) {
    request.bypass_cache = true;
    auto outcome = client.value()->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.value().ok && !outcome.value().response.partial) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(recovered) << "breaker never closed after restart";
  EXPECT_GE(CounterValue(coordinator.metrics()->Snapshot(),
                         "gemrec_shard_reconnects_total"),
            1u);
}

TEST(ShardFailureTest, CoordinatorStatsMergeShardRollups) {
  const auto store = RandomStore(12);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions(2));
  ASSERT_TRUE(group.Start().ok());
  CoordinatorBackend coordinator(group.endpoints(), FastBreaker());
  ASSERT_TRUE(coordinator.Start().ok());
  net::NetServer server(&coordinator, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  serving::QueryRequest request;
  request.user = 1;
  request.n = 5;
  auto outcome = client.value()->Query(request);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().ok);

  // One scrape sees the whole tier: the coordinator's own fan-out
  // counters plus every shard's registry with a {shard="i"} suffix.
  auto stats = client.value()->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(CounterValue(*stats, "gemrec_shard_queries_total"), 1u);
  for (const char* name :
       {"gemrec_service_queries_total{shard=\"0\"}",
        "gemrec_service_queries_total{shard=\"1\"}",
        "gemrec_shard_rpc_us{shard=\"0\"}"}) {
    EXPECT_NE(stats->Find(name), nullptr) << name;
  }

}

TEST(ShardFailureTest, CoordinatorStatsStayReachableDuringDrain) {
  // Same guarantee the single-instance server documents: a draining
  // front-end still answers stats. Deterministic parking, as in
  // net_server_test: the single shard's service has NO snapshot
  // published, so the fanned-out query parks inside the shard, the
  // router slot waits (30s deadline), and the client's connection
  // holds an in-flight response across the drain.
  const auto store = RandomStore(14);
  serving::ServiceOptions service_options;
  service_options.num_workers = 1;
  serving::RecommendationService parked(service_options);
  net::NetServer shard_server(&parked, {});
  ASSERT_TRUE(shard_server.Start().ok());

  CoordinatorOptions options;
  options.router.shard_deadline = std::chrono::milliseconds(30000);
  CoordinatorBackend coordinator({{"127.0.0.1", shard_server.port()}},
                                 options);
  ASSERT_TRUE(coordinator.Start().ok());
  net::NetServer server(&coordinator, {});
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  auto client = net::Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  serving::QueryRequest request;
  request.user = 4;
  request.n = 5;
  ASSERT_TRUE(client.value()->SendTagged(request, 11).ok());
  const auto seen =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  // Wait for the router's fan-out, not just the front-end's decode:
  // the drained stats scrape below must already count the query.
  while (CounterValue(*coordinator.metrics(), "gemrec_shard_queries_total") <
         1) {
    ASSERT_LT(std::chrono::steady_clock::now(), seen)
        << "coordinator never fanned out the parked query";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  server.RequestDrain();
  // Drain is entered once the listener is gone: poll until a fresh
  // connect is refused.
  net::ClientOptions fast;
  fast.connect_timeout = std::chrono::milliseconds(200);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (net::Client::Connect("127.0.0.1", port, fast).ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), until)
        << "coordinator still accepting after RequestDrain";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  auto draining = client.value()->Stats();
  ASSERT_TRUE(draining.ok())
      << "stats not answered while draining: "
      << draining.status().ToString();
  EXPECT_GE(CounterValue(*draining, "gemrec_shard_queries_total"), 1u);
  // The parked shard's registry still rolls up: its stats path is
  // async and does not need a published snapshot.
  EXPECT_NE(draining->Find("gemrec_service_queue_depth{shard=\"0\"}"),
            nullptr);

  // Unpark: publishing the shard's snapshot lets the fanned-out query
  // complete, after which the drained connection has no work left.
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  parked.Publish(std::make_shared<serving::ModelSnapshot>(
      *store, AllEvents(), kUsers, snapshot_options));
  auto answer = client.value()->ReceiveAny();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->frame_id, 11u);
  ASSERT_TRUE(answer->outcome.ok) << answer->outcome.error_message;
  EXPECT_FALSE(answer->outcome.response.partial);

  server.WaitUntilStopped();
  server.Stop();
  coordinator.Stop();
}

TEST(ShardFailureTest, AllShardsDownStillAnswersEmptyPartial) {
  const auto store = RandomStore(13);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions(2));
  ASSERT_TRUE(group.Start().ok());
  CoordinatorBackend coordinator(group.endpoints(), FastBreaker());
  ASSERT_TRUE(coordinator.Start().ok());
  net::NetServer server(&coordinator, {});
  ASSERT_TRUE(server.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  group.StopShard(0);
  group.StopShard(1);

  // Degraded to nothing left: still a typed, immediate answer — an
  // EMPTY partial result, never a hang or a connection drop.
  serving::QueryRequest request;
  request.user = 2;
  request.n = 5;
  bool saw_empty_partial = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    request.bypass_cache = true;
    auto outcome = client.value()->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome.value().ok);
    if (outcome.value().response.partial &&
        outcome.value().response.items.empty()) {
      saw_empty_partial = true;
      break;
    }
  }
  EXPECT_TRUE(saw_empty_partial);
}

}  // namespace
}  // namespace gemrec::shard
