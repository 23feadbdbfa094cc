// Socket-level coverage of the epoll front-end: request/response
// round-trips against the real service, typed errors (bad request,
// OVERLOADED under a saturated in-flight budget), protocol-error and
// slow-reader disconnects, read/idle timeouts, reload-under-load, and
// graceful drain. Every server binds 127.0.0.1 port 0 (kernel-chosen
// ephemeral port — collision-free under parallel ctest by
// construction; see ServerOptions::port).

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/serialization.h"
#include "net/client.h"
#include "serving/ingestion_queue.h"
#include "serving/model_reloader.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::net {
namespace {

using serving::QueryRequest;
using serving::RecommendationService;
using serving::ServiceOptions;
using testing::CounterValue;
using testing::NetCounter;

std::unique_ptr<embedding::EmbeddingStore> RandomStore(
    uint32_t num_users, uint32_t num_events, uint32_t dim,
    uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      dim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents(uint32_t num_events) {
  std::vector<ebsn::EventId> events(num_events);
  for (uint32_t x = 0; x < num_events; ++x) events[x] = x;
  return events;
}

std::shared_ptr<serving::ModelSnapshot> MakeSnapshot(
    const embedding::EmbeddingStore& store, uint32_t num_users,
    uint32_t num_events) {
  serving::SnapshotOptions options;
  options.top_k_events_per_partner = 0;
  return std::make_shared<serving::ModelSnapshot>(
      store, AllEvents(num_events), num_users, options);
}

std::unique_ptr<Client> MustConnect(const NetServer& server,
                                    const ClientOptions& options = {}) {
  auto client = Client::Connect("127.0.0.1", server.port(), options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

obs::MetricsSnapshot Stats(const NetServer& server) {
  return server.metrics_registry()->Snapshot();
}

int64_t ActiveConnections(const obs::MetricsSnapshot& snapshot) {
  return testing::GaugeValue(snapshot, "gemrec_net_active_connections");
}

/// Polls `predicate` against the server's stats until it holds or the
/// deadline passes (socket effects are asynchronous to the test body).
template <typename Pred>
bool WaitForStats(const NetServer& server, Pred predicate,
                  std::chrono::milliseconds deadline =
                      std::chrono::milliseconds(15000)) {
  // Generous deadline: under a contended parallel-ctest CPU the server
  // loop can take several seconds to chew through pipelined batches; a
  // genuine failure still fails, just slower.
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (predicate(Stats(server))) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate(Stats(server));
}

TEST(NetServerTest, QueryRoundTripMatchesInProcessService) {
  auto store = RandomStore(20, 15, 8, 1);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 20, 15));

  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  for (ebsn::UserId u = 0; u < 20; ++u) {
    QueryRequest request;
    request.user = u;
    request.n = 7;
    request.bypass_cache = true;
    auto outcome = client->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->ok)
        << "typed error: " << outcome->error_message;
    const auto direct = service.Query(request);
    ASSERT_EQ(outcome->response.items.size(), direct.items.size());
    for (size_t i = 0; i < direct.items.size(); ++i) {
      EXPECT_EQ(outcome->response.items[i].event, direct.items[i].event);
      EXPECT_EQ(outcome->response.items[i].partner,
                direct.items[i].partner);
      EXPECT_EQ(outcome->response.items[i].score, direct.items[i].score);
    }
    EXPECT_EQ(outcome->response.epoch, 1u);
  }
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "requests"), 20u);
  EXPECT_EQ(NetCounter(stats, "responses"), 20u);
  EXPECT_EQ(NetCounter(stats, "overload_sheds"), 0u);
}

TEST(NetServerTest, PingPongAndAcceptStats) {
  auto store = RandomStore(5, 5, 4, 2);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto a = MustConnect(server);
  auto b = MustConnect(server);
  EXPECT_TRUE(a->Ping().ok());
  EXPECT_TRUE(b->Ping().ok());
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "accepted"), 2u);
  EXPECT_EQ(ActiveConnections(stats), 2);
  // Health checks used to be invisible in the stats.
  EXPECT_EQ(NetCounter(stats, "pings"), 2u);
}

TEST(NetServerTest, StatsRoundTripOverLiveServer) {
  auto store = RandomStore(10, 10, 8, 7);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  ASSERT_TRUE(client->Ping().ok());
  for (ebsn::UserId u = 0; u < 5; ++u) {
    QueryRequest request;
    request.user = u;
    request.n = 3;
    request.bypass_cache = true;
    auto outcome = client->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->ok);
  }

  auto snapshot = client->Stats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // The wire snapshot must agree with the in-process view (no other
  // traffic is running against this server).
  const obs::MetricsSnapshot stats = Stats(server);
  const obs::MetricValue* requests =
      snapshot->Find("gemrec_net_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->counter, NetCounter(stats, "requests"));
  EXPECT_EQ(requests->counter, 5u);
  const obs::MetricValue* pings =
      snapshot->Find("gemrec_net_pings_total");
  ASSERT_NE(pings, nullptr);
  EXPECT_EQ(pings->counter, 1u);
  // The scrape itself was counted before the snapshot was taken.
  const obs::MetricValue* scrapes =
      snapshot->Find("gemrec_net_stats_requests_total");
  ASSERT_NE(scrapes, nullptr);
  EXPECT_EQ(scrapes->counter, 1u);
  // One registry covers the whole stack: service metrics travel too.
  const obs::MetricValue* queries =
      snapshot->Find("gemrec_service_queries_total");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->counter, 5u);
  // Every answered query landed in the round-trip histogram.
  const obs::MetricValue* round_trip =
      snapshot->Find("gemrec_net_round_trip_us");
  ASSERT_NE(round_trip, nullptr);
  ASSERT_EQ(round_trip->type, obs::MetricType::kHistogram);
  EXPECT_EQ(round_trip->histogram.count, NetCounter(stats, "responses"));
  EXPECT_GT(round_trip->histogram.Percentile(0.99), 0.0);
}

TEST(NetServerTest, ServiceShutdownMapsToShuttingDownError) {
  auto store = RandomStore(5, 5, 4, 11);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  // The service shuts down underneath a still-serving NetServer (the
  // shutdown race, made deterministic): queries must come back as
  // typed SHUTTING_DOWN errors, not crash the server or hang.
  service.Shutdown();
  QueryRequest request;
  request.user = 1;
  request.n = 3;
  auto outcome = client->Query(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error, ErrorCode::kShuttingDown);
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "drain_rejects") >= 1;
  }));
  // The stats endpoint still answers on the drained service.
  auto snapshot = client->Stats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const obs::MetricValue* rejected =
      snapshot->Find("gemrec_service_rejected_total");
  ASSERT_NE(rejected, nullptr);
  EXPECT_GE(rejected->counter, 1u);
}

TEST(NetServerTest, MalformedPayloadGetsTypedBadRequest) {
  auto store = RandomStore(5, 5, 4, 3);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  // CRC-clean frame whose query payload is one byte short.
  const std::vector<uint8_t> bogus(20, 0);
  std::vector<uint8_t> bytes;
  AppendFrame(MessageType::kQueryRequest, bogus.data(), bogus.size(),
              FrameTag{true, 1}, &bytes);
  ASSERT_EQ(::send(client->fd(), bytes.data(), bytes.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  auto outcome = client->Receive();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error, ErrorCode::kBadRequest);

  // The connection survives a bad request and keeps serving.
  QueryRequest request;
  request.user = 1;
  request.n = 3;
  auto good = client->Query(request);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->ok);
  EXPECT_EQ(NetCounter(Stats(server), "bad_requests"), 1u);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  auto store = RandomStore(5, 5, 4, 4);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(client->fd(), garbage, sizeof(garbage) - 1,
                   MSG_NOSIGNAL),
            0);
  // One typed answer naming the problem, then the server hangs up and
  // the blocking read sees EOF.
  auto outcome = client->Receive();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error, ErrorCode::kBadRequest);
  EXPECT_EQ(outcome->error_message, "bad frame magic");
  EXPECT_FALSE(client->Receive().ok());
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "protocol_errors") == 1 &&
           ActiveConnections(s) == 0;
  }));
}

TEST(NetServerTest, OverloadedUnderSaturatedInFlightBudget) {
  auto store = RandomStore(10, 10, 6, 5);
  ServiceOptions service_options;
  service_options.num_workers = 2;
  RecommendationService service(service_options);
  // No snapshot published yet: submitted requests park inside the
  // service, pinning the in-flight budget at its cap deterministically.
  ServerOptions options;
  options.max_in_flight = 4;
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  QueryRequest request;
  request.n = 5;
  for (uint32_t i = 0; i < 5; ++i) {
    request.user = i;
    ASSERT_TRUE(client->Send(request).ok());
  }
  // The shed reply must come back promptly even though requests 1..4
  // are still parked — a saturated server answers, it never hangs.
  auto shed = client->Receive();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_FALSE(shed->ok);
  EXPECT_EQ(shed->error, ErrorCode::kOverloaded);
  EXPECT_EQ(NetCounter(Stats(server), "overload_sheds"), 1u);

  // Unblock the parked requests; all four must now complete.
  service.Publish(MakeSnapshot(*store, 10, 10));
  for (uint32_t i = 0; i < 4; ++i) {
    auto outcome = client->Receive();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->ok) << "request " << i;
  }
  EXPECT_EQ(NetCounter(Stats(server), "responses"), 4u);
}

TEST(NetServerTest, SlowReaderHitsWriteBufferCapAndIsDisconnected) {
  auto store = RandomStore(30, 30, 6, 6);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 30, 30));

  ServerOptions options;
  options.so_sndbuf = 4096;        // tiny kernel buffer ...
  options.max_write_buffer = 8192;  // ... and a tiny user-space cap
  options.read_timeout = std::chrono::milliseconds(30000);
  options.idle_timeout = std::chrono::milliseconds(30000);
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.so_rcvbuf = 4096;
  auto client = MustConnect(server, client_options);

  // Pipeline many fat responses and never read them: the server's
  // write buffer must hit the cap and the connection must be cut
  // instead of buffering unboundedly.
  QueryRequest request;
  request.n = 64;
  request.bypass_cache = true;
  for (uint32_t i = 0; i < 200; ++i) {
    request.user = i % 30;
    ASSERT_TRUE(client->Send(request).ok());
  }
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "slow_reader_disconnects") == 1 &&
           ActiveConnections(s) == 0;
  }));
}

TEST(NetServerTest, IdleConnectionIsTimedOut) {
  auto store = RandomStore(5, 5, 4, 7);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  // Silent connection: the server must hang up, seen as EOF here.
  auto outcome = client->Receive();
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "idle_timeouts") == 1 &&
           ActiveConnections(s) == 0;
  }));
}

TEST(NetServerTest, PartialFrameIsTimedOut) {
  auto store = RandomStore(5, 5, 4, 8);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  ServerOptions options;
  options.read_timeout = std::chrono::milliseconds(100);
  options.idle_timeout = std::chrono::milliseconds(30000);
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  // Start a frame, never finish it.
  QueryRequest request;
  request.user = 1;
  request.n = 3;
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, FrameTag{true, 1}, &bytes);
  ASSERT_EQ(::send(client->fd(), bytes.data(), 6, MSG_NOSIGNAL), 6);

  auto outcome = client->Receive();
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "read_timeouts") == 1 &&
           ActiveConnections(s) == 0;
  }));
}

TEST(NetServerTest, ReloadUnderLoadKeepsEveryQueryAnswered) {
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  auto store = RandomStore(kUsers, kEvents, 8, 9);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::SnapshotBuilder builder(*store, AllEvents(kEvents), kUsers,
                                   snapshot_options);
  RecommendationService service(ServiceOptions{});
  service.Publish(builder.Build());
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // A valid on-disk artifact for the model_reloader half of the race.
  const std::string artifact =
      ::testing::TempDir() + "/net_reload_model.bin";
  ASSERT_TRUE(embedding::SaveEmbeddingStore(*store, artifact).ok());

  // Client traffic races snapshot swaps: half the swaps go through the
  // crash-safe file reload path, half through direct rebuilds.
  std::atomic<bool> stop{false};
  std::thread updater([&] {
    serving::ModelReloader reloader(&service, &builder, {});
    embedding::OnlineUpdateOptions update;
    update.iterations = 10;
    for (uint32_t swap = 0; !stop.load() && swap < 50; ++swap) {
      if (swap % 2 == 0) {
        ASSERT_TRUE(reloader.ReloadFromFile(artifact).ok());
      } else {
        ASSERT_TRUE(
            builder.RecordAttendance(swap % kUsers, swap % kEvents, update)
                .ok());
        service.Publish(builder.Build());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kClients = 2;
  constexpr int kQueriesEach = 150;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = MustConnect(server);
      QueryRequest request;
      request.n = 5;
      for (int i = 0; i < kQueriesEach; ++i) {
        request.user = static_cast<ebsn::UserId>((c * 7 + i) % kUsers);
        auto outcome = client->Query(request);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ASSERT_TRUE(outcome->ok) << outcome->error_message;
        ASSERT_GE(outcome->response.epoch, 1u);
        answered.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  updater.join();

  EXPECT_EQ(answered.load(), kClients * kQueriesEach);
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "responses"),
            static_cast<uint64_t>(kClients * kQueriesEach));
  EXPECT_EQ(NetCounter(stats, "protocol_errors"), 0u);
  EXPECT_GT(CounterValue(*service.metrics(),
                         "gemrec_service_publishes_total"),
            2u);
}

TEST(NetServerTest, GracefulDrainStopsAcceptingAndExits) {
  auto store = RandomStore(10, 10, 6, 10);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  auto client = MustConnect(server);
  QueryRequest request;
  request.user = 3;
  request.n = 4;
  ASSERT_TRUE(client->Query(request).ok());

  server.RequestDrain();
  server.WaitUntilStopped();
  EXPECT_FALSE(server.running());

  // The drained server hung up on the idle connection ...
  auto after = client->Receive();
  EXPECT_FALSE(after.ok());
  // ... and no longer accepts new ones.
  ClientOptions fast;
  fast.connect_timeout = std::chrono::milliseconds(500);
  auto refused = Client::Connect("127.0.0.1", port, fast);
  EXPECT_FALSE(refused.ok());

  server.Stop();  // idempotent join
  EXPECT_EQ(NetCounter(Stats(server), "responses"), 1u);
}

TEST(NetServerTest, StopWithoutStartIsSafe) {
  auto store = RandomStore(5, 5, 4, 11);
  RecommendationService service(ServiceOptions{});
  NetServer server(&service, ServerOptions{});
  server.Stop();
  server.WaitUntilStopped();
}

TEST(NetServerTest, ParseHostPort) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(ParseHostPort(":0", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 0);
  EXPECT_FALSE(ParseHostPort("127.0.0.1", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:99999", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:8x", &host, &port).ok());
  // strtoul alone skips leading whitespace and accepts a sign, so
  // these used to parse as port 80; the port must be all digits.
  EXPECT_FALSE(ParseHostPort("127.0.0.1: 80", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:\t80", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:+80", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:-80", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:8 0", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1: +80", &host, &port).ok());
  // Leading zeros are still digits; this one is genuinely port 80.
  ASSERT_TRUE(ParseHostPort("127.0.0.1:0080", &host, &port).ok());
  EXPECT_EQ(port, 80);
}

TEST(NetServerTest, StatsAndPingStayReachableDuringDrain) {
  // Regression: drain used to drop read interest on surviving
  // connections, so an operator could not ask a draining server why it
  // was draining. Reads must stay alive: ping/stats answered, all
  // other verbs refused with a typed kShuttingDown.
  auto store = RandomStore(10, 10, 6, 30);
  RecommendationService service(ServiceOptions{});
  // No snapshot published: the first query parks inside the service,
  // holding its connection in-flight across the drain deterministically.
  ServerOptions options;
  options.drain_timeout = std::chrono::milliseconds(30000);
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  auto client = MustConnect(server);

  QueryRequest parked;
  parked.user = 3;
  parked.n = 4;
  ASSERT_TRUE(client->SendTagged(parked, 11).ok());
  ASSERT_TRUE(WaitForStats(
      server, [](const obs::MetricsSnapshot& s) {
        return NetCounter(s, "requests") >= 1;
      }));

  server.RequestDrain();
  // Drain is entered when the listener is gone: poll until a fresh
  // connect is refused.
  ClientOptions fast;
  fast.connect_timeout = std::chrono::milliseconds(200);
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (Client::Connect("127.0.0.1", port, fast).ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), until)
        << "server still accepting after RequestDrain";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Health checks and the stats scrape still round-trip ...
  EXPECT_TRUE(client->Ping().ok());
  auto snapshot = client->Stats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_NE(snapshot->Find("gemrec_net_requests_total"), nullptr);

  // ... while a new query is refused with a typed error echoing its id.
  QueryRequest refused;
  refused.user = 1;
  refused.n = 2;
  ASSERT_TRUE(client->SendTagged(refused, 22).ok());
  auto reply = client->ReceiveAny();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->frame_id, 22u);
  ASSERT_FALSE(reply->outcome.ok);
  EXPECT_EQ(reply->outcome.error, ErrorCode::kShuttingDown);
  EXPECT_GE(NetCounter(Stats(server), "drain_rejects"), 1u);

  // Unpark the in-flight query: it completes (id echoed), after which
  // the connection has no work left and the drain finishes.
  service.Publish(MakeSnapshot(*store, 10, 10));
  auto answer = client->ReceiveAny();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->frame_id, 11u);
  EXPECT_TRUE(answer->outcome.ok) << answer->outcome.error_message;

  server.WaitUntilStopped();
  EXPECT_FALSE(server.running());
  server.Stop();
}

TEST(NetServerTest, ConnectionLimitRefusalsAreCounted) {
  // Regression: over-limit connections were silently closed — invisible
  // in every counter, indistinguishable from a network blip.
  auto store = RandomStore(5, 5, 4, 31);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  ServerOptions options;
  options.max_connections = 2;
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  auto a = MustConnect(server);
  auto b = MustConnect(server);
  ASSERT_TRUE(a->Ping().ok());
  ASSERT_TRUE(b->Ping().ok());

  // The third connect completes the TCP handshake (kernel backlog) but
  // the server refuses it at accept: first read sees EOF.
  auto c = MustConnect(server);
  auto outcome = c->Receive();
  EXPECT_FALSE(outcome.ok());
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "conn_limit_rejects") == 1;
  }));

  // The refusal travels over the stats verb like every other counter.
  auto snapshot = a->Stats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const obs::MetricValue* rejects =
      snapshot->Find("gemrec_net_conn_limit_rejects_total");
  ASSERT_NE(rejects, nullptr);
  EXPECT_EQ(rejects->counter, 1u);

  // Freeing a slot lifts the limit for the next connection.
  a.reset();
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return ActiveConnections(s) == 1;
  }));
  auto d = MustConnect(server);
  EXPECT_TRUE(d->Ping().ok());
}

TEST(NetServerTest, EmfileAcceptStormIsSurvivedAndCounted) {
  // Regression: an accept4 EMFILE with a level-triggered listener left
  // the pending connection readable forever — the loop spun at 100%
  // CPU re-failing accept, serving nobody. The server must burn its
  // reserved spare fd to accept+refuse the connection, count the
  // error, keep serving existing connections, and accept again once
  // descriptors free up. Runs in its own process (gtest_discover_tests
  // runs one TEST per ctest entry), so the rlimit games are isolated.
  auto store = RandomStore(5, 5, 4, 32);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto existing = MustConnect(server);
  ASSERT_TRUE(existing->Ping().ok());

  // A raw client socket created BEFORE descriptors run out: connect(2)
  // needs no new fd in this process, so the doomed connection can
  // still be attempted at the limit (client and server share one fd
  // table here).
  const int doomed = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(doomed, 0);
  const timeval tv{5, 0};
  ::setsockopt(doomed, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);

  // Pin the fd table at its limit: cap RLIMIT_NOFILE just above the
  // highest fd in use, then hoard every remaining slot.
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  const int probe = ::dup(0);  // lowest free fd ≈ table high-water mark
  ASSERT_GE(probe, 0);
  ::close(probe);
  rlimit tight = old_limit;
  tight.rlim_cur = static_cast<rlim_t>(probe + 2);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hoard;
  for (int fd = ::dup(0); fd >= 0; fd = ::dup(0)) hoard.push_back(fd);
  ASSERT_EQ(errno, EMFILE);

  // The handshake completes in the kernel; the server's accept4 hits
  // EMFILE, burns the spare to refuse us, and this socket sees EOF.
  ASSERT_EQ(::connect(doomed, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_TRUE(WaitForStats(server, [](const obs::MetricsSnapshot& s) {
    return NetCounter(s, "accept_errors") >= 1;
  }));
  uint8_t byte = 0;
  EXPECT_EQ(::recv(doomed, &byte, 1, 0), 0);  // orderly refusal, not a hang
  ::close(doomed);

  // Existing connections were never collateral damage.
  EXPECT_TRUE(existing->Ping().ok());

  // Free the descriptors: the very next connection is accepted.
  for (const int fd : hoard) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  auto recovered = MustConnect(server);
  EXPECT_TRUE(recovered->Ping().ok());
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_GE(NetCounter(stats, "accept_errors"), 1u);
  EXPECT_EQ(NetCounter(stats, "protocol_errors"), 0u);
}

// ---------------------------------------------------------------------
// Write path: ingest frames bridged into the IngestionQueue, and wire
// compatibility between ingest-enabled servers and pre-ingest clients.

// Fold-in-capable store: the write path links events to TimeSlotsFor
// slots in [0, 33), so kTime needs a full matrix (unlike the
// query-only stores above).
std::unique_ptr<embedding::EmbeddingStore> IngestCapableStore(
    uint32_t num_users, uint32_t num_events, uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      6, std::array<uint32_t, 5>{num_users, num_events, 4, 33, 20});
  Rng rng(seed);
  for (size_t t = 0; t < embedding::EmbeddingStore::kNumTypes; ++t) {
    store->MatrixOf(static_cast<graph::NodeType>(t))
        .FillAbsGaussian(&rng, 0.2, 0.3);
  }
  return store;
}

// Per-test scratch directory for the queue's journal.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             ("gemrec_net_ingest_" + std::to_string(::getpid()) + "_" +
              tag)) {
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Journal() const { return (dir_ / "journal").string(); }

 private:
  std::filesystem::path dir_;
};

TEST(NetServerTest, IngestFramesWithoutQueueGetBadRequest) {
  // A read-only server (no queue attached) must refuse write frames
  // with a typed error and keep the connection serving — never crash
  // or hang on the new message types.
  auto store = RandomStore(5, 5, 4, 20);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  auto attend = client->Attend(1, 2, false);
  ASSERT_TRUE(attend.ok()) << attend.status().ToString();
  EXPECT_FALSE(attend->ok);
  EXPECT_EQ(attend->error, ErrorCode::kBadRequest);

  embedding::NewEventSignals signals;
  auto publish = client->PublishNewEvent(4, signals);
  ASSERT_TRUE(publish.ok()) << publish.status().ToString();
  EXPECT_FALSE(publish->ok);
  EXPECT_EQ(publish->error, ErrorCode::kBadRequest);

  // The connection survives and still answers queries.
  QueryRequest request;
  request.user = 1;
  request.n = 3;
  auto good = client->Query(request);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->ok);
  EXPECT_EQ(NetCounter(Stats(server), "ingest_requests"), 2u);
  EXPECT_EQ(NetCounter(Stats(server), "ingest_acks"), 0u);
}

TEST(NetServerTest, IngestRoundTripAcksAndPublishes) {
  constexpr uint32_t kUsers = 8;
  constexpr uint32_t kEventRows = 10;
  constexpr uint32_t kPool = 8;
  auto store = IngestCapableStore(kUsers, kEventRows, 21);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::SnapshotBuilder builder(*store, AllEvents(kPool), kUsers,
                                   snapshot_options);
  RecommendationService service(ServiceOptions{});
  ScratchDir scratch("round_trip");
  serving::IngestionQueueOptions iq;
  iq.journal_path = scratch.Journal();
  iq.publish_threshold = 1;
  serving::IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  NetServer server(&service, ServerOptions{}, &queue);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  auto attend = client->Attend(2, 3, /*new_user=*/false);
  ASSERT_TRUE(attend.ok()) << attend.status().ToString();
  ASSERT_TRUE(attend->ok) << attend->error_message;
  EXPECT_EQ(attend->seq, 1u);

  embedding::NewEventSignals signals;
  signals.region = 1;
  signals.start_time = 1720000000;
  signals.words = {{3, 1.0f}};
  auto publish = client->PublishNewEvent(kPool, signals);
  ASSERT_TRUE(publish.ok()) << publish.status().ToString();
  ASSERT_TRUE(publish->ok) << publish->error_message;
  EXPECT_EQ(publish->seq, 2u);

  // Both writes become retrievable via a delta publish: the epoch
  // moves past the recovery publish.
  queue.Flush();
  QueryRequest request;
  request.user = 2;
  request.n = 5;
  request.bypass_cache = true;
  auto outcome = client->Query(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->ok) << outcome->error_message;
  EXPECT_GE(outcome->response.epoch, 2u);

  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "ingest_requests"), 2u);
  EXPECT_EQ(NetCounter(stats, "ingest_acks"), 2u);

  // The ingest metrics travel over the stats verb like everything else.
  auto snapshot = client->Stats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const obs::MetricValue* accepted =
      snapshot->Find("gemrec_ingest_accepted_total");
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->counter, 2u);

  server.Stop();
  queue.Shutdown();
}

TEST(NetServerTest, PreIngestClientVerbsWorkOnIngestEnabledServer) {
  // Wire compatibility: a client that only speaks the original verbs
  // (ping / query / stats) must be indistinguishable from before on a
  // server with the write path attached.
  constexpr uint32_t kUsers = 8;
  auto store = IngestCapableStore(kUsers, 10, 22);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::SnapshotBuilder builder(*store, AllEvents(8), kUsers,
                                   snapshot_options);
  RecommendationService service(ServiceOptions{});
  ScratchDir scratch("compat");
  serving::IngestionQueueOptions iq;
  iq.journal_path = scratch.Journal();
  serving::IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  NetServer server(&service, ServerOptions{}, &queue);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  EXPECT_TRUE(client->Ping().ok());
  QueryRequest request;
  request.user = 3;
  request.n = 4;
  request.bypass_cache = true;
  auto outcome = client->Query(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->ok) << outcome->error_message;
  EXPECT_EQ(outcome->response.items.size(), 4u);
  auto snapshot = client->Stats();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_NE(snapshot->Find("gemrec_net_requests_total"), nullptr);

  server.Stop();
  queue.Shutdown();
}

TEST(NetServerTest, InvalidIngestRecordGetsBadRequestAndConnectionSurvives) {
  constexpr uint32_t kUsers = 8;
  auto store = IngestCapableStore(kUsers, 10, 23);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::SnapshotBuilder builder(*store, AllEvents(8), kUsers,
                                   snapshot_options);
  RecommendationService service(ServiceOptions{});
  ScratchDir scratch("invalid");
  serving::IngestionQueueOptions iq;
  iq.journal_path = scratch.Journal();
  serving::IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  NetServer server(&service, ServerOptions{}, &queue);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  // CRC-clean, well-formed frame whose user id is outside the store:
  // validation rejects it on the ingest thread and the typed error
  // rides the ack path back.
  auto attend = client->Attend(kUsers + 100, 1, false);
  ASSERT_TRUE(attend.ok()) << attend.status().ToString();
  EXPECT_FALSE(attend->ok);
  EXPECT_EQ(attend->error, ErrorCode::kBadRequest);

  // A journal-order neighbour is unaffected: the connection and the
  // queue both keep working.
  auto good = client->Attend(1, 2, false);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->ok) << good->error_message;
  EXPECT_GE(good->seq, 1u);

  server.Stop();
  queue.Shutdown();
}

TEST(NetServerTest, IngestQueueFullShedsOverWireWithTypedOverloaded) {
  constexpr uint32_t kUsers = 8;
  auto store = IngestCapableStore(kUsers, 10, 24);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::SnapshotBuilder builder(*store, AllEvents(8), kUsers,
                                   snapshot_options);
  RecommendationService service(ServiceOptions{});
  ScratchDir scratch("queue_full");

  // Park the ingest thread inside the first batch so admission fills
  // deterministically (same technique as the in-process stress test).
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  serving::IngestionQueueOptions iq;
  iq.journal_path = scratch.Journal();
  iq.max_pending = 4;
  iq.pre_batch_hook_for_testing = [&] {
    entered.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  serving::IngestionQueue queue(&service, &builder, iq);
  ASSERT_TRUE(queue.Start().ok());
  NetServer server(&service, ServerOptions{}, &queue);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  serving::IngestRecord parked;
  parked.kind = serving::IngestKind::kAttendance;
  parked.user = 0;
  parked.event = 0;
  ASSERT_EQ(queue.SubmitAsync(parked, [](Status, uint64_t) {}),
            serving::IngestAdmission::kAccepted);
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Pipeline max_pending+1 writes: the first max_pending are admitted
  // (acks blocked behind the parked batch), the last sheds with a
  // typed OVERLOADED the client sees immediately.
  for (size_t i = 0; i < iq.max_pending + 1; ++i) {
    ASSERT_TRUE(client->SendAttendance(1, 2, false).ok()) << "i=" << i;
  }
  auto shed = client->ReceiveIngestAck();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_FALSE(shed->ok);
  EXPECT_EQ(shed->error, ErrorCode::kOverloaded);
  EXPECT_EQ(NetCounter(Stats(server), "overload_sheds"), 1u);

  // Release the thread: every admitted write acks OK — admission
  // control shed load, it never lost accepted work.
  release.store(true);
  for (size_t i = 0; i < iq.max_pending; ++i) {
    auto ack = client->ReceiveIngestAck();
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_TRUE(ack->ok) << "i=" << i << ": " << ack->error_message;
  }

  server.Stop();
  queue.Shutdown();
}

TEST(NetServerTest, UnknownFrameTypeGetsBadRequestAndConnectionSurvives) {
  // Forward compatibility: the decoder passes unknown type bytes
  // through (CRC-clean frames from a future wire extension), and the
  // server answers kBadRequest instead of dropping the connection —
  // exactly how pre-ingest servers treat kAttendance today.
  auto store = RandomStore(5, 5, 4, 25);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 5, 5));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  std::vector<uint8_t> bytes;
  AppendFrame(static_cast<MessageType>(200), nullptr, 0, FrameTag{true, 1},
              &bytes);
  ASSERT_EQ(::send(client->fd(), bytes.data(), bytes.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  auto outcome = client->Receive();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_FALSE(outcome->ok);
  EXPECT_EQ(outcome->error, ErrorCode::kBadRequest);

  QueryRequest request;
  request.user = 1;
  request.n = 3;
  auto good = client->Query(request);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good->ok);
  EXPECT_EQ(NetCounter(Stats(server), "bad_requests"), 1u);
}

TEST(NetClientTest, ReceiveAnyTimeoutAgainstParkedServer) {
  // A raw listener that accepts and then goes silent — the parked
  // shard Client::ReceiveAny(timeout) exists for. The deadline must
  // surface as the DISTINCT Status::Timeout (never IoError), cost the
  // deadline (not the io_timeout), and leave the connection — and any
  // buffered partial frame — fully usable afterwards.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  ClientOptions options;
  options.io_timeout = std::chrono::milliseconds(30000);  // NOT the cap
  auto client =
      Client::Connect("127.0.0.1", ntohs(addr.sin_port), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int server_fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server_fd, 0);

  QueryRequest request;
  request.user = 1;
  request.n = 3;
  ASSERT_TRUE(client.value()->SendTagged(request, 42).ok());

  const auto start = std::chrono::steady_clock::now();
  auto reply = client.value()->ReceiveAny(std::chrono::milliseconds(100));
  const auto elapsed = std::chrono::duration_cast<
      std::chrono::milliseconds>(std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout)
      << reply.status().ToString();
  EXPECT_GE(elapsed.count(), 90);
  EXPECT_LT(elapsed.count(), 10000);  // deadline, not io_timeout

  // timeout <= 0 is the nonblocking drain: nothing buffered -> an
  // immediate Timeout.
  auto drained = client.value()->ReceiveAny(std::chrono::milliseconds(0));
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.status().code(), StatusCode::kTimeout);

  // Half a reply, then parked again: still Timeout (never a decode
  // error), and the buffered prefix must survive the deadline.
  serving::QueryResponse response;
  response.epoch = 5;
  response.ta_bound = -1.0f;
  response.items.push_back(recommend::Recommendation{1, 2, 0.5f});
  std::vector<uint8_t> bytes;
  AppendQueryResponseFrame(response, FrameTag{true, 42}, &bytes);
  const size_t half = bytes.size() / 2;
  ASSERT_EQ(::send(server_fd, bytes.data(), half, MSG_NOSIGNAL),
            static_cast<ssize_t>(half));
  auto mid = client.value()->ReceiveAny(std::chrono::milliseconds(100));
  ASSERT_FALSE(mid.ok());
  EXPECT_EQ(mid.status().code(), StatusCode::kTimeout);

  // Un-park: the rest of the frame completes the buffered prefix and
  // the SAME connection delivers the reply.
  ASSERT_EQ(::send(server_fd, bytes.data() + half, bytes.size() - half,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() - half));
  auto done = client.value()->ReceiveAny(std::chrono::milliseconds(5000));
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().frame_id, 42u);
  ASSERT_TRUE(done.value().outcome.ok);
  EXPECT_EQ(done.value().outcome.response.epoch, 5u);
  EXPECT_EQ(done.value().outcome.response.ta_bound, -1.0f);

  ::close(server_fd);
  ::close(listen_fd);
}

}  // namespace
}  // namespace gemrec::net
