// Multi-reactor front-end coverage: SO_REUSEPORT reactor groups,
// request pipelining with frame ids over one connection (out-of-order
// completion matched by id), the typed refusal of every other wire
// version, and a reload+drain stress that the tier-1 TSan stage runs
// to prove the per-reactor ownership model has no cross-thread races.
// Every server binds 127.0.0.1 port 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::net {
namespace {

using serving::QueryRequest;
using serving::RecommendationService;
using serving::ServiceOptions;
using testing::NetCounter;

obs::MetricsSnapshot Stats(const NetServer& server) {
  return server.metrics_registry()->Snapshot();
}

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

/// Sum of the per-reactor ownership counters in `snapshot` over
/// reactors [0, n); fails the test if any is missing.
uint64_t SumOwned(const obs::MetricsSnapshot& snapshot, uint32_t n) {
  uint64_t total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    const std::string name =
        "gemrec_net_reactor" + std::to_string(r) + "_owned_total";
    const obs::MetricValue* owned = snapshot.Find(name);
    EXPECT_NE(owned, nullptr) << name;
    if (owned != nullptr) total += owned->counter;
  }
  return total;
}

TEST(ReactorTest, MultiReactorGroupServesEveryConnection) {
  constexpr uint32_t kReactors = 4;
  constexpr uint32_t kClients = 12;
  auto store = RandomStore(20, 15, 8, 40);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 20, 15));
  ServerOptions options;
  options.num_reactors = kReactors;
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  // The kernel spreads accepts across the SO_REUSEPORT group however
  // it likes; what is guaranteed is that every connection is owned by
  // exactly one reactor and answered correctly from there.
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(MustConnect(server));
    ASSERT_TRUE(clients.back()->Ping().ok()) << "client " << c;
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    QueryRequest request;
    request.user = c % 20;
    request.n = 5;
    request.bypass_cache = true;
    auto outcome = clients[c]->Query(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->ok) << outcome->error_message;
    const auto direct = service.Query(request);
    ASSERT_EQ(outcome->response.items.size(), direct.items.size());
    for (size_t i = 0; i < direct.items.size(); ++i) {
      EXPECT_EQ(outcome->response.items[i].event, direct.items[i].event);
      EXPECT_EQ(outcome->response.items[i].score, direct.items[i].score);
    }
  }

  const obs::MetricsSnapshot snapshot =
      server.metrics_registry()->Snapshot();
  EXPECT_EQ(SumOwned(snapshot, kReactors), kClients);
  const obs::MetricValue* reactors =
      snapshot.Find("gemrec_net_reactors");
  ASSERT_NE(reactors, nullptr);
  EXPECT_EQ(reactors->gauge, static_cast<int64_t>(kReactors));
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "accepted"), kClients);
  EXPECT_EQ(NetCounter(stats, "responses"), kClients);
  EXPECT_EQ(NetCounter(stats, "protocol_errors"), 0u);

  clients.clear();
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(ReactorTest, PipelinedQueriesMatchSequentialByFrameId) {
  // Differential: 64 tagged queries in flight on ONE connection,
  // completions read in whatever order they arrive and matched back by
  // echoed frame id, must be bitwise identical to querying the service
  // directly. Multiple workers make reordering real, not theoretical.
  constexpr uint32_t kUsers = 30;
  constexpr uint64_t kInFlight = 64;
  auto store = RandomStore(kUsers, 25, 8, 42);
  ServiceOptions service_options;
  service_options.num_workers = 4;
  RecommendationService service(service_options);
  service.Publish(MakeSnapshot(*store, kUsers, 25));
  ServerOptions options;
  options.max_in_flight = 256;
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  std::map<uint64_t, QueryRequest> sent;
  for (uint64_t i = 0; i < kInFlight; ++i) {
    QueryRequest request;
    request.user = static_cast<ebsn::UserId>((i * 17) % kUsers);
    request.n = 1 + i % 8;
    request.bypass_cache = true;
    const uint64_t id = 1000 + i;
    ASSERT_TRUE(client->SendTagged(request, id).ok()) << "id " << id;
    sent.emplace(id, request);
  }

  std::map<uint64_t, serving::QueryResponse> received;
  for (uint64_t i = 0; i < kInFlight; ++i) {
    auto reply = client->ReceiveAny();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->outcome.ok) << reply->outcome.error_message;
    ASSERT_EQ(sent.count(reply->frame_id), 1u)
        << "unknown id " << reply->frame_id;
    ASSERT_TRUE(received.emplace(reply->frame_id,
                                 std::move(reply->outcome.response))
                    .second)
        << "duplicate id " << reply->frame_id;
  }
  ASSERT_EQ(received.size(), kInFlight);

  for (const auto& [id, request] : sent) {
    const serving::QueryResponse direct = service.Query(request);
    const serving::QueryResponse& wire = received.at(id);
    ASSERT_EQ(wire.items.size(), direct.items.size()) << "id " << id;
    for (size_t i = 0; i < direct.items.size(); ++i) {
      EXPECT_EQ(wire.items[i].event, direct.items[i].event);
      EXPECT_EQ(wire.items[i].partner, direct.items[i].partner);
      EXPECT_EQ(wire.items[i].score, direct.items[i].score);
    }
  }
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "responses"), kInFlight);
  EXPECT_EQ(NetCounter(stats, "overload_sheds"), 0u);
}

TEST(ReactorTest, OtherWireVersionsGetTypedErrorThenEof) {
  // One wire version: a frame carrying any other version byte is
  // answered with exactly one kError(kBadRequest) frame, id 0, naming
  // the decoder's complaint — then the server closes the connection.
  auto store = RandomStore(10, 10, 6, 43);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  NetServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::vector<uint8_t> ping;
  AppendFrame(MessageType::kPing, nullptr, 0, FrameTag{true, 9}, &ping);
  const std::array<uint8_t, 4> versions = {0, 1, 3, 255};
  for (const uint8_t version : versions) {
    std::vector<uint8_t> bytes = ping;
    bytes[4] = version;
    if (version == 1) {
      // A genuine v1 ping: 12-byte header (no frame id) + CRC slot.
      bytes.erase(bytes.begin() + 12, bytes.begin() + 20);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));

    std::vector<uint8_t> received;
    uint8_t buf[4096];
    ssize_t r;
    while ((r = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      received.insert(received.end(), buf, buf + r);
    }
    EXPECT_EQ(r, 0) << "version " << int{version}
                    << ": expected EOF, errno " << errno;
    ::close(fd);

    std::vector<uint8_t> want;
    AppendErrorFrame(ErrorCode::kBadRequest,
                     "unsupported wire version " + std::to_string(version),
                     FrameTag{true, 0}, &want);
    EXPECT_EQ(received, want) << "version " << int{version};
  }
  EXPECT_EQ(NetCounter(Stats(server), "protocol_errors"), versions.size());
}

TEST(ReactorTest, MultiReactorReloadAndDrainUnderLoad) {
  // Stress for the TSan stage: pipelined traffic over every reactor
  // races snapshot swaps, then a drain lands mid-flight. Every reply
  // before the drain is correct; after it, clients see only typed
  // kShuttingDown errors or EOF — never a hang, torn frame, or crash.
  constexpr uint32_t kUsers = 25;
  constexpr uint32_t kEvents = 20;
  constexpr int kClients = 4;
  auto store = RandomStore(kUsers, kEvents, 8, 44);
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  serving::SnapshotBuilder builder(*store, AllEvents(kEvents), kUsers,
                                   snapshot_options);
  RecommendationService service(ServiceOptions{});
  service.Publish(builder.Build());
  ServerOptions options;
  options.num_reactors = 2;
  options.max_in_flight = 256;
  options.drain_timeout = std::chrono::milliseconds(10000);
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop_swaps{false};
  std::thread updater([&] {
    embedding::OnlineUpdateOptions update;
    update.iterations = 5;
    for (uint32_t swap = 0; !stop_swaps.load() && swap < 40; ++swap) {
      ASSERT_TRUE(
          builder.RecordAttendance(swap % kUsers, swap % kEvents, update)
              .ok());
      service.Publish(builder.Build());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::atomic<int> answered{0};
  std::atomic<int> shutdown_errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = MustConnect(server);
      QueryRequest request;
      request.n = 5;
      // Pipelined in batches of 8 so the drain lands while several
      // requests are genuinely in flight on this connection.
      for (uint64_t batch = 0; batch < 40; ++batch) {
        uint64_t first_id = batch * 100 + 1;
        bool sent_all = true;
        for (uint64_t i = 0; i < 8; ++i) {
          request.user =
              static_cast<ebsn::UserId>((c * 7 + batch * 8 + i) % kUsers);
          if (!client->SendTagged(request, first_id + i).ok()) {
            sent_all = false;
            break;
          }
        }
        if (!sent_all) return;  // drain cut the connection mid-send
        for (uint64_t i = 0; i < 8; ++i) {
          auto reply = client->ReceiveAny();
          if (!reply.ok()) return;  // EOF after drain completes
                ASSERT_GE(reply->frame_id, first_id);
          ASSERT_LT(reply->frame_id, first_id + 8);
          if (reply->outcome.ok) {
            ASSERT_GE(reply->outcome.response.epoch, 1u);
            answered.fetch_add(1);
          } else {
            // The only legal refusal mid-test is the drain itself.
            ASSERT_EQ(reply->outcome.error, ErrorCode::kShuttingDown);
            shutdown_errors.fetch_add(1);
          }
        }
      }
    });
  }

  // Let traffic build, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.RequestDrain();
  for (auto& t : clients) t.join();
  stop_swaps.store(true);
  updater.join();
  server.WaitUntilStopped();
  EXPECT_FALSE(server.running());
  server.Stop();

  EXPECT_GT(answered.load(), 0);
  const obs::MetricsSnapshot stats = Stats(server);
  EXPECT_EQ(NetCounter(stats, "protocol_errors"), 0u);
  EXPECT_EQ(NetCounter(stats, "responses"),
            static_cast<uint64_t>(answered.load()));
  EXPECT_EQ(NetCounter(stats, "drain_rejects"),
            static_cast<uint64_t>(shutdown_errors.load()));
}

}  // namespace
}  // namespace gemrec::net
