// Coordinator behaviour against shards that misbehave below the wire
// protocol: a black-holed endpoint (SYNs dropped, connects hang) must
// cost the router at most its shard deadline per re-probe, never the
// socket defaults; a shard that accepts TCP and never answers must
// degrade both queries and stats scrapes through the one deadline
// sweep. The fan-out is sent on the submitting thread, so SubmitAsync
// must return at once while a re-probe hangs or a shard's socket is
// full, a fan-out submitted while the router sleeps must still be
// swept on time, a callback may submit again, and Stop racing
// submitters completes every query exactly once. Also pins the
// `--shards` endpoint-list parser.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "net/wire.h"
#include "shard/coordinator.h"
#include "shard/shard_group.h"
#include "../testing/metrics.h"

namespace gemrec::shard {
namespace {

using Clock = std::chrono::steady_clock;
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

ShardGroupOptions GroupOptions() {
  ShardGroupOptions options;
  options.num_shards = 2;
  options.snapshot.top_k_events_per_partner = 0;
  options.service.num_workers = 1;
  return options;
}

/// A loopback TCP listener that never accepts. With `fill` set, its
/// backlog is 0 and one filler connection occupies the accept queue,
/// so the kernel drops every later SYN and connects hang (a black
/// hole); otherwise handshakes complete and sent bytes are never read
/// (a silent shard).
class DeafListener {
 public:
  explicit DeafListener(bool fill) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, fill ? 0 : 64) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    if (!fill) return;
    filler_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (filler_fd_ < 0 ||
        ::connect(filler_fd_, reinterpret_cast<sockaddr*>(&addr), len) !=
            0) {
      port_ = 0;
    }
  }
  ~DeafListener() {
    if (filler_fd_ >= 0) ::close(filler_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  DeafListener(const DeafListener&) = delete;
  DeafListener& operator=(const DeafListener&) = delete;

  /// 0 when the listener could not be set up.
  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  int filler_fd_ = -1;
  uint16_t port_ = 0;
};

struct Timed {
  serving::QueryResponse response;
  Clock::duration elapsed;
};

/// Submits one query and waits for its callback (bounded, so a
/// stalled router fails the test instead of hanging it).
Timed AskTimed(CoordinatorBackend* coordinator,
               const serving::QueryRequest& request) {
  auto promise = std::make_shared<std::promise<serving::QueryResponse>>();
  auto future = promise->get_future();
  const auto start = Clock::now();
  coordinator->SubmitAsync(request, [promise](serving::QueryResponse r) {
    promise->set_value(std::move(r));
  });
  Timed timed;
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "no answer within 30 s";
    timed.response.code = serving::ResponseCode::kShuttingDown;
  } else {
    timed.response = future.get();
  }
  timed.elapsed = Clock::now() - start;
  return timed;
}

TEST(CoordinatorTest, BlackHoledShardNeverStallsTheRouter) {
  const auto store = RandomStore(21);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions());
  ASSERT_TRUE(group.Start().ok());
  DeafListener hole(/*fill=*/true);
  ASSERT_NE(hole.port(), 0) << "could not set up the black-hole listener";

  // Shard 1's endpoint drops every SYN: the startup connect and every
  // re-probe hang until their timeout. Both must be bounded by the
  // shard deadline, or each re-probe freezes every fan-out with it.
  RouterOptions options;
  options.shard_deadline = std::chrono::milliseconds(200);
  CoordinatorBackend coordinator(
      {group.endpoints()[0], ShardEndpoint{"127.0.0.1", hole.port()}},
      options);
  ASSERT_TRUE(coordinator.Start().ok());

  serving::QueryRequest request;
  request.n = 5;
  request.bypass_cache = true;
  size_t answered = 0;
  const auto until = Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < until) {
    request.user = static_cast<ebsn::UserId>(answered % kUsers);
    const Timed got = AskTimed(&coordinator, request);
    ++answered;
    EXPECT_EQ(got.response.code, serving::ResponseCode::kOk);
    EXPECT_TRUE(got.response.partial) << "query " << answered;
    EXPECT_LT(got.elapsed, std::chrono::seconds(1))
        << "query " << answered << " took "
        << std::chrono::duration_cast<std::chrono::milliseconds>(
               got.elapsed)
               .count()
        << " ms";
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(answered, 1u);
  coordinator.Stop();
  group.Stop();
}

TEST(CoordinatorTest, SilentShardMissesTheDeadlineForQueriesAndStats) {
  const auto store = RandomStore(22);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions());
  ASSERT_TRUE(group.Start().ok());
  DeafListener silent(/*fill=*/false);
  ASSERT_NE(silent.port(), 0) << "could not set up the silent listener";

  const auto deadline = std::chrono::milliseconds(300);
  // Sanitizer builds and a loaded host get this much past the deadline.
  const auto slack = std::chrono::seconds(2);
  RouterOptions options;
  options.shard_deadline = deadline;
  CoordinatorBackend coordinator(
      {group.endpoints()[0], ShardEndpoint{"127.0.0.1", silent.port()}},
      options);
  ASSERT_TRUE(coordinator.Start().ok());

  // A query waits for shard 1 until the deadline, then answers with
  // shard 0's slice alone.
  serving::QueryRequest request;
  request.user = 3;
  request.n = 5;
  const Timed got = AskTimed(&coordinator, request);
  EXPECT_EQ(got.response.code, serving::ResponseCode::kOk);
  EXPECT_TRUE(got.response.partial);
  EXPECT_GE(got.elapsed, deadline);
  EXPECT_LT(got.elapsed, deadline + slack);
  const uint64_t query_misses = CounterValue(
      *coordinator.metrics(), "gemrec_shard_deadline_misses_total");
  EXPECT_EQ(query_misses, 1u);

  // A stats scrape goes through the same sweep: it completes at the
  // deadline with the coordinator's own counters and shard 0's rollup.
  auto promise = std::make_shared<std::promise<obs::MetricsSnapshot>>();
  auto future = promise->get_future();
  const auto start = Clock::now();
  coordinator.StatsAsync([promise](obs::MetricsSnapshot snapshot) {
    promise->set_value(std::move(snapshot));
  });
  ASSERT_EQ(future.wait_for(deadline + slack), std::future_status::ready)
      << "stats fan-out outlived the shard deadline";
  const obs::MetricsSnapshot stats = future.get();
  EXPECT_GE(Clock::now() - start, deadline);
  EXPECT_EQ(CounterValue(stats, "gemrec_shard_queries_total"), 1u);
  EXPECT_NE(stats.Find("gemrec_service_queries_total{shard=\"0\"}"),
            nullptr);
  // Shard 1 contributes nothing: the only {shard="1"} metric is the
  // coordinator's own RPC histogram for it.
  const std::string shard1 = "{shard=\"1\"}";
  for (const obs::MetricValue& metric : stats.metrics) {
    const std::string& name = metric.name;
    if (name.size() >= shard1.size() &&
        name.compare(name.size() - shard1.size(), shard1.size(), shard1) ==
            0) {
      EXPECT_EQ(name, "gemrec_shard_rpc_us" + shard1);
    }
  }
  EXPECT_EQ(CounterValue(*coordinator.metrics(),
                         "gemrec_shard_deadline_misses_total"),
            query_misses + 1);
  coordinator.Stop();
  group.Stop();
}

/// Counts completions and waits (bounded) for an expected number.
class Completions {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    cv_.notify_all();
  }
  bool WaitFor(size_t expected, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return count_ >= expected; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

TEST(CoordinatorTest, SubmitReturnsAtOnceWhileABlackHoledShardIsReprobed) {
  const auto store = RandomStore(23);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions());
  ASSERT_TRUE(group.Start().ok());
  DeafListener hole(/*fill=*/true);
  ASSERT_NE(hole.port(), 0) << "could not set up the black-hole listener";

  // Each re-probe of shard 1 hangs for the whole deadline, and with a
  // short backoff one is running most of the time: the router thread
  // sits in connect while the submitter keeps sending.
  RouterOptions options;
  options.shard_deadline = std::chrono::milliseconds(400);
  options.breaker_backoff = std::chrono::milliseconds(10);
  CoordinatorBackend coordinator(
      {group.endpoints()[0], ShardEndpoint{"127.0.0.1", hole.port()}},
      options);
  ASSERT_TRUE(coordinator.Start().ok());

  serving::QueryRequest request;
  request.n = 5;
  request.bypass_cache = true;
  Completions done;
  size_t submitted = 0;
  Clock::duration slowest{0};
  const auto until = Clock::now() + std::chrono::milliseconds(1500);
  while (Clock::now() < until) {
    request.user = static_cast<ebsn::UserId>(submitted % kUsers);
    const auto start = Clock::now();
    coordinator.SubmitAsync(request,
                            [&done](serving::QueryResponse) { done.Add(); });
    slowest = std::max(slowest, Clock::now() - start);
    ++submitted;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(slowest, options.shard_deadline / 4)
      << "a submission waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(slowest)
             .count()
      << " ms";
  EXPECT_TRUE(done.WaitFor(submitted, std::chrono::seconds(30)));
  coordinator.Stop();
  group.Stop();
}

TEST(CoordinatorTest, SubmitReturnsAtOnceWhileAShardsSocketIsFull) {
  DeafListener silent(/*fill=*/false);
  ASSERT_NE(silent.port(), 0) << "could not set up the silent listener";
  RouterOptions options;
  options.shard_deadline = std::chrono::milliseconds(2000);
  CoordinatorBackend coordinator({ShardEndpoint{"127.0.0.1", silent.port()}},
                                 options);
  ASSERT_TRUE(coordinator.Start().ok());

  // Group frames of ~1 KiB, 16 MiB in all: several times what a
  // loopback connection buffers for a peer that never reads (the send
  // buffer grows to at most 4 MiB by default), so the socket fills and
  // later frames wait in the coordinator's remainder.
  serving::QueryRequest request;
  request.n = 5;
  request.kind = recommend::QueryKind::kGroup;
  request.group.assign(net::kMaxGroupMembers, 1);
  constexpr size_t kSubmissions = 16 * 1024;
  Completions done;
  Clock::duration slowest{0};
  const auto first = Clock::now();
  for (size_t i = 0; i < kSubmissions; ++i) {
    const auto start = Clock::now();
    coordinator.SubmitAsync(request,
                            [&done](serving::QueryResponse) { done.Add(); });
    slowest = std::max(slowest, Clock::now() - start);
  }
  EXPECT_LT(slowest, options.shard_deadline / 4)
      << "a submission waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(slowest)
             .count()
      << " ms";
  // Otherwise the remainder strike could have evicted the shard before
  // the last submissions, which would then skip it.
  EXPECT_LT(Clock::now() - first, options.shard_deadline)
      << "the submissions together outlasted the deadline";
  // The shard never answers: every fan-out fails at the deadline, and
  // the unsent remainder strikes the connection as broken.
  EXPECT_TRUE(done.WaitFor(kSubmissions, std::chrono::seconds(30)));
  EXPECT_GE(CounterValue(*coordinator.metrics(),
                         "gemrec_shard_evictions_total"),
            1u);
  coordinator.Stop();
}

TEST(CoordinatorTest, FanOutSubmittedWhileTheRouterSleepsMeetsTheDeadline) {
  DeafListener silent(/*fill=*/false);
  ASSERT_NE(silent.port(), 0) << "could not set up the silent listener";

  const auto deadline = std::chrono::milliseconds(300);
  const auto slack = std::chrono::seconds(2);
  RouterOptions options;
  options.shard_deadline = deadline;
  // Keep the silent shard connected through every miss.
  options.breaker_threshold = 1000;
  // The only shard never answers, so no reply can wake the router:
  // only its own bounded sleep brings it to the deadline sweep.
  CoordinatorBackend coordinator({ShardEndpoint{"127.0.0.1", silent.port()}},
                                 options);
  ASSERT_TRUE(coordinator.Start().ok());

  serving::QueryRequest request;
  request.user = 3;
  request.n = 5;
  // Nothing is pending, so the router sleeps a whole deadline at a
  // time; these idle gaps land each submission at a different point
  // of that sleep.
  for (const int idle_ms : {450, 100, 700, 250}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(idle_ms));
    const Timed got = AskTimed(&coordinator, request);
    EXPECT_EQ(got.response.code, serving::ResponseCode::kOk);
    EXPECT_TRUE(got.response.partial);
    EXPECT_GE(got.elapsed, deadline);
    EXPECT_LT(got.elapsed, deadline + slack) << "after " << idle_ms
                                             << " ms idle";
  }
  coordinator.Stop();
}

TEST(CoordinatorTest, CallbackThatSubmitsAgainDoesNotDeadlock) {
  const auto store = RandomStore(25);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions());
  ASSERT_TRUE(group.Start().ok());
  CoordinatorBackend coordinator(group.endpoints());
  ASSERT_TRUE(coordinator.Start().ok());

  // Each completion submits the next fan-out from inside its callback,
  // alternating queries and stats scrapes.
  constexpr int kChain = 40;
  auto finished = std::make_shared<std::promise<int>>();
  auto answered = std::make_shared<std::atomic<int>>(0);
  std::function<void(int)> next;
  next = [&](int step) {
    if (step == kChain) {
      finished->set_value(answered->load());
      return;
    }
    if (step % 2 == 1) {
      coordinator.StatsAsync([&next, step](obs::MetricsSnapshot) {
        next(step + 1);
      });
      return;
    }
    serving::QueryRequest request;
    request.user = static_cast<ebsn::UserId>(step % kUsers);
    request.n = 5;
    request.bypass_cache = true;
    coordinator.SubmitAsync(
        request, [&next, answered, step](serving::QueryResponse response) {
          if (response.code == serving::ResponseCode::kOk &&
              !response.partial) {
            answered->fetch_add(1);
          }
          next(step + 1);
        });
  };
  auto future = finished->get_future();
  next(0);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "a resubmitting callback stalled the chain";
  EXPECT_EQ(future.get(), kChain / 2);
  coordinator.Stop();
  group.Stop();
}

TEST(CoordinatorTest, StopRacingSubmittersCompletesEveryQueryOnce) {
  const auto store = RandomStore(26);
  ShardGroup group(*store, AllEvents(), kUsers, GroupOptions());
  ASSERT_TRUE(group.Start().ok());
  CoordinatorBackend coordinator(group.endpoints());
  ASSERT_TRUE(coordinator.Start().ok());

  // Each thread submits until it has seen Stop return, then a few
  // more, so submissions overlap every stage of the shutdown.
  constexpr int kThreads = 4;
  constexpr int kMaxPerThread = 20000;
  constexpr int kAfterStop = 20;
  std::vector<std::atomic<int>> calls(kThreads * kMaxPerThread);
  std::vector<int> submitted(kThreads, 0);
  std::atomic<bool> stopped{false};
  std::atomic<int> shut_down{0};
  std::atomic<int> unexpected_codes{0};
  Completions done;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      int after_stop = 0;
      for (int i = 0; i < kMaxPerThread && after_stop < kAfterStop; ++i) {
        if (stopped.load()) ++after_stop;
        const int slot = t * kMaxPerThread + i;
        serving::QueryRequest request;
        request.user = static_cast<ebsn::UserId>(slot % kUsers);
        request.n = 5;
        request.bypass_cache = true;
        coordinator.SubmitAsync(
            request, [&, slot](serving::QueryResponse response) {
              // Shards shed a burst this size with a typed kOverloaded.
              if (response.code == serving::ResponseCode::kShuttingDown) {
                shut_down.fetch_add(1);
              } else if (response.code != serving::ResponseCode::kOk &&
                         response.code !=
                             serving::ResponseCode::kOverloaded) {
                unexpected_codes.fetch_add(1);
              }
              calls[slot].fetch_add(1);
              done.Add();
            });
        ++submitted[t];
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  coordinator.Stop();
  stopped.store(true);
  for (std::thread& submitter : submitters) submitter.join();
  size_t total = 0;
  for (int t = 0; t < kThreads; ++t) total += submitted[t];
  ASSERT_TRUE(done.WaitFor(total, std::chrono::seconds(30)));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kMaxPerThread; ++i) {
      const int slot = t * kMaxPerThread + i;
      EXPECT_EQ(calls[slot].load(), i < submitted[t] ? 1 : 0)
          << "query " << slot;
    }
  }
  EXPECT_GE(shut_down.load(), kThreads * kAfterStop);
  EXPECT_EQ(unexpected_codes.load(), 0);
  EXPECT_EQ(coordinator.InFlight(), 0u);
  group.Stop();
}

TEST(ParseShardEndpointsTest, AcceptsHostPortLists) {
  std::vector<ShardEndpoint> endpoints;
  ASSERT_TRUE(ParseShardEndpoints("h:1,h:2", &endpoints).ok());
  ASSERT_EQ(endpoints.size(), 2u);
  EXPECT_EQ(endpoints[0].host, "h");
  EXPECT_EQ(endpoints[0].port, 1);
  EXPECT_EQ(endpoints[1].host, "h");
  EXPECT_EQ(endpoints[1].port, 2);

  ASSERT_TRUE(ParseShardEndpoints(":7301", &endpoints).ok());
  ASSERT_EQ(endpoints.size(), 1u);
  EXPECT_EQ(endpoints[0].host, "127.0.0.1");
  EXPECT_EQ(endpoints[0].port, 7301);
}

TEST(ParseShardEndpointsTest, RejectsMalformedLists) {
  for (const char* spec :
       {"", "a:1,,b:2", "a:1,", ",a:1", "a:x", "a:1x", "a:-1", "a:+1",
        "a:", "a"}) {
    std::vector<ShardEndpoint> endpoints;
    const Status status = ParseShardEndpoints(spec, &endpoints);
    EXPECT_FALSE(status.ok()) << "'" << spec << "' accepted";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
  }
}

}  // namespace
}  // namespace gemrec::shard
