// Network serving layer load test (not a paper table): closed-loop
// clients over loopback TCP against an in-process NetServer, at 1, 8,
// 64 and 256 connections, written to BENCH_net.json so the epoll
// front-end has a frozen baseline alongside BENCH_serving.json (which
// measures the same engine without the socket layer in between).
//
// A second section sweeps the reactor count (1/2/4 event-loop threads,
// fresh server each) at the 64-connection point, so the multi-reactor
// front-end's scaling — and the client-minus-server p50 gap it is
// supposed to shrink — is frozen per reactor count. On a single-core
// container the sweep still runs but cannot show scaling; read it next
// to "hardware_concurrency".
//
// Per connection count: each connection is one thread running a
// blocking wire.h client issuing synchronous top-10 queries over a
// rotating user set for a fixed duration; we record end-to-end QPS,
// p50/p90/p99 round-trip latency, and the server-side shed/error
// counters (which must stay zero in a healthy run).
//
// The server binds 127.0.0.1 port 0 (kernel-chosen ephemeral port), so
// concurrent bench invocations cannot collide.
//
// Run from the repo root so BENCH_net.json lands there:
//   ./build/bench/net_throughput

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"

namespace gemrec::bench {
namespace {

constexpr size_t kTopN = 10;
constexpr auto kWarmupPerConnection = 20;
constexpr std::chrono::milliseconds kMeasureWindow{1500};

struct RunResult {
  uint32_t reactors = 1;
  uint32_t connections = 0;
  uint64_t queries = 0;
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  /// Server-side round-trip percentiles for the same window, pulled
  /// from gemrec_net_round_trip_us over the kStats wire pair — the
  /// cross-check that the server's own histograms tell the same story
  /// as client-measured wall time (minus loopback + client overhead).
  uint64_t server_queries = 0;
  double server_p50_us = 0;
  double server_p90_us = 0;
  double server_p99_us = 0;
  uint64_t overload_sheds = 0;
  uint64_t protocol_errors = 0;
  uint64_t transport_failures = 0;
};

/// Fetches the server-side round-trip histogram over the wire; an
/// empty histogram on any failure (the bench then reports zeros).
obs::HistogramData FetchRoundTripHistogram(net::Client* stats_client) {
  auto snapshot = stats_client->Stats();
  if (!snapshot.ok()) return {};
  const obs::MetricValue* metric =
      snapshot->Find("gemrec_net_round_trip_us");
  return metric == nullptr ? obs::HistogramData{} : metric->histogram;
}

RunResult RunLoad(net::NetServer* server, uint32_t num_users,
                  uint32_t connections) {
  const obs::MetricsSnapshot before = server->metrics_registry()->Snapshot();
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<uint64_t> transport_failures{0};
  std::atomic<uint32_t> warmed{0};
  std::atomic<bool> go{false};

  auto stats_client =
      net::Client::Connect("127.0.0.1", server->port(), {});
  if (!stats_client.ok()) {
    std::cerr << "stats client connect failed: "
              << stats_client.status().ToString() << "\n";
    return {};
  }

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (uint32_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client =
          net::Client::Connect("127.0.0.1", server->port(), {});
      if (!client.ok()) {
        transport_failures.fetch_add(1);
        return;
      }
      serving::QueryRequest request;
      request.n = kTopN;
      // Rotating user set: repeat queries hit the ResultCache, which
      // is the realistic steady state this front-end serves.
      uint64_t i = c;
      for (int w = 0; w < kWarmupPerConnection; ++w, ++i) {
        request.user =
            static_cast<ebsn::UserId>((i * 131) % num_users);
        if (!(*client)->Query(request).ok()) {
          transport_failures.fetch_add(1);
          warmed.fetch_add(1, std::memory_order_release);
          return;
        }
      }
      warmed.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto& mine = latencies[c];
      const auto deadline =
          std::chrono::steady_clock::now() + kMeasureWindow;
      while (std::chrono::steady_clock::now() < deadline) {
        request.user =
            static_cast<ebsn::UserId>((i++ * 131) % num_users);
        const auto start = std::chrono::steady_clock::now();
        auto outcome = (*client)->Query(request);
        const auto stop = std::chrono::steady_clock::now();
        if (!outcome.ok() || !(*outcome).ok) {
          transport_failures.fetch_add(1);
          return;
        }
        mine.push_back(
            std::chrono::duration<double, std::micro>(stop - start)
                .count());
      }
    });
  }

  // Baseline the server-side histogram after warmup so the measured
  // window diff isolates exactly the timed queries.
  while (warmed.load(std::memory_order_acquire) < connections) {
    std::this_thread::yield();
  }
  const obs::HistogramData server_before =
      FetchRoundTripHistogram(stats_client.value().get());
  const auto wall_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const obs::HistogramData server_window =
      FetchRoundTripHistogram(stats_client.value().get())
          .MinusBaseline(server_before);

  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  const obs::MetricsSnapshot after = server->metrics_registry()->Snapshot();
  const auto delta = [&](std::string_view name) {
    return after.Find(name)->counter - before.Find(name)->counter;
  };
  RunResult result;
  result.connections = connections;
  result.queries = all.size();
  result.qps = wall_seconds > 0 ? all.size() / wall_seconds : 0;
  result.p50_us = obs::SamplePercentile(all, 0.50);
  result.p90_us = obs::SamplePercentile(all, 0.90);
  result.p99_us = obs::SamplePercentile(all, 0.99);
  result.server_queries = server_window.count;
  result.server_p50_us = server_window.Percentile(0.50);
  result.server_p90_us = server_window.Percentile(0.90);
  result.server_p99_us = server_window.Percentile(0.99);
  result.overload_sheds = delta("gemrec_net_overload_sheds_total");
  result.protocol_errors = delta("gemrec_net_protocol_errors_total");
  result.transport_failures = transport_failures.load();
  return result;
}

void Run() {
  PrintNote("network serving layer load test: closed-loop top-10 "
            "queries over loopback TCP at 1/8/64/256 connections, plus "
            "a 1/2/4 reactor sweep at 64 connections; writes "
            "BENCH_net.json");

  ebsn::SyntheticConfig config;
  config.num_users = 400;
  config.num_events = 300;
  config.num_venues = 40;
  config.num_topics = 6;
  config.vocab_size = 500;
  config.mean_events_per_user = 12.0;
  config.mean_friends_per_user = 10.0;
  config.seed = 4242;
  CityBundle city = MakeCity(config);

  auto options = embedding::TrainerOptions::GemA();
  options.dim = 24;
  auto trainer = TrainEmbedding(city, options, /*samples=*/150000);

  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 20;
  serving::SnapshotBuilder builder(trainer->store(),
                                   city.split->test_events(),
                                   city.dataset().num_users(),
                                   snapshot_options);
  serving::RecommendationService service(serving::ServiceOptions{});
  service.Publish(builder.Build());

  net::ServerOptions server_options;
  server_options.max_connections = 512;
  server_options.max_in_flight = 512;
  server_options.idle_timeout = std::chrono::milliseconds(60000);
  net::NetServer server(&service, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "server start failed: " << started.ToString() << "\n";
    return;
  }
  std::cout << "server listening on 127.0.0.1:" << server.port()
            << "\n";

  std::vector<RunResult> results;
  for (uint32_t connections : {1u, 8u, 64u, 256u}) {
    results.push_back(
        RunLoad(&server, city.dataset().num_users(), connections));
    const RunResult& r = results.back();
    std::cout << "connections " << r.connections << ": " << r.qps
              << " qps  p50 " << r.p50_us << "us  p90 " << r.p90_us
              << "us  p99 " << r.p99_us << "us  sheds "
              << r.overload_sheds << "  transport-failures "
              << r.transport_failures << "\n"
              << "  server-side (" << r.server_queries
              << " in histogram): p50 " << r.server_p50_us << "us  p90 "
              << r.server_p90_us << "us  p99 " << r.server_p99_us
              << "us\n";
  }
  server.RequestDrain();
  server.WaitUntilStopped();
  server.Stop();

  // Reactor sweep: same engine, fresh front-end per reactor count, at
  // the contended 64-connection point. client-minus-server p50 is the
  // queueing the socket layer itself adds; more reactors should shrink
  // it when cores are available.
  constexpr uint32_t kSweepConnections = 64;
  std::vector<RunResult> sweep;
  for (uint32_t reactors : {1u, 2u, 4u}) {
    net::ServerOptions sweep_options = server_options;
    sweep_options.num_reactors = reactors;
    net::NetServer sweep_server(&service, sweep_options);
    const Status sweep_started = sweep_server.Start();
    if (!sweep_started.ok()) {
      std::cerr << "sweep server (reactors=" << reactors
                << ") start failed: " << sweep_started.ToString() << "\n";
      continue;
    }
    RunResult r = RunLoad(&sweep_server, city.dataset().num_users(),
                          kSweepConnections);
    r.reactors = reactors;
    sweep.push_back(r);
    std::cout << "reactors " << r.reactors << " @ " << r.connections
              << " connections: " << r.qps << " qps  p50 " << r.p50_us
              << "us  server p50 " << r.server_p50_us
              << "us  client-minus-server p50 "
              << (r.p50_us - r.server_p50_us) << "us\n";
    sweep_server.RequestDrain();
    sweep_server.WaitUntilStopped();
    sweep_server.Stop();
  }

  std::ofstream json("BENCH_net.json");
  json << "{\n"
       << "  \"bench\": \"net_throughput\",\n"
       << "  \"workload\": \"closed-loop top-" << kTopN
       << " queries over loopback TCP, one blocking client per "
       << "connection, " << kMeasureWindow.count()
       << "ms measured window per connection count\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"runs\": [\n";
  const auto write_run = [&json](const RunResult& r, bool last,
                                 bool with_reactors) {
    json << "    {\n";
    if (with_reactors) {
      json << "      \"reactors\": " << r.reactors << ",\n"
           << "      \"client_minus_server_p50_us\": "
           << (r.p50_us - r.server_p50_us) << ",\n";
    }
    json << "      \"connections\": " << r.connections << ",\n"
         << "      \"queries\": " << r.queries << ",\n"
         << "      \"qps\": " << r.qps << ",\n"
         << "      \"p50_us\": " << r.p50_us << ",\n"
         << "      \"p90_us\": " << r.p90_us << ",\n"
         << "      \"p99_us\": " << r.p99_us << ",\n"
         << "      \"server_queries\": " << r.server_queries << ",\n"
         << "      \"server_p50_us\": " << r.server_p50_us << ",\n"
         << "      \"server_p90_us\": " << r.server_p90_us << ",\n"
         << "      \"server_p99_us\": " << r.server_p99_us << ",\n"
         << "      \"overload_sheds\": " << r.overload_sheds << ",\n"
         << "      \"protocol_errors\": " << r.protocol_errors << ",\n"
         << "      \"transport_failures\": " << r.transport_failures
         << "\n"
         << "    }" << (last ? "" : ",") << "\n";
  };
  for (size_t i = 0; i < results.size(); ++i) {
    write_run(results[i], i + 1 == results.size(),
              /*with_reactors=*/false);
  }
  json << "  ],\n"
       << "  \"reactor_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    write_run(sweep[i], i + 1 == sweep.size(), /*with_reactors=*/true);
  }
  json << "  ]\n"
       << "}\n";
  std::cout << "\nwrote BENCH_net.json\n";
}

}  // namespace
}  // namespace gemrec::bench

int main() {
  gemrec::bench::Run();
  return 0;
}
