// Write-path load test (not a paper table): sustained attendance
// fold-ins streamed over loopback TCP into a live `--ingest-dir`-style
// server while 64 closed-loop query connections keep reading, written
// to BENCH_ingest.json.
//
// Two phases over the same trained model:
//   A (baseline) — read-only NetServer, 64 query connections; the
//     frozen serving p50/p99 reference (BENCH_net.json's shape).
//   B (mixed)    — the same service with an IngestionQueue attached:
//     64 query connections plus 4 writer connections issuing blocking
//     Attend() calls (journal fdatasync + fold-in + ack each). We
//     record sustained fold-ins/sec, publish lag percentiles (from
//     gemrec_ingest_publish_lag_us over the kStats wire pair), and the
//     serving p50/p99 delta vs phase A.
//
// Acceptance tracked by the JSON: mixed-phase serving p99 within 25%
// of the read-only baseline at 64 connections.
//
// Run from the repo root so BENCH_ingest.json lands there:
//   ./build/bench/ingest_throughput

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "serving/ingestion_queue.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"

namespace gemrec::bench {
namespace {

constexpr size_t kTopN = 10;
constexpr uint32_t kQueryConnections = 64;
constexpr uint32_t kWriterConnections = 4;
// Offered write load per writer connection. Real attendance streams
// are arrival-rate driven, not closed-loop: pacing each writer at a
// fixed interval measures serving interference at a sustained write
// rate instead of "as fast as one core can fsync". 100 writes/s total
// is generous for a single city (the paper's Meetup snapshots average
// well under one RSVP per second) and each write still pays a real
// journal fdatasync (~3.6ms on this filesystem) before it acks.
constexpr std::chrono::microseconds kWritePacing{40000};  // ~100/s total
constexpr auto kWarmupPerConnection = 20;
constexpr std::chrono::milliseconds kMeasureWindow{3000};
// Baseline/mixed rounds interleave (A B A B ...) and the JSON reports
// per-phase *median* percentiles: interleaving cancels slow machine
// drift and the median damps the publish-count quantization noise a
// single window suffers on a 1-core host.
constexpr int kRounds = 5;

struct PhaseResult {
  uint64_t queries = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  // Mixed phase only.
  uint64_t foldins = 0;
  double foldins_per_sec = 0;
  uint64_t publishes = 0;
  double publish_lag_p50_us = 0;
  double publish_lag_p99_us = 0;
  uint64_t overload_sheds = 0;
  uint64_t transport_failures = 0;
};

obs::HistogramData FetchHistogram(net::Client* stats_client,
                                  const std::string& name) {
  auto snapshot = stats_client->Stats();
  if (!snapshot.ok()) return {};
  const obs::MetricValue* metric = snapshot->Find(name);
  return metric == nullptr ? obs::HistogramData{} : metric->histogram;
}

uint64_t FetchCounter(net::Client* stats_client, const std::string& name) {
  auto snapshot = stats_client->Stats();
  if (!snapshot.ok()) return 0;
  const obs::MetricValue* metric = snapshot->Find(name);
  return metric == nullptr ? 0 : metric->counter;
}

/// Closed-loop query load, optionally with writer threads streaming
/// attendance fold-ins for the whole measured window.
PhaseResult RunPhase(net::NetServer* server, uint32_t num_users,
                     uint32_t num_events, bool with_writers) {
  const obs::MetricsSnapshot before = server->metrics_registry()->Snapshot();
  std::vector<std::vector<double>> latencies(kQueryConnections);
  std::atomic<uint64_t> transport_failures{0};
  std::atomic<uint64_t> foldins{0};
  std::atomic<uint32_t> warmed{0};
  std::atomic<bool> go{false};
  std::atomic<bool> writers_stop{false};

  auto stats_client =
      net::Client::Connect("127.0.0.1", server->port(), {});
  if (!stats_client.ok()) {
    std::cerr << "stats client connect failed: "
              << stats_client.status().ToString() << "\n";
    return {};
  }

  std::vector<std::thread> threads;
  threads.reserve(kQueryConnections);
  for (uint32_t c = 0; c < kQueryConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client =
          net::Client::Connect("127.0.0.1", server->port(), {});
      if (!client.ok()) {
        transport_failures.fetch_add(1);
        warmed.fetch_add(1, std::memory_order_release);
        return;
      }
      serving::QueryRequest request;
      request.n = kTopN;
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

  // Writers: blocking Attend() round trips (journal fsync + fold-in +
  // ack each), the sustained fold-in stream the queries ride over.
  // Shed writes (OVERLOADED) don't count as fold-ins.
  std::vector<std::thread> writers;
  if (with_writers) {
    for (uint32_t w = 0; w < kWriterConnections; ++w) {
      writers.emplace_back([&, w] {
        auto client =
            net::Client::Connect("127.0.0.1", server->port(), {});
        if (!client.ok()) {
          transport_failures.fetch_add(1);
          return;
        }
        while (!go.load(std::memory_order_acquire) &&
               !writers_stop.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        uint64_t i = w;
        uint64_t sent = 0;
        const auto pace_start = std::chrono::steady_clock::now();
        while (!writers_stop.load(std::memory_order_acquire)) {
          const auto user =
              static_cast<ebsn::UserId>((i * 2654435761u) % num_users);
          const auto event =
              static_cast<ebsn::EventId>((i * 40503u) % num_events);
          ++i;
          auto outcome = (*client)->Attend(user, event);
          if (!outcome.ok()) {
            transport_failures.fetch_add(1);
            return;
          }
          if (outcome->ok) foldins.fetch_add(1);
          ++sent;
          // Deadline pacing: hold the offered rate even if individual
          // round trips are slow (no coordinated-omission slowdown).
          std::this_thread::sleep_until(pace_start + sent * kWritePacing);
        }
      });
    }
  }

  while (warmed.load(std::memory_order_acquire) < kQueryConnections) {
    std::this_thread::yield();
  }
  const obs::HistogramData lag_before = FetchHistogram(
      stats_client.value().get(), "gemrec_ingest_publish_lag_us");
  const uint64_t publishes_before = FetchCounter(
      stats_client.value().get(), "gemrec_ingest_publishes_total");
  const auto wall_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  writers_stop.store(true, std::memory_order_release);
  for (auto& thread : writers) thread.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const obs::HistogramData lag_window =
      FetchHistogram(stats_client.value().get(),
                     "gemrec_ingest_publish_lag_us")
          .MinusBaseline(lag_before);
  const uint64_t publishes_after = FetchCounter(
      stats_client.value().get(), "gemrec_ingest_publishes_total");

  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  const obs::MetricsSnapshot after = server->metrics_registry()->Snapshot();
  PhaseResult result;
  result.queries = all.size();
  result.qps = wall_seconds > 0 ? all.size() / wall_seconds : 0;
  result.p50_us = obs::SamplePercentile(all, 0.50);
  result.p99_us = obs::SamplePercentile(all, 0.99);
  result.foldins = foldins.load();
  result.foldins_per_sec =
      wall_seconds > 0 ? result.foldins / wall_seconds : 0;
  result.publishes = publishes_after - publishes_before;
  result.publish_lag_p50_us = lag_window.Percentile(0.50);
  result.publish_lag_p99_us = lag_window.Percentile(0.99);
  result.overload_sheds =
      after.Find("gemrec_net_overload_sheds_total")->counter -
      before.Find("gemrec_net_overload_sheds_total")->counter;
  result.transport_failures = transport_failures.load();
  return result;
}

/// Removes the scratch journal/checkpoint directory (checkpoints carry
/// the watermark in their names, so sweep the whole tree).
void RemoveTree(const std::string& dir) {
  const std::string cmd = "rm -rf " + dir;
  (void)::system(cmd.c_str());
}

void Run() {
  PrintNote("write-path load test: 64 closed-loop query connections "
            "with and without 4 writer connections streaming "
            "journaled attendance fold-ins; writes BENCH_ingest.json");

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

  // Interleaved rounds: read-only baseline, then the same service +
  // builder with the write path attached, kRounds times over.
  std::vector<PhaseResult> baselines;
  std::vector<PhaseResult> mixeds;
  const std::string ingest_dir = "BENCH_ingest_tmp";
  for (int round = 0; round < kRounds; ++round) {
    {
      net::NetServer server(&service, server_options);
      const Status started = server.Start();
      if (!started.ok()) {
        std::cerr << "server start failed: " << started.ToString()
                  << "\n";
        return;
      }
      baselines.push_back(RunPhase(&server, city.dataset().num_users(),
                                   city.dataset().num_events(),
                                   /*with_writers=*/false));
      server.RequestDrain();
      server.WaitUntilStopped();
      server.Stop();
    }
    (void)::mkdir(ingest_dir.c_str(), 0755);
    {
      serving::IngestionQueueOptions iq;
      iq.journal_path = ingest_dir + "/journal";
      iq.checkpoint_base = ingest_dir + "/checkpoint";
      iq.checkpoint_every = 4096;
      // Production delta cadence: a full snapshot rebuild costs ~100ms
      // of CPU at this model size, so publishing on every small batch
      // (the unit-test-friendly defaults) would spend the whole
      // measure window rebuilding instead of serving. Bound rebuild
      // CPU by publishing at most ~once per 750ms unless a large
      // batch lands.
      iq.publish_threshold = 4096;
      iq.publish_interval = std::chrono::milliseconds(750);
      serving::IngestionQueue queue(&service, &builder, iq);
      if (const Status s = queue.Start(); !s.ok()) {
        std::cerr << "ingestion start failed: " << s.ToString() << "\n";
        RemoveTree(ingest_dir);
        return;
      }
      net::NetServer server(&service, server_options, &queue);
      const Status started = server.Start();
      if (!started.ok()) {
        std::cerr << "server start failed: " << started.ToString()
                  << "\n";
        RemoveTree(ingest_dir);
        return;
      }
      mixeds.push_back(RunPhase(&server, city.dataset().num_users(),
                                city.dataset().num_events(),
                                /*with_writers=*/true));
      server.RequestDrain();
      server.WaitUntilStopped();
      server.Stop();
      queue.Shutdown();
    }
    RemoveTree(ingest_dir);
  }

  // Per-phase medians (each round is an independent window; totals
  // below sum the write-side activity across rounds).
  const auto median_of = [](std::vector<PhaseResult>& runs,
                            auto member) {
    std::vector<double> values;
    values.reserve(runs.size());
    for (const PhaseResult& run : runs) values.push_back(run.*member);
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  PhaseResult baseline;
  baseline.qps = median_of(baselines, &PhaseResult::qps);
  baseline.p50_us = median_of(baselines, &PhaseResult::p50_us);
  baseline.p99_us = median_of(baselines, &PhaseResult::p99_us);
  for (const PhaseResult& run : baselines) {
    baseline.queries += run.queries;
    baseline.transport_failures += run.transport_failures;
  }
  PhaseResult mixed;
  mixed.qps = median_of(mixeds, &PhaseResult::qps);
  mixed.p50_us = median_of(mixeds, &PhaseResult::p50_us);
  mixed.p99_us = median_of(mixeds, &PhaseResult::p99_us);
  mixed.publish_lag_p50_us =
      median_of(mixeds, &PhaseResult::publish_lag_p50_us);
  mixed.publish_lag_p99_us =
      median_of(mixeds, &PhaseResult::publish_lag_p99_us);
  double mixed_seconds = 0;
  for (const PhaseResult& run : mixeds) {
    mixed.queries += run.queries;
    mixed.foldins += run.foldins;
    mixed.publishes += run.publishes;
    mixed.overload_sheds += run.overload_sheds;
    mixed.transport_failures += run.transport_failures;
    mixed_seconds += run.foldins_per_sec > 0
                         ? run.foldins / run.foldins_per_sec
                         : 0;
  }
  mixed.foldins_per_sec =
      mixed_seconds > 0 ? mixed.foldins / mixed_seconds : 0;

  std::cout << "baseline (read-only, " << kQueryConnections
            << " conns, median of " << kRounds
            << "): " << baseline.qps << " qps  p50 " << baseline.p50_us
            << "us  p99 " << baseline.p99_us << "us\n";

  // Paired per-round deltas: each round's baseline and mixed windows
  // are temporally adjacent, so slow machine drift cancels inside the
  // pair; the median pair is far stabler than a ratio of two
  // independently-noisy medians on a 1-core host.
  std::vector<double> deltas;
  for (int round = 0; round < kRounds; ++round) {
    if (baselines[round].p99_us > 0) {
      deltas.push_back(100.0 *
                       (mixeds[round].p99_us - baselines[round].p99_us) /
                       baselines[round].p99_us);
    }
  }
  std::sort(deltas.begin(), deltas.end());
  const double p99_delta_pct =
      deltas.empty() ? 0 : deltas[deltas.size() / 2];
  std::cout << "mixed (" << kQueryConnections << " query + "
            << kWriterConnections << " writer conns): " << mixed.qps
            << " qps  p50 " << mixed.p50_us << "us  p99 " << mixed.p99_us
            << "us  (" << p99_delta_pct
            << "% vs baseline p99, median paired round)\n"
            << "  fold-ins " << mixed.foldins << " ("
            << mixed.foldins_per_sec << "/s)  publishes "
            << mixed.publishes << "  publish lag p50 "
            << mixed.publish_lag_p50_us << "us  p99 "
            << mixed.publish_lag_p99_us << "us  sheds "
            << mixed.overload_sheds << "  transport-failures "
            << mixed.transport_failures << "\n";

  std::ofstream json("BENCH_ingest.json");
  json << "{\n"
       << "  \"bench\": \"ingest_throughput\",\n"
       << "  \"workload\": \"" << kQueryConnections
       << " closed-loop top-" << kTopN
       << " query connections over loopback TCP; mixed phase adds "
       << kWriterConnections
       << " attendance writers paced at "
       << (1000000 / kWritePacing.count())
       << " writes/s each (journal fdatasync + fold-in + ack per "
       << "write); " << kMeasureWindow.count()
       << "ms measured window per phase, phases interleaved over "
       << kRounds << " rounds, median percentiles reported\",\n"
       << "  \"rounds\": " << kRounds << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"baseline\": {\n"
       << "    \"connections\": " << kQueryConnections << ",\n"
       << "    \"queries\": " << baseline.queries << ",\n"
       << "    \"qps\": " << baseline.qps << ",\n"
       << "    \"p50_us\": " << baseline.p50_us << ",\n"
       << "    \"p99_us\": " << baseline.p99_us << ",\n"
       << "    \"transport_failures\": " << baseline.transport_failures
       << "\n"
       << "  },\n"
       << "  \"mixed\": {\n"
       << "    \"connections\": " << kQueryConnections << ",\n"
       << "    \"writer_connections\": " << kWriterConnections << ",\n"
       << "    \"queries\": " << mixed.queries << ",\n"
       << "    \"qps\": " << mixed.qps << ",\n"
       << "    \"p50_us\": " << mixed.p50_us << ",\n"
       << "    \"p99_us\": " << mixed.p99_us << ",\n"
       << "    \"foldins\": " << mixed.foldins << ",\n"
       << "    \"foldins_per_sec\": " << mixed.foldins_per_sec << ",\n"
       << "    \"publishes\": " << mixed.publishes << ",\n"
       << "    \"publish_lag_p50_us\": " << mixed.publish_lag_p50_us
       << ",\n"
       << "    \"publish_lag_p99_us\": " << mixed.publish_lag_p99_us
       << ",\n"
       << "    \"overload_sheds\": " << mixed.overload_sheds << ",\n"
       << "    \"transport_failures\": " << mixed.transport_failures
       << "\n"
       << "  },\n"
       << "  \"p99_delta_pct\": " << p99_delta_pct << ",\n"
       << "  \"acceptance_p99_within_25pct\": "
       << (p99_delta_pct <= 25.0 ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "\nwrote BENCH_ingest.json\n";
}

}  // namespace
}  // namespace gemrec::bench

int main() {
  gemrec::bench::Run();
  return 0;
}
