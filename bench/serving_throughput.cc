// Serving-engine throughput/latency report (not a paper table):
// closed-loop load against RecommendationService at several worker
// counts, with snapshot swaps racing the traffic, written to
// BENCH_serving.json so the serving hot path has a frozen baseline the
// same way BENCH_hotpath.json freezes the training/TA kernels.
//
// Per worker count: fixed client threads issue synchronous top-10
// queries over a rotating user set while an updater thread performs
// fold-in -> rebuild -> publish reload cycles; we record end-to-end
// QPS, p50/p90/p99 query latency and the cache hit rate. Misses are
// served by the one retrieval engine, the quantized batch walk
// (reciprocal misses ride it too; only group queries scan).
//
// Run from the repo root so BENCH_serving.json lands there:
//   ./build/bench/serving_throughput

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"

namespace gemrec::bench {
namespace {

constexpr size_t kQueries = 4000;
constexpr uint32_t kClients = 4;
constexpr uint32_t kSwaps = 3;
constexpr size_t kTopN = 10;

struct RunResult {
  uint32_t workers = 0;
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double cache_hit_rate = 0;
  uint64_t batches = 0;
  uint64_t publishes = 0;
};

RunResult RunLoad(const embedding::EmbeddingStore& store,
                  const CityBundle& city, uint32_t workers) {
  serving::SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 20;
  serving::SnapshotBuilder builder(store, city.split->test_events(),
                                   city.dataset().num_users(),
                                   snapshot_options);
  serving::ServiceOptions service_options;
  service_options.num_workers = workers;
  // Quantized multi-query batched TA with exact fp32 re-rank, the
  // service's only retrieval engine.
  serving::RecommendationService service(service_options);
  service.Publish(builder.Build());

  std::vector<std::vector<double>> latencies(kClients);
  const auto wall_start = std::chrono::steady_clock::now();
  std::thread updater([&] {
    embedding::OnlineUpdateOptions update;
    update.iterations = 50;
    const auto& attendances = city.dataset().attendances();
    for (uint32_t s = 0; s < kSwaps; ++s) {
      const auto& a = attendances[s % attendances.size()];
      if (!builder.RecordAttendance(a.user, a.event, update).ok()) return;
      service.Publish(builder.Build());
    }
  });
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = latencies[c];
      mine.reserve(kQueries / kClients + 1);
      for (size_t i = c; i < kQueries; i += kClients) {
        serving::QueryRequest request;
        request.user = static_cast<ebsn::UserId>(
            (i * 131) % city.dataset().num_users());
        request.n = kTopN;
        const auto start = std::chrono::steady_clock::now();
        const auto response = service.Query(request);
        const auto stop = std::chrono::steady_clock::now();
        (void)response;
        mine.push_back(
            std::chrono::duration<double, std::micro>(stop - start)
                .count());
      }
    });
  }
  for (auto& thread : clients) thread.join();
  updater.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  const auto percentile = [&](double p) {
    return all[std::min(all.size() - 1,
                        static_cast<size_t>(p * all.size()))];
  };
  const obs::MetricsSnapshot stats = service.metrics()->Snapshot();
  const auto count = [&](std::string_view name) {
    return stats.Find(name)->counter;
  };
  RunResult result;
  result.workers = workers;
  result.qps = all.size() / wall_seconds;
  result.p50_us = percentile(0.50);
  result.p90_us = percentile(0.90);
  result.p99_us = percentile(0.99);
  result.cache_hit_rate =
      static_cast<double>(count("gemrec_service_cache_hits_total")) /
      std::max<uint64_t>(1, count("gemrec_service_queries_total"));
  result.batches = count("gemrec_service_batches_total");
  result.publishes = count("gemrec_service_publishes_total");
  return result;
}

void Run() {
  PrintNote("serving engine load test: closed-loop top-10 queries with "
            "snapshot swaps racing the traffic; writes "
            "BENCH_serving.json");

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

  std::vector<RunResult> results;
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    results.push_back(RunLoad(trainer->store(), city, workers));
    const RunResult& r = results.back();
    std::cout << "workers " << r.workers << ": " << r.qps << " qps  p50 "
              << r.p50_us << "us  p90 " << r.p90_us << "us  p99 "
              << r.p99_us << "us  cache-hit "
              << 100.0 * r.cache_hit_rate << "%  batches " << r.batches
              << "\n";
  }

  std::ofstream json("BENCH_serving.json");
  json << "{\n"
       << "  \"bench\": \"serving_throughput\",\n"
       << "  \"workload\": \"closed-loop top-" << kTopN << " queries, "
       << kClients << " clients, " << kQueries << " queries, " << kSwaps
       << " snapshot swaps racing the traffic\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"retrieval_mode\": \"quantized_batched\",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\n"
         << "      \"workers\": " << r.workers << ",\n"
         << "      \"qps\": " << r.qps << ",\n"
         << "      \"p50_us\": " << r.p50_us << ",\n"
         << "      \"p90_us\": " << r.p90_us << ",\n"
         << "      \"p99_us\": " << r.p99_us << ",\n"
         << "      \"cache_hit_rate\": " << r.cache_hit_rate << ",\n"
         << "      \"batches\": " << r.batches << ",\n"
         << "      \"publishes\": " << r.publishes << "\n"
         << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::cout << "\nwrote BENCH_serving.json\n";
}

}  // namespace
}  // namespace gemrec::bench

int main() {
  gemrec::bench::Run();
  return 0;
}
