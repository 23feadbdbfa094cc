// Per-query-kind serving throughput/latency report (not a paper
// table): closed-loop load against RecommendationService for each
// QueryKind — partner, group (sum and min aggregation) and reciprocal
// — written to BENCH_workloads.json so the three serve paths have
// frozen baselines the same way BENCH_serving.json freezes the
// partner hot path.
//
// Per kind: fixed client threads issue synchronous top-10 queries over
// a rotating user set (group queries rotate the partner set too, so
// the result cache cannot flatten the workload); we record end-to-end
// QPS and p50/p90/p99 query latency. Partner and reciprocal misses
// share the quantized batch walk; a reciprocal miss walks its forward
// query (u, u, 0) to depth max(2n, 16) and is rescored with the exact
// min of both directions, deepening only when its certificate fails.
// The query count is scaled per kind — group scans its event slice
// exhaustively and reciprocal walks deeper, so both do more work per
// query than partner retrieval.
//
// Run from the repo root so BENCH_workloads.json lands there:
//   ./build/bench/workload_throughput

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "recommend/query_kinds.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"

namespace gemrec::bench {
namespace {

constexpr uint32_t kClients = 4;
constexpr uint32_t kWorkers = 4;
constexpr size_t kTopN = 10;

struct WorkloadSpec {
  std::string name;
  recommend::QueryKind kind;
  recommend::GroupAggregator aggregator;
  size_t queries;
};

struct RunResult {
  std::string name;
  double qps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  size_t queries = 0;
};

serving::QueryRequest MakeRequest(const WorkloadSpec& spec, size_t i,
                                  uint32_t num_users) {
  serving::QueryRequest request;
  request.user = static_cast<ebsn::UserId>((i * 131) % num_users);
  request.n = kTopN;
  request.kind = spec.kind;
  if (spec.kind == recommend::QueryKind::kGroup) {
    request.aggregator = spec.aggregator;
    // Deterministic rotating partner set of 3, never containing the
    // querying user.
    for (uint32_t d : {1u, 7u, 13u}) {
      request.group.push_back(static_cast<ebsn::UserId>(
          (request.user + d + static_cast<uint32_t>(i % 5)) % num_users));
    }
    for (auto& member : request.group) {
      if (member == request.user) member = (member + 1) % num_users;
    }
  }
  return request;
}

RunResult RunLoad(serving::RecommendationService* service,
                  const WorkloadSpec& spec, uint32_t num_users) {
  std::vector<std::vector<double>> latencies(kClients);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = latencies[c];
      mine.reserve(spec.queries / kClients + 1);
      for (size_t i = c; i < spec.queries; i += kClients) {
        const serving::QueryRequest request =
            MakeRequest(spec, i, num_users);
        const auto start = std::chrono::steady_clock::now();
        const auto response = service->Query(request);
        const auto stop = std::chrono::steady_clock::now();
        (void)response;
        mine.push_back(
            std::chrono::duration<double, std::micro>(stop - start)
                .count());
      }
    });
  }
  for (auto& thread : clients) thread.join();
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
  RunResult result;
  result.name = spec.name;
  result.queries = all.size();
  result.qps = all.size() / wall_seconds;
  result.p50_us = percentile(0.50);
  result.p90_us = percentile(0.90);
  result.p99_us = percentile(0.99);
  return result;
}

void Run() {
  PrintNote("per-kind serving load test: closed-loop top-10 partner / "
            "group(sum) / group(min) / reciprocal queries; writes "
            "BENCH_workloads.json");

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
  serving::ServiceOptions service_options;
  service_options.num_workers = kWorkers;
  serving::RecommendationService service(service_options);
  service.Publish(builder.Build());

  const std::vector<WorkloadSpec> workloads = {
      {"partner", recommend::QueryKind::kPartner,
       recommend::GroupAggregator::kSum, 4000},
      {"group_sum", recommend::QueryKind::kGroup,
       recommend::GroupAggregator::kSum, 1000},
      {"group_min", recommend::QueryKind::kGroup,
       recommend::GroupAggregator::kMin, 1000},
      {"reciprocal", recommend::QueryKind::kReciprocal,
       recommend::GroupAggregator::kSum, 500},
  };

  std::vector<RunResult> results;
  for (const WorkloadSpec& spec : workloads) {
    results.push_back(
        RunLoad(&service, spec, city.dataset().num_users()));
    const RunResult& r = results.back();
    std::cout << r.name << ": " << r.qps << " qps  p50 " << r.p50_us
              << "us  p90 " << r.p90_us << "us  p99 " << r.p99_us
              << "us  (" << r.queries << " queries)\n";
  }

  std::ofstream json("BENCH_workloads.json");
  json << "{\n"
       << "  \"bench\": \"workload_throughput\",\n"
       << "  \"workload\": \"closed-loop top-" << kTopN
       << " queries per kind, " << kClients << " clients, " << kWorkers
       << " workers\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"retrieval_mode\": \"quantized_batched\",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\n"
         << "      \"kind\": \"" << r.name << "\",\n"
         << "      \"queries\": " << r.queries << ",\n"
         << "      \"qps\": " << r.qps << ",\n"
         << "      \"p50_us\": " << r.p50_us << ",\n"
         << "      \"p90_us\": " << r.p90_us << ",\n"
         << "      \"p99_us\": " << r.p99_us << "\n"
         << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::cout << "\nwrote BENCH_workloads.json\n";
}

}  // namespace
}  // namespace gemrec::bench

int main() {
  gemrec::bench::Run();
  return 0;
}
