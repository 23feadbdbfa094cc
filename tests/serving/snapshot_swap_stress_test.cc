// Concurrency stress for the serving engine, run in the default suite
// AND under ThreadSanitizer by scripts/tier1.sh: N query threads race
// M snapshot swaps while the result cache churns under a deliberately
// tiny capacity.
//
// Every response is differentially verified against the snapshot of
// the epoch it claims to come from (the test retains a reference to
// every published snapshot), which proves two things at once:
//  * a cache hit can never carry data computed on a retired snapshot
//    (its items would not match the claimed epoch's exact TA results);
//  * the swap path never hands a worker a half-published snapshot.
//
// Under TSan this must produce zero reports outside scripts/tsan.supp
// (whose entries cover only hogwild training, none of which runs
// here).

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/brute_force.h"
#include "serving/recommendation_service.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::serving {
namespace {

using testing::CounterValue;

constexpr uint32_t kNumUsers = 24;
constexpr uint32_t kNumEvents = 16;
constexpr uint32_t kDim = 8;
constexpr uint32_t kQueryThreads = 4;
constexpr uint32_t kQueriesPerThread = 250;
constexpr uint32_t kSwaps = 12;

std::unique_ptr<embedding::EmbeddingStore> RandomStore(uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{kNumUsers, kNumEvents, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent)
      .FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

std::vector<ebsn::EventId> AllEvents() {
  std::vector<ebsn::EventId> events(kNumEvents);
  for (uint32_t x = 0; x < kNumEvents; ++x) events[x] = x;
  return events;
}

/// Epoch-indexed archive of every published snapshot, so query
/// threads can recompute any response's expected items exactly.
///
/// The epoch is passed explicitly (it is only stamped onto the
/// snapshot inside Publish) so the publisher can archive BEFORE
/// publishing: the instant Publish returns, a racing query thread may
/// see the new epoch and look it up here, and recording first makes
/// that lookup always succeed.
class SnapshotArchive {
 public:
  void Record(uint64_t epoch,
              std::shared_ptr<const ModelSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    if (by_epoch_.size() <= epoch) by_epoch_.resize(epoch + 1);
    by_epoch_[epoch] = std::move(snapshot);
  }
  std::shared_ptr<const ModelSnapshot> Get(uint64_t epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch >= by_epoch_.size()) return nullptr;
    return by_epoch_[epoch];
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const ModelSnapshot>> by_epoch_;
};

void RunChurn(bool use_batch_ta) {
  ServiceOptions options;
  options.num_workers = 3;
  options.max_batch = 8;
  options.cache_capacity = 32;  // tiny: constant LRU churn
  options.cache_shards = 4;
  options.use_batch_ta = use_batch_ta;
  RecommendationService service(options);

  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;  // full space
  SnapshotBuilder builder(*RandomStore(17), AllEvents(), kNumUsers,
                          snapshot_options);

  // This test is the only publisher, so epochs are deterministic: the
  // initial publish gets epoch 1, swap s gets epoch s + 2. Each
  // snapshot is archived under its predicted epoch before Publish, and
  // the prediction is checked against Publish's return value.
  SnapshotArchive archive;
  {
    auto first = builder.Build();
    archive.Record(1, first);
    ASSERT_EQ(service.Publish(std::move(first)), 1u);
  }

  std::atomic<uint32_t> failures{0};
  std::atomic<bool> swapping_done{false};

  // Swapper: fold an attendance nudge into the staging store, rebuild,
  // publish — the full OnlineUpdate -> snapshot reload loop, racing
  // the query threads below.
  std::thread swapper([&] {
    embedding::OnlineUpdateOptions update;
    update.iterations = 20;
    update.seed = 91;
    for (uint32_t s = 0; s < kSwaps; ++s) {
      if (!builder
               .RecordAttendance(/*user=*/s % kNumUsers,
                                 /*event=*/(s * 5) % kNumEvents, update)
               .ok()) {
        failures.fetch_add(1);
        break;
      }
      auto next = builder.Build();
      archive.Record(s + 2, next);
      if (service.Publish(std::move(next)) != s + 2) {
        failures.fetch_add(1);
        break;
      }
      std::this_thread::yield();
    }
    swapping_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> query_threads;
  for (uint32_t t = 0; t < kQueryThreads; ++t) {
    query_threads.emplace_back([&, t] {
      std::vector<float> q;
      for (uint32_t i = 0; i < kQueriesPerThread; ++i) {
        QueryRequest request;
        // A narrow (user, n) range keeps cache hits frequent while the
        // swaps keep invalidating them.
        request.user = (t * 31 + i) % 8;
        request.n = 5 + (i % 2) * 5;
        request.bypass_cache = (i % 7) == 0;

        const uint64_t epoch_before =
            service.CurrentSnapshot()->epoch();
        const QueryResponse response = service.Query(request);

        // Epochs only move forward: a response can come from the
        // snapshot current at submit time or a newer one, never from
        // one retired before the query was submitted.
        if (response.epoch < epoch_before ||
            response.epoch > kSwaps + 1) {
          failures.fetch_add(1);
          continue;
        }
        // Differential check against the claimed epoch's snapshot.
        const auto snapshot = archive.Get(response.epoch);
        if (snapshot == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        snapshot->QueryVector(request.user, &q);
        // Mode-matched oracle, both exact: the batched path re-ranks
        // with the full-width dot (bitwise equal to brute force), the
        // per-query path assembles TA's three partial sums.
        const auto expected =
            use_batch_ta
                ? recommend::BruteForceSearch(&snapshot->space())
                      .Search(q, request.n, request.user)
                : snapshot->searcher().Search(q, request.n,
                                              request.user);
        if (expected.size() != response.items.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < expected.size(); ++j) {
          if (response.items[j].event != expected[j].pair.event ||
              response.items[j].partner != expected[j].pair.partner ||
              response.items[j].score != expected[j].score) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }

  swapper.join();
  for (std::thread& thread : query_threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  const obs::MetricsSnapshot stats = service.metrics()->Snapshot();
  const uint64_t queries =
      CounterValue(stats, "gemrec_service_queries_total");
  const uint64_t cache_hits =
      CounterValue(stats, "gemrec_service_cache_hits_total");
  EXPECT_EQ(queries, kQueryThreads * kQueriesPerThread);
  EXPECT_EQ(CounterValue(stats, "gemrec_service_publishes_total"),
            kSwaps + 1);
  EXPECT_GT(cache_hits, 0u)
      << "cache never hit: the churn scenario did not exercise it";
  EXPECT_LT(cache_hits, queries);

  // After the dust settles the service serves the final epoch.
  EXPECT_TRUE(swapping_done.load(std::memory_order_acquire));
  QueryRequest request;
  request.user = 1;
  request.n = 10;
  request.bypass_cache = true;
  EXPECT_EQ(service.Query(request).epoch, kSwaps + 1);
}

TEST(SnapshotSwapStressTest, QueriesRaceSwapsWithCacheChurn) {
  RunChurn(/*use_batch_ta=*/true);
}

TEST(SnapshotSwapStressTest, QueriesRaceSwapsWithCacheChurnExactTa) {
  RunChurn(/*use_batch_ta=*/false);
}

TEST(SnapshotSwapStressTest, RetiredSnapshotsAreReclaimed) {
  // Swap repeatedly with queries in flight; once everything drains,
  // only the archive's references keep old snapshots alive — dropping
  // them must free every retired snapshot (refcount retirement leaks
  // nothing).
  ServiceOptions options;
  options.num_workers = 2;
  RecommendationService service(options);
  SnapshotOptions snapshot_options;
  SnapshotBuilder builder(*RandomStore(29), AllEvents(), kNumUsers,
                          snapshot_options);

  std::vector<std::weak_ptr<const ModelSnapshot>> watchers;
  for (uint32_t s = 0; s < 6; ++s) {
    auto snapshot = builder.Build();
    watchers.emplace_back(snapshot);
    service.Publish(std::move(snapshot));
    for (uint32_t u = 0; u < 4; ++u) {
      QueryRequest request;
      request.user = u;
      request.n = 5;
      EXPECT_EQ(service.Query(request).epoch, s + 1);
    }
  }
  // All but the live (last) snapshot must be gone. Query() returns
  // when a worker completes the promise inside ServeBatch, a few
  // instructions before that worker drops its snapshot reference at
  // the end of its loop iteration — so poll briefly instead of racing
  // that window (a real leak never expires and still fails here).
  auto expires = [](const std::weak_ptr<const ModelSnapshot>& watcher) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!watcher.expired() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return watcher.expired();
  };
  for (size_t s = 0; s + 1 < watchers.size(); ++s) {
    EXPECT_TRUE(expires(watchers[s])) << "epoch " << s + 1 << " leaked";
  }
  EXPECT_FALSE(watchers.back().expired());
}

}  // namespace
}  // namespace gemrec::serving
