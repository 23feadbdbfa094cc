// Functional coverage of the serving engine: snapshot publication,
// query correctness against the raw batch-walk index, cache behaviour across
// swaps, screening on submit (inline hits and bad requests), batching,
// and shutdown draining.

#include "serving/recommendation_service.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/brute_force.h"
#include "serving/snapshot_builder.h"
#include "../testing/metrics.h"

namespace gemrec::serving {
namespace {

using testing::CounterValue;

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

std::shared_ptr<ModelSnapshot> MakeSnapshot(
    const embedding::EmbeddingStore& store, uint32_t num_users,
    uint32_t num_events, uint32_t top_k = 0) {
  SnapshotOptions options;
  options.top_k_events_per_partner = top_k;
  return std::make_shared<ModelSnapshot>(store, AllEvents(num_events),
                                         num_users, options);
}

TEST(RecommendationServiceTest, QueryMatchesDirectTaSearch) {
  auto store = RandomStore(20, 15, 8, 1);
  auto snapshot = MakeSnapshot(*store, 20, 15);

  ServiceOptions options;
  options.num_workers = 2;
  RecommendationService service(options);
  service.Publish(snapshot);

  // Answers and certified bounds must be exactly what a direct
  // single-query call of the snapshot's batch walk returns.
  std::vector<float> q;
  recommend::BatchTaSearch::Workspace workspace;
  std::vector<recommend::SearchHit> expected;
  for (ebsn::UserId u = 0; u < 20; ++u) {
    QueryRequest request;
    request.user = u;
    request.n = 7;
    request.filter_hash = snapshot->pool_hash();
    const QueryResponse response = service.Query(request);
    EXPECT_EQ(response.epoch, 1u);

    snapshot->QueryVector(u, &q);
    const recommend::BatchQuery query{q.data(), 7, u};
    recommend::SearchStats stats;
    snapshot->batch_searcher()->SearchBatch(&query, 1, &expected, nullptr,
                                            &workspace, &stats);
    ASSERT_EQ(response.items.size(), expected.size()) << "u=" << u;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.items[i].event, expected[i].pair.event);
      EXPECT_EQ(response.items[i].partner, expected[i].pair.partner);
      EXPECT_EQ(response.items[i].score, expected[i].score);
    }
    EXPECT_EQ(response.ta_bound, stats.unreturned_bound) << "u=" << u;
  }
}

TEST(RecommendationServiceTest, BatchedQueryMatchesBruteForceExactly) {
  // The quantized batched retrieval with exact fp32 re-rank must be
  // score-identical to brute force (it runs the same full-width kernel
  // over the same points).
  auto store = RandomStore(20, 15, 8, 1);
  auto snapshot = MakeSnapshot(*store, 20, 15);

  ServiceOptions options;
  options.num_workers = 2;
  RecommendationService service(options);
  service.Publish(snapshot);

  recommend::BruteForceSearch oracle(&snapshot->space());
  std::vector<float> q;
  for (ebsn::UserId u = 0; u < 20; ++u) {
    QueryRequest request;
    request.user = u;
    request.n = 7;
    request.bypass_cache = true;
    const QueryResponse response = service.Query(request);
    EXPECT_FALSE(response.cache_hit);
    EXPECT_GT(response.stats.points_examined, 0u) << "u=" << u;

    snapshot->QueryVector(u, &q);
    const auto expected = oracle.Search(q, 7, u);
    ASSERT_EQ(response.items.size(), expected.size()) << "u=" << u;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.items[i].score, expected[i].score)
          << "u=" << u << " rank " << i;
    }
  }
}

TEST(RecommendationServiceTest, RepeatQueryHitsTheCache) {
  auto store = RandomStore(10, 10, 6, 2);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));

  QueryRequest request;
  request.user = 3;
  request.n = 5;
  const QueryResponse first = service.Query(request);
  EXPECT_FALSE(first.cache_hit);
  const QueryResponse second = service.Query(request);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.items.size(), first.items.size());
  for (size_t i = 0; i < first.items.size(); ++i) {
    EXPECT_EQ(second.items[i].event, first.items[i].event);
    EXPECT_EQ(second.items[i].partner, first.items[i].partner);
    EXPECT_EQ(second.items[i].score, first.items[i].score);
  }
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_cache_hits_total"),
            1u);
}

TEST(RecommendationServiceTest, BypassCacheAlwaysRecomputes) {
  auto store = RandomStore(10, 10, 6, 3);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  QueryRequest request;
  request.user = 1;
  request.n = 4;
  request.bypass_cache = true;
  EXPECT_FALSE(service.Query(request).cache_hit);
  EXPECT_FALSE(service.Query(request).cache_hit);
  // Bypassed queries must not have populated the cache either.
  request.bypass_cache = false;
  EXPECT_FALSE(service.Query(request).cache_hit);
}

TEST(RecommendationServiceTest, SwapInvalidatesCacheAndBumpsEpoch) {
  auto store_a = RandomStore(12, 10, 6, 4);
  auto store_b = RandomStore(12, 10, 6, 5);  // different model
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store_a, 12, 10));

  QueryRequest request;
  request.user = 2;
  request.n = 6;
  const QueryResponse before = service.Query(request);
  EXPECT_EQ(before.epoch, 1u);
  EXPECT_TRUE(service.Query(request).cache_hit);  // warm

  auto snapshot_b = MakeSnapshot(*store_b, 12, 10);
  EXPECT_EQ(service.Publish(snapshot_b), 2u);

  const QueryResponse after = service.Query(request);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_FALSE(after.cache_hit)
      << "cache returned an entry computed on a retired snapshot";
  // The new snapshot really is the one answering. Brute force on the
  // new space is bitwise-identical to the batched path's fp32 re-rank.
  std::vector<float> q;
  snapshot_b->QueryVector(2, &q);
  recommend::BruteForceSearch oracle(&snapshot_b->space());
  const auto expected = oracle.Search(q, 6, 2);
  ASSERT_EQ(after.items.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after.items[i].score, expected[i].score);
  }
}

TEST(RecommendationServiceTest, SnapshotRetiresOnlyAfterSwap) {
  auto store = RandomStore(8, 8, 4, 6);
  RecommendationService service(ServiceOptions{});
  auto first = MakeSnapshot(*store, 8, 8);
  std::weak_ptr<ModelSnapshot> watch = first;
  service.Publish(std::move(first));
  EXPECT_FALSE(watch.expired());
  service.Publish(MakeSnapshot(*store, 8, 8));
  // No queries in flight: the retired snapshot must be destroyed as
  // soon as the swap drops the publish slot's reference.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_publishes_total"),
            2u);
}

TEST(RecommendationServiceTest, SubmittedBeforePublishServedAfter) {
  auto store = RandomStore(6, 6, 4, 7);
  ServiceOptions options;
  options.num_workers = 1;
  RecommendationService service(options);
  QueryRequest request;
  request.user = 0;
  request.n = 3;
  std::future<QueryResponse> pending = service.Submit(request);
  EXPECT_EQ(pending.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "query answered before any model was published";
  service.Publish(MakeSnapshot(*store, 6, 6));
  const QueryResponse response = pending.get();
  EXPECT_EQ(response.epoch, 1u);
  EXPECT_FALSE(response.items.empty());
}

TEST(RecommendationServiceTest, DestructorDrainsPendingRequests) {
  auto store = RandomStore(10, 10, 6, 8);
  std::vector<std::future<QueryResponse>> futures;
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.max_batch = 4;
    RecommendationService service(options);
    service.Publish(MakeSnapshot(*store, 10, 10));
    for (uint32_t i = 0; i < 40; ++i) {
      QueryRequest request;
      request.user = i % 10;
      request.n = 5;
      futures.push_back(service.Submit(request));
    }
  }  // destructor must fulfil every promise
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    EXPECT_EQ(response.epoch, 1u);
    EXPECT_FALSE(response.items.empty());
  }
}

TEST(RecommendationServiceTest, BatchesAreCountedAndBounded) {
  auto store = RandomStore(10, 10, 6, 9);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 8;
  RecommendationService service(options);
  service.Publish(MakeSnapshot(*store, 10, 10));
  std::vector<std::future<QueryResponse>> futures;
  for (uint32_t i = 0; i < 64; ++i) {
    QueryRequest request;
    request.user = i % 10;
    request.n = 3;
    request.bypass_cache = true;
    futures.push_back(service.Submit(request));
  }
  for (auto& f : futures) f.get();
  const obs::MetricsSnapshot stats = service.metrics()->Snapshot();
  EXPECT_EQ(CounterValue(stats, "gemrec_service_queries_total"), 64u);
  const uint64_t batches =
      CounterValue(stats, "gemrec_service_batches_total");
  EXPECT_GE(batches, 64u / options.max_batch);
  EXPECT_LE(batches, 64u);
}

TEST(RecommendationServiceTest, SaturationGaugesTrackQueueAndInFlight) {
  auto store = RandomStore(10, 10, 6, 12);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  RecommendationService service(options);

  // No snapshot yet: the lone worker pops one batch (whatever had
  // arrived when it woke, capped at max_batch) and parks on the
  // snapshot wait; everything else sits in the queue — exactly the
  // saturation picture the net layer's admission control reads.
  std::vector<std::future<QueryResponse>> futures;
  for (uint32_t i = 0; i < 10; ++i) {
    QueryRequest request;
    request.user = i;
    request.n = 3;
    futures.push_back(service.Submit(request));
  }
  const auto settled = [&] {
    const uint64_t in_flight = service.InFlight();
    return in_flight >= 1 && in_flight <= options.max_batch &&
           service.QueueDepth() == 10 - in_flight;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t in_flight = service.InFlight();
  EXPECT_GE(in_flight, 1u);
  EXPECT_LE(in_flight, options.max_batch);
  EXPECT_EQ(service.QueueDepth(), 10 - in_flight);

  service.Publish(MakeSnapshot(*store, 10, 10));
  for (auto& f : futures) f.get();
  // in_flight is decremented after the futures resolve; poll briefly.
  while ((service.InFlight() != 0 || service.QueueDepth() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.InFlight(), 0u);
  EXPECT_EQ(service.QueueDepth(), 0u);
  EXPECT_EQ(CounterValue(*service.metrics(), "gemrec_service_queries_total"),
            10u);
}

TEST(RecommendationServiceTest, SubmitAsyncDeliversCallback) {
  auto store = RandomStore(10, 10, 6, 13);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));

  std::promise<QueryResponse> delivered;
  QueryRequest request;
  request.user = 4;
  request.n = 5;
  service.SubmitAsync(request, [&delivered](QueryResponse response) {
    delivered.set_value(std::move(response));
  });
  const QueryResponse response = delivered.get_future().get();
  EXPECT_EQ(response.epoch, 1u);
  EXPECT_FALSE(response.items.empty());
  const QueryResponse direct = service.Query(request);
  ASSERT_EQ(response.items.size(), direct.items.size());
  for (size_t i = 0; i < direct.items.size(); ++i) {
    EXPECT_EQ(response.items[i].event, direct.items[i].event);
  }
}

TEST(RecommendationServiceTest, SubmitAsyncCallbackFiresOnShutdown) {
  // Destroying the service with parked async work must still invoke
  // every callback (the net layer frees its connection bookkeeping off
  // this guarantee).
  std::promise<QueryResponse> delivered;
  {
    ServiceOptions options;
    options.num_workers = 1;
    RecommendationService service(options);  // never published
    QueryRequest request;
    request.user = 1;
    request.n = 3;
    service.SubmitAsync(request, [&delivered](QueryResponse response) {
      delivered.set_value(std::move(response));
    });
  }
  const QueryResponse response = delivered.get_future().get();
  EXPECT_EQ(response.epoch, 0u);  // served with no snapshot
  EXPECT_TRUE(response.items.empty());
  // Shutdown, not a real empty result.
  EXPECT_EQ(response.code, ResponseCode::kShuttingDown);
}

TEST(RecommendationServiceTest, SubmitRacingShutdownIsRejectedNotFatal) {
  // Regression: Enqueue used to GEMREC_CHECK(!shutdown_), so a Submit
  // racing shutdown aborted the whole server. Now the late request is
  // completed with kShuttingDown. The submitter thread hammers Query
  // while the main thread shuts the service down mid-stream — under
  // TSan this also proves the handoff is race-free.
  auto store = RandomStore(10, 10, 6, 21);
  ServiceOptions options;
  options.num_workers = 2;
  RecommendationService service(options);
  service.Publish(MakeSnapshot(*store, 10, 10));

  std::atomic<bool> saw_rejected{false};
  std::atomic<uint64_t> submitted{0};
  std::thread submitter([&] {
    QueryRequest request;
    request.n = 3;
    request.bypass_cache = true;
    while (!saw_rejected.load(std::memory_order_relaxed)) {
      request.user = static_cast<ebsn::UserId>(
          submitted.fetch_add(1, std::memory_order_relaxed) % 10);
      const QueryResponse response = service.Query(request);
      if (response.code == ResponseCode::kShuttingDown) {
        EXPECT_TRUE(response.items.empty());
        saw_rejected.store(true, std::memory_order_relaxed);
      }
    }
  });
  // Let the submitter get going, then yank the service out from under
  // it (the object stays alive; only the workers stop).
  while (submitted.load(std::memory_order_relaxed) < 5) {
    std::this_thread::yield();
  }
  service.Shutdown();
  submitter.join();

  EXPECT_TRUE(saw_rejected.load());
  EXPECT_GE(CounterValue(*service.metrics(),
                         "gemrec_service_rejected_total"),
            1u);
  // Shutdown is idempotent: a second call (and the destructor's) must
  // be harmless.
  service.Shutdown();
}

uint64_t QueueWaits(const RecommendationService& service) {
  return service.metrics()
      ->GetHistogram("gemrec_service_queue_wait_us")
      ->Snapshot()
      .count;
}

TEST(ScreenOnSubmitTest, HitCompletesOnTheCallingThreadBeforeReturn) {
  auto store = RandomStore(10, 10, 6, 31);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  service.Publish(MakeSnapshot(*store, 10, 10));
  QueryRequest request;
  request.user = 3;
  request.n = 4;
  const QueryResponse miss = service.Query(request);  // warms epoch 2
  ASSERT_FALSE(miss.cache_hit);
  const uint64_t batches =
      CounterValue(*service.metrics(), "gemrec_service_batches_total");
  const uint64_t waits = QueueWaits(service);

  bool completed = false;
  std::thread::id completed_on;
  QueryResponse hit;
  service.SubmitAsync(request, [&](QueryResponse response) {
    completed = true;
    completed_on = std::this_thread::get_id();
    hit = std::move(response);
  });
  ASSERT_TRUE(completed) << "a cache hit did not complete inside SubmitAsync";
  EXPECT_EQ(completed_on, std::this_thread::get_id());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.epoch, 2u);
  EXPECT_EQ(hit.ta_bound, miss.ta_bound);
  ASSERT_EQ(hit.items.size(), miss.items.size());
  for (size_t i = 0; i < miss.items.size(); ++i) {
    EXPECT_EQ(hit.items[i].event, miss.items[i].event);
    EXPECT_EQ(hit.items[i].partner, miss.items[i].partner);
    EXPECT_EQ(hit.items[i].score, miss.items[i].score);
  }
  EXPECT_EQ(CounterValue(*service.metrics(), "gemrec_service_batches_total"),
            batches);
  EXPECT_EQ(QueueWaits(service), waits);
}

TEST(ScreenOnSubmitTest, BadRequestCompletesBeforeReturn) {
  auto store = RandomStore(10, 10, 6, 32);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  QueryRequest out_of_range;
  out_of_range.user = 10;
  QueryRequest empty_group;
  empty_group.kind = recommend::QueryKind::kGroup;
  for (const QueryRequest& request : {out_of_range, empty_group}) {
    bool completed = false;
    service.SubmitAsync(request, [&](QueryResponse response) {
      completed = true;
      EXPECT_EQ(response.code, ResponseCode::kBadRequest);
      EXPECT_EQ(response.epoch, 1u);
      EXPECT_TRUE(response.items.empty());
    });
    EXPECT_TRUE(completed);
  }
  EXPECT_EQ(CounterValue(*service.metrics(),
                         "gemrec_service_bad_requests_total"),
            2u);
  EXPECT_EQ(CounterValue(*service.metrics(), "gemrec_service_batches_total"),
            0u);
  EXPECT_EQ(QueueWaits(service), 0u);
}

TEST(ScreenOnSubmitTest, WouldBeHitBeforeFirstPublishWaitsThenIsServed) {
  // One worker taking one request per visit: the first copy parks the
  // worker on the snapshot wait, the second stays queued unscreened.
  // After the publish the worker answers the first as a miss and then
  // screens the second itself, finding the first's cache entry.
  auto store = RandomStore(10, 10, 6, 33);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  RecommendationService service(options);
  QueryRequest request;
  request.user = 2;
  request.n = 5;
  std::future<QueryResponse> first = service.Submit(request);
  std::future<QueryResponse> second = service.Submit(request);
  EXPECT_EQ(second.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "answered before any model was published";
  service.Publish(MakeSnapshot(*store, 10, 10));
  const QueryResponse miss = first.get();
  const QueryResponse hit = second.get();
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.epoch, 1u);
  ASSERT_EQ(hit.items.size(), miss.items.size());
  for (size_t i = 0; i < miss.items.size(); ++i) {
    EXPECT_EQ(hit.items[i].score, miss.items[i].score);
  }
}

TEST(ScreenOnSubmitTest, WouldBeHitAfterShutdownIsRefused) {
  auto store = RandomStore(10, 10, 6, 34);
  RecommendationService service(ServiceOptions{});
  service.Publish(MakeSnapshot(*store, 10, 10));
  QueryRequest request;
  request.user = 1;
  request.n = 3;
  service.Query(request);
  ASSERT_TRUE(service.Query(request).cache_hit);
  service.Shutdown();
  bool completed = false;
  service.SubmitAsync(request, [&](QueryResponse response) {
    completed = true;
    EXPECT_EQ(response.code, ResponseCode::kShuttingDown);
    EXPECT_FALSE(response.cache_hit);
    EXPECT_TRUE(response.items.empty());
  });
  EXPECT_TRUE(completed);
  EXPECT_EQ(CounterValue(*service.metrics(), "gemrec_service_rejected_total"),
            1u);
}

TEST(ScreenOnSubmitTest, EveryRequestIsCountedOnce) {
  auto store = RandomStore(10, 10, 6, 35);
  ServiceOptions options;
  options.num_workers = 2;
  RecommendationService service(options);
  QueryRequest miss;
  miss.user = 4;
  miss.n = 3;
  QueryRequest bad;
  bad.user = 99;
  QueryRequest group;
  group.kind = recommend::QueryKind::kGroup;
  group.user = 1;
  group.group = {2, 3};
  std::future<QueryResponse> before_publish = service.Submit(group);
  service.Publish(MakeSnapshot(*store, 10, 10));
  EXPECT_EQ(before_publish.get().code, ResponseCode::kOk);
  EXPECT_FALSE(service.Query(miss).cache_hit);
  EXPECT_TRUE(service.Query(miss).cache_hit);
  EXPECT_EQ(service.Query(bad).code, ResponseCode::kBadRequest);
  const obs::MetricsSnapshot stats = service.metrics()->Snapshot();
  EXPECT_EQ(CounterValue(stats, "gemrec_service_queries_total"), 4u);
  EXPECT_EQ(CounterValue(stats, "gemrec_query_kind_total{kind=\"partner\"}"),
            3u);
  EXPECT_EQ(CounterValue(stats, "gemrec_query_kind_total{kind=\"group\"}"),
            1u);
  EXPECT_EQ(CounterValue(stats, "gemrec_service_cache_hits_total"), 1u);
  EXPECT_EQ(CounterValue(stats, "gemrec_service_bad_requests_total"), 1u);
}

TEST(ScreenOnSubmitTest, QueuedMissIsCheckedAgainstTheSnapshotServingIt) {
  // A miss screened against a 20-user snapshot waits in the queue while
  // a reload publishes a 10-user one. The worker serves it under the
  // new snapshot, so user 15 must come back kBadRequest, not index
  // past the new user matrix.
  auto big = RandomStore(20, 10, 6, 36);
  auto small = RandomStore(10, 10, 6, 37);
  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  RecommendationService service(options);
  service.Publish(MakeSnapshot(*big, 20, 10));

  std::promise<void> entered, release;
  std::shared_future<void> released = release.get_future().share();
  QueryRequest blocker;
  blocker.user = 1;
  blocker.bypass_cache = true;
  service.SubmitAsync(blocker, [&entered, released](QueryResponse) {
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();

  QueryRequest request;
  request.user = 15;
  request.n = 3;
  std::future<QueryResponse> queued = service.Submit(request);
  service.Publish(MakeSnapshot(*small, 10, 10));
  release.set_value();
  const QueryResponse response = queued.get();
  EXPECT_EQ(response.code, ResponseCode::kBadRequest);
  EXPECT_EQ(response.epoch, 2u);
  const obs::MetricsSnapshot stats = service.metrics()->Snapshot();
  EXPECT_EQ(CounterValue(stats, "gemrec_service_queries_total"), 2u);
  EXPECT_EQ(CounterValue(stats, "gemrec_service_bad_requests_total"), 1u);
}

TEST(ResultCacheTest, EpochMismatchNeverHits) {
  ResultCache cache(16, 2);
  const CacheKey key{1, 10, 42};
  std::vector<recommend::Recommendation> items{{3, 4, 1.5f}};
  cache.Insert(key, /*epoch=*/1, items);
  std::vector<recommend::Recommendation> out;
  EXPECT_TRUE(cache.Lookup(key, 1, &out));
  EXPECT_FALSE(cache.Lookup(key, 2, &out))
      << "stale-epoch entry served after a swap";
  // The stale entry was evicted, not resurrected for the old epoch.
  EXPECT_FALSE(cache.Lookup(key, 1, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, DistinguishesFilterHashes) {
  ResultCache cache(16, 2);
  std::vector<recommend::Recommendation> weekend{{1, 2, 0.5f}};
  std::vector<recommend::Recommendation> all{{7, 8, 0.9f}};
  cache.Insert(CacheKey{5, 10, 111}, 1, weekend);
  cache.Insert(CacheKey{5, 10, 222}, 1, all);
  std::vector<recommend::Recommendation> out;
  ASSERT_TRUE(cache.Lookup(CacheKey{5, 10, 111}, 1, &out));
  EXPECT_EQ(out[0].event, 1u);
  ASSERT_TRUE(cache.Lookup(CacheKey{5, 10, 222}, 1, &out));
  EXPECT_EQ(out[0].event, 7u);
}

TEST(ResultCacheTest, GroupsWithOneMemberDigestDoNotShareAnEntry) {
  QueryRequest stored;
  stored.user = 7;
  stored.kind = recommend::QueryKind::kGroup;
  stored.group = {4060, 59296, 0};
  QueryRequest other = stored;
  other.group = {3693, 63270, 19147227};
  // The two member lists collide under the cache's FNV-1a digest.
  ASSERT_EQ(CacheKey::HashGroup(stored.group),
            CacheKey::HashGroup(other.group));

  ResultCache cache(16, 2);
  cache.Insert(CacheKey::For(stored), 1, {{3, 0, 1.5f}});
  std::vector<recommend::Recommendation> out;
  EXPECT_FALSE(cache.Lookup(CacheKey::For(other), 1, &out))
      << "a group's cached answer was served for a different group";
  ASSERT_TRUE(cache.Lookup(CacheKey::For(stored), 1, &out));
  EXPECT_EQ(out[0].event, 3u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(4, 1);  // single shard, capacity 4
  std::vector<recommend::Recommendation> items{{0, 0, 0.0f}};
  for (uint32_t u = 0; u < 4; ++u) {
    cache.Insert(CacheKey{u, 1, 0}, 1, items);
  }
  std::vector<recommend::Recommendation> out;
  // Touch user 0 so user 1 becomes the LRU tail.
  ASSERT_TRUE(cache.Lookup(CacheKey{0, 1, 0}, 1, &out));
  cache.Insert(CacheKey{9, 1, 0}, 1, items);
  EXPECT_TRUE(cache.Lookup(CacheKey{0, 1, 0}, 1, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{1, 1, 0}, 1, &out));
  EXPECT_EQ(cache.size(), 4u);
}

TEST(ResultCacheTest, StaleEpochInsertNeverDowngradesFreshEntry) {
  ResultCache cache(16, 2);
  const CacheKey key{1, 10, 42};
  std::vector<recommend::Recommendation> fresh{{5, 6, 2.0f}};
  std::vector<recommend::Recommendation> stale{{9, 9, 0.1f}};
  cache.Insert(key, /*epoch=*/3, fresh);
  // A slow worker that acquired the snapshot before a swap finishes
  // late and inserts results computed on the retired epoch.
  cache.Insert(key, /*epoch=*/2, stale);
  std::vector<recommend::Recommendation> out;
  ASSERT_TRUE(cache.Lookup(key, 3, &out))
      << "fresh entry was downgraded by a retired-epoch insert";
  EXPECT_EQ(out[0].event, 5u);
  // Equal-epoch reinsert still refreshes the entry.
  cache.Insert(key, /*epoch=*/3, stale);
  ASSERT_TRUE(cache.Lookup(key, 3, &out));
  EXPECT_EQ(out[0].event, 9u);
}

TEST(ResultCacheTest, ResidencyNeverExceedsCapacity) {
  // Capacity smaller than the requested shard count is the historical
  // trap: a naive 1-per-shard floor would admit num_shards entries.
  std::vector<recommend::Recommendation> items{{0, 0, 0.0f}};
  for (const auto& [capacity, shards] :
       std::vector<std::pair<size_t, size_t>>{
           {1, 8}, {3, 8}, {5, 4}, {7, 3}, {16, 5}, {64, 8}}) {
    ResultCache cache(capacity, shards);
    for (uint32_t u = 0; u < 4 * static_cast<uint32_t>(capacity) + 32;
         ++u) {
      cache.Insert(CacheKey{u, 1, 0}, 1, items);
      EXPECT_LE(cache.size(), capacity)
          << "capacity " << capacity << " shards " << shards;
    }
    EXPECT_EQ(cache.capacity(), capacity);
  }
}

TEST(ResultCacheTest, FullCapacityIsUsableAcrossShards) {
  // The exact split (floor + remainder) must not strand capacity: with
  // enough distinct keys the cache holds exactly `capacity` entries.
  ResultCache cache(10, 4);
  std::vector<recommend::Recommendation> items{{0, 0, 0.0f}};
  for (uint32_t u = 0; u < 4096; ++u) {
    cache.Insert(CacheKey{u, 1, 0}, 1, items);
  }
  EXPECT_EQ(cache.size(), 10u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0, 4);
  std::vector<recommend::Recommendation> items{{1, 1, 1.0f}};
  cache.Insert(CacheKey{1, 1, 0}, 1, items);
  std::vector<recommend::Recommendation> out;
  EXPECT_FALSE(cache.Lookup(CacheKey{1, 1, 0}, 1, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SnapshotBuilderTest, FoldInChangesNextSnapshotOnly) {
  auto store = RandomStore(10, 10, 6, 11);
  SnapshotOptions snapshot_options;
  snapshot_options.top_k_events_per_partner = 0;
  SnapshotBuilder builder(*store, AllEvents(10), 10, snapshot_options);
  auto before = builder.Build();

  embedding::OnlineUpdateOptions update;
  update.iterations = 30;
  ASSERT_TRUE(builder.RecordAttendance(/*user=*/2, /*event=*/3, update).ok());
  auto after = builder.Build();

  // The already-built snapshot is untouched by the staging update...
  for (uint32_t f = 0; f < before->store().dim(); ++f) {
    EXPECT_EQ(before->store().VectorOf(graph::NodeType::kUser, 2)[f],
              store->VectorOf(graph::NodeType::kUser, 2)[f]);
  }
  // ...while the new one reflects it.
  bool changed = false;
  for (uint32_t f = 0; f < after->store().dim(); ++f) {
    changed |= after->store().VectorOf(graph::NodeType::kUser, 2)[f] !=
               before->store().VectorOf(graph::NodeType::kUser, 2)[f];
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace gemrec::serving
