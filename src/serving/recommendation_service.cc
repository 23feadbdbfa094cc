#include "serving/recommendation_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace gemrec::serving {

RecommendationService::RecommendationService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, options.cache_shards),
      registry_(std::make_unique<obs::MetricsRegistry>()) {
  queries_ = registry_->GetCounter(
      "gemrec_service_queries_total",
      "Queries served (cache hits included); bumped by workers.");
  cache_hits_ = registry_->GetCounter(
      "gemrec_service_cache_hits_total",
      "Queries answered from the epoch-stamped result cache.");
  batches_ = registry_->GetCounter(
      "gemrec_service_batches_total",
      "Queue visits that drained at least one request.");
  publishes_ = registry_->GetCounter(
      "gemrec_service_publishes_total",
      "Snapshot swaps (model epochs made live).");
  reload_failures_ = registry_->GetCounter(
      "gemrec_service_reload_failures_total",
      "Model reloads that failed while the previous snapshot kept "
      "serving.");
  rejected_ = registry_->GetCounter(
      "gemrec_service_rejected_total",
      "Requests refused because they arrived during/after Shutdown.");
  bad_requests_ = registry_->GetCounter(
      "gemrec_service_bad_requests_total",
      "Requests refused as semantically invalid against the live "
      "snapshot (out-of-range user or group member, empty group).");
  kind_partner_ = registry_->GetCounter(
      "gemrec_query_kind_total{kind=\"partner\"}",
      "Queries served by kind: joint event-partner ranking (Eqn 8).");
  kind_group_ = registry_->GetCounter(
      "gemrec_query_kind_total{kind=\"group\"}",
      "Queries served by kind: group-event ranking (aggregated "
      "pairwise terms over a fixed partner set).");
  kind_reciprocal_ = registry_->GetCounter(
      "gemrec_query_kind_total{kind=\"reciprocal\"}",
      "Queries served by kind: reciprocal partner ranking "
      "(min of the two directed scores).");
  queue_depth_ = registry_->GetGauge(
      "gemrec_service_queue_depth",
      "Requests enqueued but not yet claimed by a worker.");
  in_flight_ = registry_->GetGauge(
      "gemrec_service_in_flight",
      "Requests claimed by workers and currently being served.");
  queue_wait_us_ = registry_->GetHistogram(
      "gemrec_service_queue_wait_us",
      "Microseconds a request waited in the queue before a worker "
      "claimed it.");
  ta_search_us_ = registry_->GetHistogram(
      "gemrec_service_ta_search_us",
      "Microseconds one TA top-n search took on a worker (cache "
      "misses only; batched-mode entries are the per-miss share of "
      "their batch).");
  quantize_scan_us_ = registry_->GetHistogram(
      "gemrec_service_quantize_scan_us",
      "Microseconds one batch spent in the quantized stage (query "
      "quantization, batched components, sorts, TA walk). Batched "
      "retrieval only.");
  rerank_us_ = registry_->GetHistogram(
      "gemrec_service_rerank_us",
      "Microseconds one batch spent re-scoring survivors in exact "
      "fp32. Batched retrieval only.");

  options_.num_workers = std::max(1u, options_.num_workers);
  options_.max_batch = std::max<size_t>(1, options_.max_batch);
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RecommendationService::~RecommendationService() { Shutdown(); }

void RecommendationService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      shutdown_ = true;
    }
    queue_ready_.notify_all();
    // Taking snapshot_mu_ before notifying closes the race with a
    // worker that evaluated the snapshot-wait predicate (shutdown_
    // still false) but has not blocked yet: it holds snapshot_mu_
    // until the wait parks, so this lock acquisition orders the
    // notification after it.
    { std::lock_guard<std::mutex> lock(snapshot_mu_); }
    snapshot_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  });
}

uint64_t RecommendationService::Publish(
    std::shared_ptr<ModelSnapshot> snapshot) {
  GEMREC_CHECK(snapshot != nullptr);
  // Publish-once: a snapshot is immutable while readable, so stamping
  // the epoch of an already-published (possibly still-draining)
  // snapshot would be a data race. Build a fresh one per publish.
  GEMREC_CHECK(snapshot->epoch_ == 0)
      << "snapshot published twice (epoch " << snapshot->epoch_ << ")";
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    epoch = next_epoch_++;
    // Stamp before the swap becomes visible: any reader that sees this
    // snapshot sees its final epoch.
    snapshot->epoch_ = epoch;
    snapshot_ = std::move(snapshot);
  }
  publishes_->Increment();
  snapshot_ready_.notify_all();
  return epoch;
}

std::shared_ptr<const ModelSnapshot>
RecommendationService::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::future<QueryResponse> RecommendationService::Submit(
    const QueryRequest& request) {
  PendingRequest pending;
  pending.request = request;
  std::future<QueryResponse> future = pending.promise.get_future();
  Enqueue(std::move(pending));
  return future;
}

void RecommendationService::SubmitAsync(const QueryRequest& request,
                                        ResponseCallback callback) {
  GEMREC_CHECK(callback != nullptr);
  PendingRequest pending;
  pending.request = request;
  pending.callback = std::move(callback);
  Enqueue(std::move(pending));
}

void RecommendationService::Enqueue(PendingRequest pending) {
  pending.enqueue_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!shutdown_) {
      queue_.push_back(std::move(pending));
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      queue_ready_.notify_one();
      return;
    }
  }
  // Racing Shutdown (a SubmitAsync from a net worker while the server
  // tears down, say) must fail the one request, not abort the process:
  // complete it — outside queue_mu_, the callback may take other locks
  // — with an empty kShuttingDown response.
  rejected_->Increment();
  QueryResponse response;
  response.code = ResponseCode::kShuttingDown;
  pending.Complete(std::move(response));
}

QueryResponse RecommendationService::Query(const QueryRequest& request) {
  return Submit(request).get();
}

void RecommendationService::RecordReloadFailure() {
  reload_failures_->Increment();
}

void RecommendationService::WorkerLoop() {
  // Per-worker reusable state: after warm-up the TA query path makes
  // no heap allocation (scratch + hits keep their capacity).
  WorkerState state;
  std::vector<PendingRequest> batch;

  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_.wait(lock,
                        [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      const size_t take = std::min(options_.max_batch, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      in_flight_->Add(static_cast<int64_t>(take));
    }
    // Queue-wait latency, recorded outside the lock: how long each
    // claimed request sat unowned (the batching/saturation signal the
    // queue_depth gauge cannot show in time units).
    const auto claimed_at = std::chrono::steady_clock::now();
    for (const PendingRequest& pending : batch) {
      queue_wait_us_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              claimed_at - pending.enqueue_time)
              .count()));
    }

    // Acquire the serving snapshot once per batch: the whole batch is
    // answered under a single epoch. Blocks only before the FIRST
    // publish ever; a reload never blocks queries, it just swaps what
    // the next batch acquires.
    std::shared_ptr<const ModelSnapshot> snapshot;
    {
      std::unique_lock<std::mutex> lock(snapshot_mu_);
      snapshot_ready_.wait(lock, [this] {
        if (snapshot_ != nullptr) return true;
        std::lock_guard<std::mutex> qlock(queue_mu_);
        return shutdown_;
      });
      snapshot = snapshot_;
    }
    if (snapshot == nullptr) {
      // Shutting down before any model was published: answer with
      // empty epoch-0 kShuttingDown responses rather than leaving
      // broken promises.
      for (PendingRequest& pending : batch) {
        rejected_->Increment();
        QueryResponse response;
        response.code = ResponseCode::kShuttingDown;
        pending.Complete(std::move(response));
      }
      in_flight_->Sub(static_cast<int64_t>(batch.size()));
      continue;
    }

    batches_->Increment();
    ServeBatch(&batch, *snapshot, &state);
    in_flight_->Sub(static_cast<int64_t>(batch.size()));
    // `snapshot` drops its reference here; if a Publish retired it
    // mid-batch and this was the last reader, it is destroyed now.
  }
}

void RecommendationService::CompleteMiss(
    PendingRequest* pending, QueryResponse response,
    const std::vector<recommend::SearchHit>& hits, uint64_t epoch) {
  const QueryRequest& request = pending->request;
  response.items.reserve(hits.size());
  for (const recommend::SearchHit& hit : hits) {
    response.items.push_back(recommend::Recommendation{
        hit.pair.event, hit.pair.partner, hit.score});
  }
  // The search's unreturned-score bound travels with the response (a
  // sharded coordinator needs it to certify merge completeness) and
  // into the cache, so a future hit replays the same certificate.
  response.ta_bound = response.stats.unreturned_bound;
  if (!request.bypass_cache) {
    cache_.Insert(CacheKey::For(request), epoch, response.items,
                  response.ta_bound);
  }
  pending->Complete(std::move(response));
}

/// Group and reciprocal queries, identical in both retrieval modes:
/// group scoring has no sorted-list structure to prune with (the
/// aggregate depends on the whole member set), so it scans the shard's
/// event slice exhaustively; reciprocal refinement runs on the exact
/// TA engine because its certificate compares reciprocal scores
/// against the forward bound in the engine's own A+B score domain —
/// the quantized path's flat re-rank domain differs by float rounding,
/// which would make the strict-inequality stopping rule unsound.
void RecommendationService::ServeSpecialKind(PendingRequest* pending,
                                             const ModelSnapshot& snapshot,
                                             WorkerState* state) {
  const uint64_t epoch = snapshot.epoch();
  const QueryRequest& request = pending->request;
  QueryResponse response;
  response.epoch = epoch;
  const CacheKey key = CacheKey::For(request);
  if (!request.bypass_cache &&
      cache_.Lookup(key, epoch, &response.items, &response.ta_bound)) {
    response.cache_hit = true;
    cache_hits_->Increment();
    pending->Complete(std::move(response));
    return;
  }

  // Semantic validation the wire decoder cannot do: ids must resolve
  // in the live snapshot's store. Typed kBadRequest, never a crash or
  // a silently-empty answer.
  const uint32_t user_rows =
      snapshot.store().CountOf(graph::NodeType::kUser);
  bool invalid = request.user >= user_rows;
  if (request.kind == recommend::QueryKind::kGroup) {
    invalid = invalid || request.group.empty();
    for (const ebsn::UserId m : request.group) {
      invalid = invalid || m >= user_rows;
    }
  }
  if (invalid) {
    bad_requests_->Increment();
    response.code = ResponseCode::kBadRequest;
    pending->Complete(std::move(response));
    return;
  }

  const auto search_start = std::chrono::steady_clock::now();
  if (request.kind == recommend::QueryKind::kGroup) {
    float bound = 0.0f;
    response.items = recommend::GroupTopEvents(
        snapshot.model(), snapshot.shard_events(), request.user,
        request.group, request.aggregator, request.n, &bound);
    response.stats.points_examined = snapshot.shard_events().size();
    response.stats.examined_fraction =
        snapshot.shard_events().empty() ? 0.0 : 1.0;
    response.stats.unreturned_bound = bound;
  } else {
    float bound = 0.0f;
    response.items = recommend::ReciprocalSearch(
        snapshot.model(), snapshot.searcher(), snapshot.space(),
        request.user, request.n, &state->recip, &bound, &response.stats);
  }
  ta_search_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - search_start)
          .count()));
  response.ta_bound = response.stats.unreturned_bound;
  if (!request.bypass_cache) {
    cache_.Insert(key, epoch, response.items, response.ta_bound);
  }
  pending->Complete(std::move(response));
}

void RecommendationService::ServeBatch(std::vector<PendingRequest>* batch,
                                       const ModelSnapshot& snapshot,
                                       WorkerState* state) {
  if (options_.use_batch_ta && snapshot.batch_searcher() != nullptr) {
    ServeBatchQuantized(batch, snapshot, state);
    return;
  }
  const uint64_t epoch = snapshot.epoch();
  const uint32_t user_rows = snapshot.store().CountOf(graph::NodeType::kUser);
  for (PendingRequest& pending : *batch) {
    const QueryRequest& request = pending.request;
    queries_->Increment();
    KindCounter(request.kind)->Increment();
    if (request.kind != recommend::QueryKind::kPartner) {
      ServeSpecialKind(&pending, snapshot, state);
      continue;
    }

    QueryResponse response;
    response.epoch = epoch;
    // An out-of-range user would index past the user matrix when the
    // query vector is built. Same typed kBadRequest contract as the
    // special kinds.
    if (request.user >= user_rows) {
      bad_requests_->Increment();
      response.code = ResponseCode::kBadRequest;
      pending.Complete(std::move(response));
      continue;
    }
    const CacheKey key = CacheKey::For(request);
    if (!request.bypass_cache &&
        cache_.Lookup(key, epoch, &response.items, &response.ta_bound)) {
      response.cache_hit = true;
      cache_hits_->Increment();
      pending.Complete(std::move(response));
      continue;
    }

    const auto search_start = std::chrono::steady_clock::now();
    snapshot.QueryVector(request.user, &state->query_vec);
    snapshot.searcher().SearchInto(state->query_vec, request.n,
                                   /*exclude_partner=*/request.user,
                                   &state->hits, &response.stats,
                                   &state->scratch);
    ta_search_us_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - search_start)
            .count()));
    CompleteMiss(&pending, std::move(response), state->hits, epoch);
  }
}

/// Batched path: answer cache hits first, then run every miss through
/// ONE BatchTaSearch traversal (shared component stage and sorted-list
/// walk, exact fp32 re-rank). Completions happen only after the whole
/// search so the per-worker staging buffers stay stable.
void RecommendationService::ServeBatchQuantized(
    std::vector<PendingRequest>* batch, const ModelSnapshot& snapshot,
    WorkerState* state) {
  const uint64_t epoch = snapshot.epoch();
  const uint32_t user_rows = snapshot.store().CountOf(graph::NodeType::kUser);
  state->miss_index.clear();
  for (size_t i = 0; i < batch->size(); ++i) {
    PendingRequest& pending = (*batch)[i];
    const QueryRequest& request = pending.request;
    queries_->Increment();
    KindCounter(request.kind)->Increment();
    if (request.kind != recommend::QueryKind::kPartner) {
      // Mode-independent kinds: served the same way as the exact path
      // (never through the batch engine), cache handling included.
      ServeSpecialKind(&pending, snapshot, state);
      continue;
    }

    QueryResponse response;
    response.epoch = epoch;
    if (request.user >= user_rows) {
      bad_requests_->Increment();
      response.code = ResponseCode::kBadRequest;
      pending.Complete(std::move(response));
      continue;
    }
    const CacheKey key = CacheKey::For(request);
    if (!request.bypass_cache &&
        cache_.Lookup(key, epoch, &response.items, &response.ta_bound)) {
      response.cache_hit = true;
      cache_hits_->Increment();
      pending.Complete(std::move(response));
      continue;
    }
    state->miss_index.push_back(i);
  }
  const size_t misses = state->miss_index.size();
  if (misses == 0) return;

  if (state->miss_queries.size() < misses) {
    state->miss_queries.resize(misses);
    state->miss_hits.resize(misses);
  }
  state->miss_batch.resize(misses);
  state->miss_stats.resize(misses);
  for (size_t m = 0; m < misses; ++m) {
    const QueryRequest& request = (*batch)[state->miss_index[m]].request;
    snapshot.QueryVector(request.user, &state->miss_queries[m]);
    state->miss_batch[m] =
        recommend::BatchQuery{state->miss_queries[m].data(), request.n,
                              /*exclude_partner=*/request.user};
  }

  recommend::BatchSearchStats batch_stats;
  snapshot.batch_searcher()->SearchBatch(
      state->miss_batch.data(), misses, state->miss_hits.data(),
      &batch_stats, &state->batch_ws, state->miss_stats.data());
  quantize_scan_us_->Record(batch_stats.quantize_scan_us);
  rerank_us_->Record(batch_stats.rerank_us);
  // Keep the per-query latency histogram meaningful in batched mode:
  // each miss is charged its share of the batch's search time.
  const uint64_t per_miss_us =
      (batch_stats.quantize_scan_us + batch_stats.rerank_us) / misses;
  for (size_t m = 0; m < misses; ++m) {
    PendingRequest& pending = (*batch)[state->miss_index[m]];
    ta_search_us_->Record(per_miss_us);
    QueryResponse response;
    response.epoch = epoch;
    response.stats = state->miss_stats[m];
    CompleteMiss(&pending, std::move(response), state->miss_hits[m], epoch);
  }
}

}  // namespace gemrec::serving
