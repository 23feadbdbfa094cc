#include "serving/recommendation_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace gemrec::serving {
namespace {

/// Lock shards of the result cache: enough that workers rarely contend
/// on one LRU, few enough that a small cache still holds hot users.
constexpr size_t kCacheShards = 8;

}  // namespace

RecommendationService::RecommendationService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_capacity, kCacheShards),
      registry_(std::make_unique<obs::MetricsRegistry>()) {
  queries_ = registry_->GetCounter(
      "gemrec_service_queries_total",
      "Queries screened, each once: cache hits, bad requests and "
      "misses alike.");
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
      "Microseconds of retrieval per cache miss: a group query's "
      "event scan, or a partner/reciprocal query's share of the "
      "batch-walk call that carried it (one entry per call, so a "
      "reciprocal miss that deepens records one per round).");
  quantize_scan_us_ = registry_->GetHistogram(
      "gemrec_service_quantize_scan_us",
      "Microseconds one batch spent in the quantized stage (query "
      "quantization, block bounds, block expansions, TA walk).");
  rerank_us_ = registry_->GetHistogram(
      "gemrec_service_rerank_us",
      "Microseconds one batch spent re-scoring survivors in exact "
      "fp32.");

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
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  SubmitAsync(request, [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void RecommendationService::SubmitAsync(const QueryRequest& request,
                                        ResponseCallback callback) {
  GEMREC_CHECK(callback != nullptr);
  PendingRequest pending;
  pending.request = request;
  pending.callback = std::move(callback);
  if (shutdown_.load(std::memory_order_acquire)) {
    Reject(&pending);
    return;
  }
  ScreenContext context;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_ != nullptr) context = ScreenContext::Of(*snapshot_);
  }
  if (context.epoch != 0) {
    if (Screen(&pending, context)) return;
    pending.screened = true;
  }
  Enqueue(std::move(pending));
}

bool RecommendationService::Screen(PendingRequest* pending,
                                   const ScreenContext& context) {
  const QueryRequest& request = pending->request;
  queries_->Increment();
  KindCounter(request.kind)->Increment();
  if (RefuseInvalid(pending, context)) return true;
  QueryResponse response;
  if (request.bypass_cache ||
      !cache_.Lookup(CacheKey::For(request), context.epoch, &response.items,
                     &response.ta_bound)) {
    return false;
  }
  response.epoch = context.epoch;
  response.cache_hit = true;
  cache_hits_->Increment();
  pending->Complete(std::move(response));
  return true;
}

bool RecommendationService::RefuseInvalid(PendingRequest* pending,
                                          const ScreenContext& context) {
  // Semantic validation the wire decoder cannot do: ids must resolve
  // in the live snapshot's store (an out-of-range user would index
  // past the user matrix). Typed kBadRequest, never a crash or a
  // silently-empty answer.
  const QueryRequest& request = pending->request;
  bool invalid = request.user >= context.user_rows;
  if (request.kind == recommend::QueryKind::kGroup) {
    invalid = invalid || request.group.empty();
    for (const ebsn::UserId m : request.group) {
      invalid = invalid || m >= context.user_rows;
    }
  }
  if (!invalid) return false;
  bad_requests_->Increment();
  QueryResponse response;
  response.epoch = context.epoch;
  response.code = ResponseCode::kBadRequest;
  pending->Complete(std::move(response));
  return true;
}

void RecommendationService::Reject(PendingRequest* pending) {
  rejected_->Increment();
  QueryResponse response;
  response.code = ResponseCode::kShuttingDown;
  pending->Complete(std::move(response));
}

void RecommendationService::Enqueue(PendingRequest pending) {
  pending.enqueue_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!shutdown_.load(std::memory_order_relaxed)) {
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
  Reject(&pending);
}

QueryResponse RecommendationService::Query(const QueryRequest& request) {
  return Submit(request).get();
}

void RecommendationService::RecordReloadFailure() {
  reload_failures_->Increment();
}

void RecommendationService::WorkerLoop() {
  // Per-worker reusable state: after warm-up the batch walk makes no
  // heap allocation (workspace + staging keep their capacity).
  WorkerState state;
  std::vector<PendingRequest> batch;

  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_.wait(lock, [this] {
        return shutdown_.load(std::memory_order_relaxed) || !queue_.empty();
      });
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

    // Acquire the serving snapshot once per batch, and only after the
    // batch left the queue: the whole batch is answered under a single
    // epoch, at least as new as any answer (an inline cache hit, say)
    // completed before one of its requests was submitted. Blocks only
    // before the FIRST publish ever; a reload never blocks queries, it
    // just swaps what the next batch acquires.
    std::shared_ptr<const ModelSnapshot> snapshot;
    {
      std::unique_lock<std::mutex> lock(snapshot_mu_);
      snapshot_ready_.wait(lock, [this] {
        return snapshot_ != nullptr ||
               shutdown_.load(std::memory_order_relaxed);
      });
      snapshot = snapshot_;
    }
    if (snapshot == nullptr) {
      // Shutting down before any model was published: answer with
      // empty epoch-0 kShuttingDown responses rather than never.
      for (PendingRequest& pending : batch) Reject(&pending);
      in_flight_->Sub(static_cast<int64_t>(batch.size()));
      continue;
    }

    batches_->Increment();
    ServeBatchQuantized(&batch, *snapshot, &state);
    in_flight_->Sub(static_cast<int64_t>(batch.size()));
    // `snapshot` drops its reference here; if a Publish retired it
    // mid-batch and this was the last reader, it is destroyed now.
  }
}

void RecommendationService::CompleteMiss(PendingRequest* pending,
                                         QueryResponse response) {
  // The search's unreturned-score bound travels with the response (a
  // sharded coordinator needs it to certify merge completeness) and
  // into the cache, so a future hit replays the same certificate.
  response.ta_bound = response.stats.unreturned_bound;
  if (!pending->request.bypass_cache) {
    cache_.Insert(CacheKey::For(pending->request), response.epoch,
                  response.items, response.ta_bound);
  }
  pending->Complete(std::move(response));
}

void RecommendationService::ServeGroup(PendingRequest* pending,
                                       const ModelSnapshot& snapshot,
                                       WorkerState* state) {
  const QueryRequest& request = pending->request;
  QueryResponse response;
  response.epoch = snapshot.epoch();
  const auto search_start = std::chrono::steady_clock::now();
  response.items = recommend::GroupScan(
      snapshot.model(), snapshot.shard_events_by_norm(), request.user,
      request.group, request.aggregator, request.n, &state->group,
      &response.stats);
  ta_search_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - search_start)
          .count()));
  CompleteMiss(pending, std::move(response));
}

/// Screens requests queued before the first publish and answers group
/// queries first, then runs every partner and reciprocal miss through
/// ONE BatchTaSearch traversal (shared component stage and sorted-list
/// walk, exact fp32 re-rank). A reciprocal miss walks its forward
/// query (u, u, 0) to depth ReciprocalDepth(n) and is rescored by
/// CertifyReciprocal; the rare miss whose certificate fails rides a
/// follow-up call at twice its depth. Completions happen only after
/// the search that answers them, so the per-worker staging buffers
/// stay stable.
void RecommendationService::ServeBatchQuantized(
    std::vector<PendingRequest>* batch, const ModelSnapshot& snapshot,
    WorkerState* state) {
  const uint64_t epoch = snapshot.epoch();
  const ScreenContext context = ScreenContext::Of(snapshot);
  state->miss_index.clear();
  for (size_t i = 0; i < batch->size(); ++i) {
    PendingRequest& pending = (*batch)[i];
    // A request screened on submit was checked against that moment's
    // snapshot; a reload since may have shrunk the user space, so its
    // ids are checked again (never its cache entry).
    if (pending.screened ? RefuseInvalid(&pending, context)
                         : Screen(&pending, context)) {
      continue;
    }
    if (pending.request.kind == recommend::QueryKind::kGroup) {
      ServeGroup(&pending, snapshot, state);
      continue;
    }
    state->miss_index.push_back(i);
  }
  size_t misses = state->miss_index.size();
  if (misses == 0) return;

  if (state->miss_queries.size() < misses) {
    state->miss_queries.resize(misses);
    state->miss_hits.resize(misses);
  }
  state->miss_batch.resize(misses);
  state->miss_stats.resize(misses);
  for (size_t m = 0; m < misses; ++m) {
    const QueryRequest& request = (*batch)[state->miss_index[m]].request;
    size_t depth = request.n;
    if (request.kind == recommend::QueryKind::kReciprocal) {
      recommend::ReciprocalQueryVector(snapshot.model(), request.user,
                                       snapshot.space().point_dim(),
                                       &state->miss_queries[m]);
      depth = recommend::ReciprocalDepth(request.n);
    } else {
      snapshot.QueryVector(request.user, &state->miss_queries[m]);
    }
    state->miss_batch[m] = recommend::BatchQuery{
        state->miss_queries[m].data(), depth,
        /*exclude_partner=*/request.user};
  }

  while (misses > 0) {
    recommend::BatchSearchStats batch_stats;
    snapshot.batch_searcher()->SearchBatch(
        state->miss_batch.data(), misses, state->miss_hits.data(),
        &batch_stats, &state->batch_ws, state->miss_stats.data());
    quantize_scan_us_->Record(batch_stats.quantize_scan_us);
    rerank_us_->Record(batch_stats.rerank_us);
    // Each query the call carried is charged its share of the call.
    const uint64_t per_miss_us =
        (batch_stats.quantize_scan_us + batch_stats.rerank_us) / misses;
    size_t retry = 0;  // uncertified reciprocal misses, packed in front
    for (size_t m = 0; m < misses; ++m) {
      ta_search_us_->Record(per_miss_us);
      PendingRequest& pending = (*batch)[state->miss_index[m]];
      const QueryRequest& request = pending.request;
      QueryResponse response;
      response.epoch = epoch;
      response.stats = state->miss_stats[m];
      const std::vector<recommend::SearchHit>& hits = state->miss_hits[m];
      if (request.kind == recommend::QueryKind::kPartner) {
        response.items.reserve(hits.size());
        for (const recommend::SearchHit& hit : hits) {
          response.items.push_back(recommend::Recommendation{
              hit.pair.event, hit.pair.partner, hit.score});
        }
      } else if (recommend::CertifyReciprocal(
                     snapshot.model(), request.user, request.n,
                     state->miss_batch[m].n, hits,
                     response.stats.unreturned_bound, &state->rescored,
                     &response.stats.unreturned_bound)) {
        response.items = state->rescored;
      } else {
        const size_t depth = 2 * state->miss_batch[m].n;
        state->miss_index[retry] = state->miss_index[m];
        std::swap(state->miss_queries[retry], state->miss_queries[m]);
        state->miss_batch[retry] = recommend::BatchQuery{
            state->miss_queries[retry].data(), depth, request.user};
        ++retry;
        continue;
      }
      CompleteMiss(&pending, std::move(response));
    }
    misses = retry;
  }
}

}  // namespace gemrec::serving
