#ifndef GEMREC_SERVING_RECOMMENDATION_SERVICE_H_
#define GEMREC_SERVING_RECOMMENDATION_SERVICE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ebsn/types.h"
#include "obs/metrics.h"
#include "recommend/batch_ta_search.h"
#include "recommend/query_kinds.h"
#include "recommend/recommender.h"
#include "serving/model_snapshot.h"
#include "serving/query_backend.h"
#include "serving/result_cache.h"

namespace gemrec::serving {

struct ServiceOptions {
  /// Fixed-size pool of serving threads, each owning one
  /// BatchTaSearch::Workspace. Not clamped to hardware concurrency:
  /// serving workers block on the queue, so oversubscription is
  /// deliberate.
  uint32_t num_workers = 4;
  /// Max requests one worker drains per queue visit; the whole batch
  /// is served under a single snapshot acquisition (one epoch).
  size_t max_batch = 16;
  /// Result-cache entries across all shards (0 disables caching).
  size_t cache_capacity = 4096;
};

// QueryRequest / QueryResponse moved to serving/query_backend.h (the
// interface the net layer depends on); re-exported here transitively.

/// Concurrent query front-end over an atomically swappable
/// ModelSnapshot (the serving half of the paper's §IV online stage).
///
/// Architecture:
///  * Submit / SubmitAsync screen each request on the caller's thread
///    against the current snapshot: count it, validate its ids, and
///    look up the result cache under the snapshot's epoch. A bad
///    request or a cache hit completes right there; only a miss enters
///    the FIFO. Requests submitted before the first Publish are queued
///    unscreened.
///  * A fixed pool of workers drains up to max_batch requests per
///    visit, then acquires the current snapshot ONCE for the whole
///    batch (so a batch is served under a single epoch, never older
///    than any answer its requests' senders had seen) and answers its
///    partner and reciprocal misses with one quantized BatchTaSearch
///    walk (exact fp32 re-rank) through its thread-private workspace —
///    the steady-state query path performs no allocation inside the
///    walk.
///  * Results are fronted by a sharded LRU keyed on
///    (user, n, filter_hash); entries are epoch-stamped, and a lookup
///    only hits when the entry's epoch matches the current snapshot's,
///    so cache hits can never resurrect a retired snapshot.
///  * Publish stamps the snapshot with the next epoch and swaps the
///    shared_ptr under a short mutex (pointer copy, no data copy).
///    In-flight batches keep the old snapshot alive through their own
///    reference and drain on it; the retired snapshot is destroyed by
///    whichever thread drops the last reference. No query ever waits
///    for an index build — builds happen on the publisher's thread
///    before Publish is called.
///
/// Typical reload loop: copy the serving store into a staging store,
/// apply OnlineUpdate fold-ins (FoldInColdEvent / FoldInColdUser /
/// UpdateUserWithAttendance), build a ModelSnapshot from the staging
/// store, Publish. Queries continue uninterrupted throughout.
class RecommendationService : public QueryBackend {
 public:
  explicit RecommendationService(const ServiceOptions& options);
  /// Calls Shutdown().
  ~RecommendationService() override;

  /// Graceful stop: drains the queue (every queued request is
  /// completed) and joins the workers. Idempotent and thread-safe with
  /// respect to concurrent Submit/SubmitAsync: a request that races
  /// Shutdown either gets served by the drain or is completed with an
  /// empty QueryResponse carrying ResponseCode::kShuttingDown — never
  /// an abort.
  void Shutdown();

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  /// Atomically swaps the serving snapshot. Stamps `snapshot` with the
  /// next epoch and returns it. Thread-safe; never blocks queries
  /// beyond a pointer swap.
  uint64_t Publish(std::shared_ptr<ModelSnapshot> snapshot);

  /// The currently published snapshot (nullptr before first Publish).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

  /// SubmitAsync with a future: it is ready on return for a cache hit
  /// or a bad request, and resolves when a worker serves a miss.
  /// Requests submitted before the first Publish wait in the queue.
  std::future<QueryResponse> Submit(const QueryRequest& request);

  /// Screens the query on the calling thread and completes a cache hit
  /// or a bad request there, before returning; a miss completes later
  /// on a serving worker's thread (QueryBackend contract). The
  /// zero-blocking bridge used by net::NetServer, whose epoll thread
  /// can never wait on a future.
  void SubmitAsync(const QueryRequest& request,
                   ResponseCallback callback) override;

  /// Synchronous convenience wrapper (blocks the caller, not workers).
  QueryResponse Query(const QueryRequest& request);

  /// Saturation gauges for admission control: how many requests sit
  /// unclaimed in the queue / are being served right now. Cheap relaxed
  /// reads — the net layer consults these on every request.
  size_t QueueDepth() const override {
    return static_cast<size_t>(std::max<int64_t>(0, queue_depth_->Value()));
  }
  size_t InFlight() const override {
    return static_cast<size_t>(std::max<int64_t>(0, in_flight_->Value()));
  }

  /// Bumps the reload-failure counter. The failed reload has no other
  /// effect on the service: the current snapshot keeps serving.
  void RecordReloadFailure();

  const ServiceOptions& options() const { return options_; }

  /// The service's metrics registry. Owned by the service and shared
  /// with the layers wrapping it: NetServer registers its socket-level
  /// metrics here, so one kStatsRequest (or one --stats-interval dump)
  /// exposes the whole serve stack. Stable for the service's lifetime.
  obs::MetricsRegistry* metrics() const override { return registry_.get(); }

 private:
  struct PendingRequest {
    QueryRequest request;
    ResponseCallback callback;
    /// Screened on submit: counted, and not in the cache at the
    /// submit-time epoch. A worker neither counts nor looks it up again.
    bool screened = false;
    /// When the request entered the queue (queue-wait histogram).
    std::chrono::steady_clock::time_point enqueue_time;

    void Complete(QueryResponse response) { callback(std::move(response)); }
  };

  /// What screening reads of a snapshot. Copied under snapshot_mu_
  /// without taking a reference, so a submitting thread never drops a
  /// retired snapshot's last reference (and never frees it).
  struct ScreenContext {
    uint64_t epoch = 0;  // 0: nothing published yet
    uint32_t user_rows = 0;
    static ScreenContext Of(const ModelSnapshot& snapshot) {
      return {snapshot.epoch(),
              snapshot.store().CountOf(graph::NodeType::kUser)};
    }
  };

  /// Per-worker reusable buffers; everything keeps its capacity so
  /// steady-state serving stays allocation-free.
  struct WorkerState {
    recommend::BatchTaSearch::Workspace batch_ws;
    // Batch-walk staging, indexed by cache-miss position.
    std::vector<size_t> miss_index;
    std::vector<std::vector<float>> miss_queries;
    std::vector<recommend::BatchQuery> miss_batch;
    std::vector<std::vector<recommend::SearchHit>> miss_hits;
    std::vector<recommend::SearchStats> miss_stats;
    std::vector<recommend::Recommendation> rescored;
    recommend::GroupScanScratch group;
  };

  /// Counts the request, then completes it when its ids do not
  /// resolve in the snapshot (kBadRequest) or the cache holds its
  /// answer at the snapshot's epoch. Returns whether it completed; a
  /// miss is left for the workers.
  bool Screen(PendingRequest* pending, const ScreenContext& context);
  /// Completes the request with kBadRequest when a user or group
  /// member id is out of range, or the group is empty. Returns whether
  /// it did.
  bool RefuseInvalid(PendingRequest* pending, const ScreenContext& context);
  /// Completes the request with an empty kShuttingDown response.
  void Reject(PendingRequest* pending);
  void Enqueue(PendingRequest pending);
  void WorkerLoop();
  /// Answers one drained batch: screening for requests queued before
  /// the first publish, group queries by their norm-ordered scan, then
  /// every partner and reciprocal miss through one BatchTaSearch call.
  void ServeBatchQuantized(std::vector<PendingRequest>* batch,
                           const ModelSnapshot& snapshot,
                           WorkerState* state);
  /// Caches a miss's answer under its certified bound and completes it.
  void CompleteMiss(PendingRequest* pending, QueryResponse response);
  /// Group path: recommend::GroupScan over the shard's event slice,
  /// with the worker's scratch.
  void ServeGroup(PendingRequest* pending, const ModelSnapshot& snapshot,
                  WorkerState* state);
  obs::Counter* KindCounter(recommend::QueryKind kind) {
    switch (kind) {
      case recommend::QueryKind::kGroup: return kind_group_;
      case recommend::QueryKind::kReciprocal: return kind_reciprocal_;
      case recommend::QueryKind::kPartner: break;
    }
    return kind_partner_;
  }

  ServiceOptions options_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  std::condition_variable snapshot_ready_;
  uint64_t next_epoch_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_ready_;
  std::deque<PendingRequest> queue_;
  /// Written under queue_mu_ (the workers' wait predicate reads it
  /// there); atomic so Submit can refuse without taking the lock.
  std::atomic<bool> shutdown_{false};
  std::once_flag shutdown_once_;

  ResultCache cache_;

  /// Registry + borrowed metric handles (stable addresses owned by the
  /// registry; see DESIGN.md §12 for the catalogue).
  std::unique_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* queries_;
  obs::Counter* cache_hits_;
  obs::Counter* batches_;
  obs::Counter* publishes_;
  obs::Counter* reload_failures_;
  obs::Counter* rejected_;
  obs::Counter* bad_requests_;
  obs::Counter* kind_partner_;
  obs::Counter* kind_group_;
  obs::Counter* kind_reciprocal_;
  obs::Gauge* queue_depth_;
  obs::Gauge* in_flight_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* ta_search_us_;
  obs::Histogram* quantize_scan_us_;
  obs::Histogram* rerank_us_;

  std::vector<std::thread> workers_;
};

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_RECOMMENDATION_SERVICE_H_
