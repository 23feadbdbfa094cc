#ifndef GEMREC_SERVING_RECOMMENDATION_SERVICE_H_
#define GEMREC_SERVING_RECOMMENDATION_SERVICE_H_

#include <algorithm>
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
  /// TaSearch::Scratch. Not clamped to hardware concurrency: serving
  /// workers block on the queue, so oversubscription is deliberate.
  uint32_t num_workers = 4;
  /// Max requests one worker drains per queue visit; the whole batch
  /// is served under a single snapshot acquisition (one epoch).
  size_t max_batch = 16;
  /// Result-cache entries across all shards (0 disables caching).
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  /// Serve cache misses through the quantized multi-query BatchTaSearch
  /// (one shared list traversal per drained batch, exact fp32 re-rank)
  /// instead of one exact TaSearch per request. Results are exact
  /// either way; this only changes speed. Falls back to per-query TA
  /// automatically when a snapshot was built without its quantized
  /// companion. `gemrec serve --exact-ta` sets this to false.
  bool use_batch_ta = true;
};

// QueryRequest / QueryResponse moved to serving/query_backend.h (the
// interface the net layer depends on); re-exported here transitively.

/// Concurrent query front-end over an atomically swappable
/// ModelSnapshot (the serving half of the paper's §IV online stage).
///
/// Architecture:
///  * Requests enter a bounded-batch FIFO via Submit (future-based) or
///    the synchronous Query wrapper.
///  * A fixed pool of workers drains up to max_batch requests per
///    visit, acquires the current snapshot ONCE for the whole batch
///    (so a batch is served under a single epoch) and answers each
///    request with its thread-private TaSearch::Scratch — the
///    steady-state query path performs no allocation inside TA.
///  * Results are fronted by a sharded LRU keyed on
///    (user, n, filter_hash); entries are epoch-stamped, and a lookup
///    only hits when the entry's epoch matches the batch's snapshot,
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

  /// Graceful stop: drains the queue (every pending promise is
  /// fulfilled) and joins the workers. Idempotent and thread-safe with
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

  /// Enqueues a query; the future resolves when a worker serves it.
  /// Requests submitted before the first Publish wait in the queue.
  std::future<QueryResponse> Submit(const QueryRequest& request);

  /// Enqueues a query that completes via callback instead of a future
  /// — the zero-blocking bridge used by net::NetServer, whose epoll
  /// thread can never wait on a future. The callback fires on the
  /// serving worker's thread (QueryBackend contract).
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
    std::promise<QueryResponse> promise;
    /// When set, completion goes through the callback and the promise
    /// is left untouched.
    ResponseCallback callback;
    /// When the request entered the queue (queue-wait histogram).
    std::chrono::steady_clock::time_point enqueue_time;

    void Complete(QueryResponse response) {
      if (callback) {
        callback(std::move(response));
      } else {
        promise.set_value(std::move(response));
      }
    }
  };

  /// Per-worker reusable buffers for both retrieval paths; everything
  /// keeps its capacity so steady-state serving stays allocation-free.
  struct WorkerState {
    recommend::TaSearch::Scratch scratch;
    recommend::BatchTaSearch::Workspace batch_ws;
    recommend::ReciprocalScratch recip;
    std::vector<float> query_vec;
    std::vector<recommend::SearchHit> hits;
    // Batched-path staging, indexed by cache-miss position.
    std::vector<size_t> miss_index;
    std::vector<std::vector<float>> miss_queries;
    std::vector<recommend::BatchQuery> miss_batch;
    std::vector<std::vector<recommend::SearchHit>> miss_hits;
    std::vector<recommend::SearchStats> miss_stats;
  };

  void Enqueue(PendingRequest pending);
  void WorkerLoop();
  void ServeBatch(std::vector<PendingRequest>* batch,
                  const ModelSnapshot& snapshot, WorkerState* state);
  void ServeBatchQuantized(std::vector<PendingRequest>* batch,
                           const ModelSnapshot& snapshot,
                           WorkerState* state);
  void CompleteMiss(PendingRequest* pending, QueryResponse response,
                    const std::vector<recommend::SearchHit>& hits,
                    uint64_t epoch);
  /// Group/reciprocal path, shared by the exact and quantized batch
  /// modes (both serve these kinds identically — group scoring is an
  /// exhaustive slice scan, reciprocal refinement pins to the exact TA
  /// engine — so answers are mode-independent bit-for-bit).
  void ServeSpecialKind(PendingRequest* pending,
                        const ModelSnapshot& snapshot, WorkerState* state);
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
  bool shutdown_ = false;
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
