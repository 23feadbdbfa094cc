#ifndef GEMREC_SERVING_QUERY_BACKEND_H_
#define GEMREC_SERVING_QUERY_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "ebsn/types.h"
#include "obs/metrics.h"
#include "recommend/query_kinds.h"
#include "recommend/recommender.h"
#include "recommend/ta_search.h"

namespace gemrec::serving {

/// One top-n query.
struct QueryRequest {
  ebsn::UserId user = 0;
  uint32_t n = 10;
  /// Identifies the filtered event pool the caller expects (cache-key
  /// component; ModelSnapshot::pool_hash() of the pool it was built
  /// over). 0 is a valid value — it simply keys the default pool.
  uint64_t filter_hash = 0;
  /// Skip cache lookup AND insertion (always recompute).
  bool bypass_cache = false;
  /// Which workload this query asks for (see recommend/query_kinds.h).
  recommend::QueryKind kind = recommend::QueryKind::kPartner;
  /// kGroup only: how per-member pairwise terms fold.
  recommend::GroupAggregator aggregator = recommend::GroupAggregator::kSum;
  /// kGroup only: the fixed partner set G (1..kMaxGroupMembers ids).
  /// Member order is semantic for kSum (float accumulation order) and
  /// part of the cache key.
  std::vector<ebsn::UserId> group;
};

/// Typed outcome of one query. Every code but kOk carries no items
/// and a +inf ta_bound; the net layer answers it with the kError frame
/// of the same name instead of a response frame.
enum class ResponseCode : uint8_t {
  kOk = 0,
  /// The backend was shutting down and never served the request.
  kShuttingDown,
  /// The request was semantically invalid against the live snapshot
  /// (user or group member id out of range, say) — something the wire
  /// decoder cannot know.
  kBadRequest,
  /// A downstream shard answered OVERLOADED (coordinator only).
  kOverloaded,
};

struct QueryResponse {
  std::vector<recommend::Recommendation> items;
  /// Epoch of the snapshot that produced (or validated) the items.
  uint64_t epoch = 0;
  bool cache_hit = false;
  ResponseCode code = ResponseCode::kOk;
  /// At least one shard's answer is missing from the merge (deadline
  /// miss, dead connection, or breaker eviction), so `items` covers a
  /// subset of the candidate space. Coordinator only; single-instance
  /// answers are always complete.
  bool partial = false;
  /// Sound upper bound on the score of every candidate pair NOT in
  /// `items` (SearchStats::unreturned_bound, replayed verbatim on
  /// cache hits). -inf when nothing was left out; +inf only on a
  /// partial answer or a refused request, and forbids any
  /// completeness claim downstream.
  float ta_bound = std::numeric_limits<float>::infinity();
  /// Search instrumentation; zeroed for cache hits.
  recommend::SearchStats stats;
};

/// Abstract asynchronous query sink the network front-end drives.
///
/// Two implementations exist: RecommendationService (a worker pool over
/// one local ModelSnapshot slice) and shard::CoordinatorBackend (a
/// scatter-gather router over N remote shard servers). NetServer and
/// its reactors only see this interface, so the same epoll front-end,
/// admission control, drain logic and stats plumbing serve both roles.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Callback fired when the request completes — on whatever thread
  /// the backend completes it (serving worker, router thread). Must
  /// not block: the network front-end hands completed responses back
  /// to its event loop here.
  using ResponseCallback = std::function<void(QueryResponse)>;

  /// Enqueues a query that completes via callback — the zero-blocking
  /// bridge used by net::NetServer, whose epoll thread can never wait.
  virtual void SubmitAsync(const QueryRequest& request,
                           ResponseCallback callback) = 0;

  /// Saturation gauges for admission control: requests not yet
  /// claimed / currently being served. Cheap relaxed reads.
  virtual size_t QueueDepth() const = 0;
  virtual size_t InFlight() const = 0;

  /// The backend's metrics registry (stable for its lifetime); the
  /// net layer registers its own socket metrics here.
  virtual obs::MetricsRegistry* metrics() const = 0;

  /// Asynchronous stats snapshot. The default answers synchronously
  /// from the local registry — correct for any in-process backend. A
  /// coordinator overrides it to fan kStatsRequest out to its shards
  /// and merge, without ever blocking the calling reactor thread.
  /// The callback may fire synchronously (before StatsAsync returns)
  /// or later from another thread.
  using StatsCallback = std::function<void(obs::MetricsSnapshot)>;
  virtual void StatsAsync(StatsCallback callback) {
    callback(metrics()->Snapshot());
  }
};

}  // namespace gemrec::serving

#endif  // GEMREC_SERVING_QUERY_BACKEND_H_
