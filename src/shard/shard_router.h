#ifndef GEMREC_SHARD_SHARD_ROUTER_H_
#define GEMREC_SHARD_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "serving/query_backend.h"
#include "shard/merger.h"

namespace gemrec::shard {

/// Address of one shard's serve stack.
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Parses "host:p1,host:p2,..." (the `gemrec coordinate --shards`
/// syntax) into endpoints.
Status ParseShardEndpoints(const std::string& spec,
                           std::vector<ShardEndpoint>* out);

struct RouterOptions {
  /// Per-(query, shard) answer budget. A shard that misses it gets its
  /// slot marked failed (the merge degrades to a typed partial result)
  /// and one consecutive-failure strike — the query is NEVER held
  /// hostage by one parked shard.
  std::chrono::milliseconds shard_deadline{250};
  /// Consecutive failures (deadline misses, io errors, failed sends)
  /// before the breaker opens: the shard's connection is dropped and
  /// fan-out skips it until a re-probe succeeds.
  uint32_t breaker_threshold = 3;
  /// First re-probe delay after eviction; doubles (capped) while the
  /// shard stays down.
  std::chrono::milliseconds breaker_backoff{250};
  double breaker_backoff_multiplier = 2.0;
  std::chrono::milliseconds breaker_backoff_max{5000};
  /// Per-shard connection knobs. connect_timeout bounds the re-probe
  /// (which runs inline on the router thread — a blocking connect, but
  /// bounded and only attempted once per backoff window).
  net::ClientOptions client;
};

/// Scatter-gather fan-out engine of the coordinator tier: one
/// persistent pipelined GMNP connection per shard, all multiplexed on
/// a single epoll thread. Queries fan out with a shared frame id,
/// per-shard replies are collected in completion order via
/// nonblocking drains (Client::ReceiveAny(0ms)), and the merged top-k
/// (merger.h) is delivered through the submitted callback once every
/// shard has answered, failed, or missed its deadline — so one dead
/// or parked shard can never stall the others, only degrade the
/// result to a typed partial.
///
/// Failure handling is breaker-style per shard: consecutive failures
/// open the breaker (connection dropped, fan-out skips the shard);
/// re-probes with exponential backoff close it again once the shard
/// answers TCP. All of it is observable: gemrec_shard_queries_total,
/// gemrec_shard_partial_results_total, gemrec_shard_deadline_misses_
/// total, gemrec_shard_evictions_total, gemrec_shard_reconnects_total
/// and a per-shard gemrec_shard_rpc_us{shard="i"} latency histogram.
///
/// Thread model: SubmitQuery/SubmitStats are callable from any thread
/// (mutex-guarded inbox + eventfd wakeup); callbacks fire on the
/// router thread and must not block (the reactor bridge just pushes a
/// completion and wakes its own loop).
class ShardRouter {
 public:
  using QueryCallback = std::function<void(serving::QueryResponse)>;
  /// One snapshot per shard, in shard order; nullopt = shard did not
  /// answer (evicted, dead, or missed the deadline).
  using StatsCallback = std::function<void(
      std::vector<std::optional<obs::MetricsSnapshot>>)>;

  /// `registry` must outlive the router.
  ShardRouter(std::vector<ShardEndpoint> shards,
              const RouterOptions& options,
              obs::MetricsRegistry* registry);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Connects to the shards and spawns the router thread. Unreachable
  /// shards start with their breaker open (re-probed on the usual
  /// backoff schedule); only ALL shards unreachable is an error.
  Status Start();

  /// Completes every pending query with kShuttingDown, closes the
  /// shard connections and joins the router thread. Idempotent.
  void Stop();

  /// Fans the query out over the live shards and calls `callback`
  /// exactly once with the merged response (possibly partial). After
  /// Stop, completes immediately with kShuttingDown.
  void SubmitQuery(const serving::QueryRequest& request,
                   QueryCallback callback);

  /// Fans a kStatsRequest out over the live shards; `callback` gets
  /// one optional snapshot per shard.
  void SubmitStats(StatsCallback callback);

  /// Submitted but not yet claimed by the router thread.
  size_t QueueDepth() const;
  /// Claimed, awaiting shard replies.
  size_t InFlight() const;

  size_t num_shards() const { return shards_.size(); }

 private:
  struct ShardState {
    ShardEndpoint endpoint;
    std::unique_ptr<net::Client> client;  // null while breaker open
    uint32_t consecutive_failures = 0;
    bool evicted = false;
    std::chrono::milliseconds backoff{0};
    std::chrono::steady_clock::time_point reprobe_at;
    obs::Histogram* rpc_us = nullptr;
  };

  struct PendingQuery {
    serving::QueryRequest request;
    QueryCallback callback;
    std::vector<ShardAnswer> answers;
    /// 1 = sent, awaiting reply (the deadline/sent_at slots are
    /// meaningful only while waiting).
    std::vector<uint8_t> waiting;
    std::vector<std::chrono::steady_clock::time_point> sent_at;
    std::vector<std::chrono::steady_clock::time_point> deadline;
    size_t outstanding = 0;
  };

  struct PendingStats {
    StatsCallback callback;
    std::vector<std::optional<obs::MetricsSnapshot>> snapshots;
    std::vector<uint8_t> waiting;
    std::vector<std::chrono::steady_clock::time_point> deadline;
    size_t outstanding = 0;
  };

  void Loop();
  void DrainInbox(std::chrono::steady_clock::time_point now);
  void DispatchQuery(serving::QueryRequest request, QueryCallback callback,
                     std::chrono::steady_clock::time_point now);
  void DispatchStats(StatsCallback callback,
                     std::chrono::steady_clock::time_point now);
  /// Drains every complete frame buffered on shard `index` without
  /// blocking; a transport error evicts the shard.
  void DrainShard(uint32_t index,
                  std::chrono::steady_clock::time_point now);
  void HandleReply(uint32_t index, net::TaggedReply reply,
                   std::chrono::steady_clock::time_point now);
  /// Marks deadline misses, strikes the shards involved, opens
  /// breakers past the threshold, completes finished queries.
  void SweepDeadlines(std::chrono::steady_clock::time_point now);
  /// Attempts to reconnect evicted shards whose backoff elapsed.
  void SweepReprobes(std::chrono::steady_clock::time_point now);
  /// One failure strike; opens the breaker at the threshold.
  /// `connection_broken` forces an immediate eviction (the transport
  /// is unusable regardless of the count).
  void StrikeShard(uint32_t index, bool connection_broken,
                   std::chrono::steady_clock::time_point now);
  /// Opens the breaker: drops the connection, schedules the re-probe
  /// and fails every pending slot still waiting on the shard.
  void EvictShard(uint32_t index,
                  std::chrono::steady_clock::time_point now);
  void RegisterClientFd(uint32_t index);
  void UnregisterClientFd(uint32_t index);
  /// Completes and erases every pending entry whose outstanding count
  /// reached zero.
  void CompleteFinished();
  void CompleteQuery(uint64_t id, PendingQuery query);
  void CompleteStats(uint64_t id, PendingStats stats);
  /// Poll timeout until the nearest deadline or re-probe.
  int NextTimeoutMs(std::chrono::steady_clock::time_point now) const;

  std::vector<ShardState> shards_;
  RouterOptions options_;
  obs::MetricsRegistry* registry_;

  obs::Counter* queries_total_ = nullptr;
  obs::Counter* partial_results_total_ = nullptr;
  obs::Counter* deadline_misses_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;

  net::EventLoop loop_;

  struct Inbox {
    std::mutex mu;
    std::vector<std::pair<serving::QueryRequest, QueryCallback>> queries;
    std::vector<StatsCallback> stats;
    bool closed = false;
  };
  Inbox inbox_;

  /// Coordinator-assigned frame ids, shared id-space for queries and
  /// stats (the SAME id goes to every shard — separate connections,
  /// so no collision is possible).
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, PendingQuery> pending_;
  std::unordered_map<uint64_t, PendingStats> pending_stats_;
  /// Ids whose outstanding count hit zero mid-sweep; completed (and
  /// erased) together afterwards so no code path mutates the maps
  /// while another is iterating them.
  std::vector<uint64_t> finished_;

  std::atomic<size_t> in_flight_{0};

  std::thread thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_SHARD_ROUTER_H_
