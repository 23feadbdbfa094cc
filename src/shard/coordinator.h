#ifndef GEMREC_SHARD_COORDINATOR_H_
#define GEMREC_SHARD_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "serving/query_backend.h"

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
  /// Per-(fan-out, shard) answer budget. A shard that misses it gets
  /// its slot marked failed (a query degrades to a typed partial
  /// result, a stats scrape to the shards that answered) and one
  /// consecutive-failure strike — no fan-out is ever held hostage by
  /// one parked shard. It also bounds every blocking socket call the
  /// router thread makes on a shard connection: the connect (startup
  /// and re-probe) and each send.
  std::chrono::milliseconds shard_deadline{250};
  /// Consecutive failures (deadline misses, io errors, failed sends)
  /// before the breaker opens: the shard's connection is dropped and
  /// fan-out skips it until a re-probe succeeds.
  uint32_t breaker_threshold = 3;
  /// First re-probe delay after eviction; doubles (capped at 5 s)
  /// while the shard stays down.
  std::chrono::milliseconds breaker_backoff{250};
};

/// The scatter-gather serving tier's QueryBackend: it plugs into the
/// unmodified NetServer front-end, so `gemrec coordinate` speaks the
/// exact same wire protocol as `gemrec serve` — clients cannot tell
/// the difference except for the partial flag when a shard is
/// degraded.
///
/// One persistent pipelined GMNP connection per shard, all multiplexed
/// on a single router thread (net::EventLoop). Every fan-out — a query
/// or a kStatsRequest — is one pending record keyed by the frame id it
/// sends to every shard: per-shard reply slots, one send time, one
/// deadline. Replies are collected in completion order via nonblocking
/// drains (Client::ReceiveAny(0ms)), and the record completes once
/// every shard has answered, failed, or missed the deadline. A query
/// completes with the merged top-k (merger.h); a stats scrape with the
/// coordinator's own registry plus every answering shard's snapshot
/// with a {shard="i"} suffix appended to each metric name, so one
/// scrape sees the whole tier. Stats ride the async StatsAsync path,
/// so they are answered even while the front-end drains.
///
/// Failure handling is breaker-style per shard: consecutive failures
/// open the breaker (connection dropped, fan-out skips the shard);
/// re-probes with exponential backoff close it again once the shard
/// answers TCP. All of it is observable: gemrec_shard_queries_total,
/// gemrec_shard_partial_results_total, gemrec_shard_deadline_misses_
/// total, gemrec_shard_evictions_total, gemrec_shard_reconnects_total
/// and a per-shard gemrec_shard_rpc_us{shard="i"} query latency
/// histogram.
///
/// Thread model: SubmitAsync/StatsAsync are callable from any thread
/// (mutex-guarded inbox + eventfd wakeup); callbacks fire on the
/// router thread and must not block (the reactor bridge just pushes a
/// completion and wakes its own loop).
class CoordinatorBackend : public serving::QueryBackend {
 public:
  explicit CoordinatorBackend(std::vector<ShardEndpoint> shards,
                              const RouterOptions& options = {});
  ~CoordinatorBackend() override;
  CoordinatorBackend(const CoordinatorBackend&) = delete;
  CoordinatorBackend& operator=(const CoordinatorBackend&) = delete;

  /// Connects to the shards and starts the router thread. Unreachable
  /// shards start with their breaker open (re-probed on the usual
  /// backoff schedule); only ALL shards unreachable is an error.
  Status Start();

  /// Completes every pending query with kShuttingDown and every
  /// pending stats scrape with what it has, closes the shard
  /// connections and joins the router thread. Idempotent.
  void Stop();

  /// Fans the query out over the live shards; the callback gets the
  /// merged response (possibly partial). After Stop, completes
  /// immediately with kShuttingDown.
  void SubmitAsync(const serving::QueryRequest& request,
                   ResponseCallback callback) override;
  /// Submitted but not yet claimed by the router thread.
  size_t QueueDepth() const override;
  /// Queries claimed, awaiting shard replies.
  size_t InFlight() const override;
  obs::MetricsRegistry* metrics() const override;
  void StatsAsync(StatsCallback callback) override;

  size_t num_shards() const { return shards_.size(); }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct ShardState {
    ShardEndpoint endpoint;
    /// Null while the breaker is open.
    std::unique_ptr<net::Client> client;
    uint32_t consecutive_failures = 0;
    std::chrono::milliseconds backoff{0};
    TimePoint reprobe_at;
    obs::Histogram* rpc_us = nullptr;
  };

  /// One fan-out: the same frame id went to every live shard at
  /// `sent_at`, and every slot still waiting fails at sent_at +
  /// shard_deadline.
  struct Pending {
    enum class Kind : uint8_t { kQuery, kStats };
    Kind kind = Kind::kQuery;
    serving::QueryRequest request;   // kQuery
    ResponseCallback on_query;       // kQuery
    obs::MetricsSnapshot own;        // kStats: the coordinator's registry
    StatsCallback on_stats;          // kStats
    /// Shard i's decoded reply; nullopt when it failed, missed the
    /// deadline or was never asked.
    std::vector<std::optional<net::TaggedReply>> replies;
    /// 1 = sent, awaiting the reply.
    std::vector<uint8_t> waiting;
    TimePoint sent_at;
    size_t outstanding = 0;
  };

  void Loop();
  /// Queues a submitted fan-out, or completes it as shut down when
  /// the router is closed.
  void Submit(Pending pending);
  void Dispatch(Pending pending, TimePoint now);
  /// Drains every complete frame buffered on shard `index` without
  /// blocking; a transport error evicts the shard.
  void DrainShard(uint32_t index, TimePoint now);
  void HandleReply(uint32_t index, net::TaggedReply reply, TimePoint now);
  /// Marks deadline misses, strikes the shards involved, opens
  /// breakers past the threshold, completes finished fan-outs.
  void SweepDeadlines(TimePoint now);
  /// Attempts to reconnect evicted shards whose backoff elapsed.
  void SweepReprobes(TimePoint now);
  /// Connects shard `index` and registers it with the loop.
  Status ConnectShard(uint32_t index);
  /// One failure strike; opens the breaker at the threshold.
  /// `connection_broken` forces an immediate eviction (the transport
  /// is unusable regardless of the count).
  void StrikeShard(uint32_t index, bool connection_broken, TimePoint now);
  /// Opens the breaker: drops the connection, schedules the re-probe
  /// and fails every pending slot still waiting on the shard.
  void EvictShard(uint32_t index, TimePoint now);
  /// Stops waiting on shard `index` for fan-out `id`; queues the
  /// fan-out for completion when it was the last slot.
  void CloseSlot(uint64_t id, Pending& pending, uint32_t index);
  /// Completes and erases every pending fan-out whose outstanding
  /// count reached zero.
  void CompleteFinished();
  /// A query completes with the merged top-k, a stats scrape with the
  /// coordinator's snapshot plus the shards' {shard="i"} rollups.
  void Complete(Pending pending);
  /// Shutdown: a query gets kShuttingDown, a stats scrape what it has.
  void Abandon(Pending pending);
  /// Poll timeout until the nearest deadline or re-probe.
  int NextTimeoutMs(TimePoint now) const;

  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::vector<ShardState> shards_;
  RouterOptions options_;

  obs::Counter* queries_total_ = nullptr;
  obs::Counter* partial_results_total_ = nullptr;
  obs::Counter* deadline_misses_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;

  net::EventLoop loop_;

  struct Inbox {
    mutable std::mutex mu;
    std::vector<Pending> submitted;
    bool closed = false;
  };
  Inbox inbox_;

  /// Coordinator-assigned frame ids, one id-space for every kind (the
  /// SAME id goes to every shard — separate connections, so no
  /// collision is possible).
  uint64_t next_id_ = 1;
  /// Dispatch's encode buffer, reused: a fan-out's frame is encoded
  /// once and the same bytes go to every live shard.
  std::vector<uint8_t> frame_;
  /// Fan-outs still waiting on at least one shard.
  std::unordered_map<uint64_t, Pending> pending_;
  /// Ids whose outstanding count hit zero mid-sweep; completed (and
  /// erased) together afterwards so no code path mutates the map
  /// while another is iterating it.
  std::vector<uint64_t> finished_;

  std::atomic<size_t> in_flight_{0};

  std::thread thread_;
  bool started_ = false;
};

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_COORDINATOR_H_
