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
  /// one parked shard. It also bounds a shard connect (startup and
  /// re-probe), how long a send remainder may wait for a shard to read
  /// it, and how long the idle router thread sleeps.
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
/// One persistent pipelined GMNP connection per shard. Every fan-out
/// — a query or a kStatsRequest — is one pending record keyed by the
/// frame id it sends to every shard: per-shard reply slots, one send
/// time, one deadline. Replies are collected in completion order via
/// nonblocking drains (Client::ReceiveAny(0ms)), and the record
/// completes once every shard has answered, failed, or missed the
/// deadline. A query completes with the merged top-k (merger.h); a
/// stats scrape with the coordinator's own registry plus every
/// answering shard's snapshot with a {shard="i"} suffix appended to
/// each metric name, so one scrape sees the whole tier. Stats ride the
/// async StatsAsync path, so they are answered even while the
/// front-end drains.
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
/// and send the fan-out themselves, on the calling thread (a front
/// reactor), under the one coordinator mutex: they assign the frame
/// id, encode the frame once, send it to every live shard and register
/// the pending record. The router thread (net::EventLoop over the
/// shard connections) only drains replies, sweeps deadlines and
/// re-probes evicted shards. A submission never wakes it: it sleeps at
/// most shard_deadline, and a fan-out registered meanwhile is due no
/// sooner, so the sweep still catches it on time. Three rules keep a
/// submitter from ever waiting on a shard:
///  * Sends never block. What a shard's socket does not take waits in
///    that connection's remainder buffer, which the router flushes on
///    EPOLLOUT; a remainder the shard reads none of for shard_deadline
///    strikes it as broken, as a failed send does.
///  * No blocking call holds the mutex: a re-probe's connect runs with
///    it released, and only the new connection is installed under it.
///  * Callbacks run outside the mutex, on whichever thread finished the
///    fan-out (the router for replies and deadlines; the submitter when
///    no shard was live). They must not block, and may submit again.
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
  /// Always 0: a submission is sent before SubmitAsync returns.
  size_t QueueDepth() const override { return 0; }
  /// Queries sent, awaiting shard replies.
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
    /// When the client's send remainder became non-empty or last
    /// shrank.
    TimePoint queued_since;
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

  // Every method named "...Locked" runs with mu_ held; the others take
  // it themselves or touch nothing it guards.

  void Loop();
  /// Sends a submitted fan-out on the calling thread, or completes it
  /// as shut down once Stop began.
  void Submit(Pending pending);
  /// Sends the fan-out to every live shard and registers it; a fan-out
  /// no shard took goes straight to `done`.
  void DispatchLocked(Pending pending, TimePoint now,
                      std::vector<Pending>* done);
  /// Drains every complete frame buffered on shard `index` without
  /// blocking; a transport error evicts the shard.
  void DrainShardLocked(uint32_t index, TimePoint now);
  /// Sends what shard `index`'s socket takes of its remainder.
  void FlushShardLocked(uint32_t index, TimePoint now);
  void HandleReplyLocked(uint32_t index, net::TaggedReply reply,
                         TimePoint now);
  /// Marks deadline misses and strikes the shards involved; strikes a
  /// shard whose send remainder outlived the deadline as broken.
  void SweepDeadlinesLocked(TimePoint now);
  /// Connects shard `index` with the mutex released, then installs the
  /// connection (or schedules the next re-probe) under it.
  void Reprobe(uint32_t index);
  /// Registers a connected client as shard `index`'s connection.
  void InstallLocked(uint32_t index, std::unique_ptr<net::Client> client);
  /// One failure strike; opens the breaker at the threshold.
  /// `connection_broken` forces an immediate eviction (the transport
  /// is unusable regardless of the count).
  void StrikeShardLocked(uint32_t index, bool connection_broken,
                         TimePoint now);
  /// Opens the breaker: drops the connection, schedules the re-probe
  /// and fails every pending slot still waiting on the shard.
  void EvictShardLocked(uint32_t index, TimePoint now);
  /// Stops waiting on shard `index` for fan-out `id`; marks the
  /// fan-out finished when it was the last slot.
  void CloseSlotLocked(uint64_t id, Pending& pending, uint32_t index);
  /// Moves every finished fan-out out of pending_ into `done`.
  void TakeFinishedLocked(std::vector<Pending>* done);
  /// Completes each fan-out of `done` (the mutex released) and clears
  /// it.
  void Finish(std::vector<Pending>* done);
  /// A query completes with the merged top-k, a stats scrape with the
  /// coordinator's snapshot plus the shards' {shard="i"} rollups.
  void Complete(Pending pending);
  /// Shutdown: a query gets kShuttingDown, a stats scrape what it has.
  void Abandon(Pending pending);
  /// Poll timeout until the nearest deadline or re-probe, at most
  /// shard_deadline.
  int NextTimeoutMsLocked(TimePoint now) const;

  std::unique_ptr<obs::MetricsRegistry> registry_;
  RouterOptions options_;
  /// Every shard connection's connect timeout (shard_deadline).
  net::ClientOptions client_options_;

  obs::Counter* queries_total_ = nullptr;
  obs::Counter* partial_results_total_ = nullptr;
  obs::Counter* deadline_misses_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;

  net::EventLoop loop_;

  /// Guards everything below except in_flight_ and the router thread.
  mutable std::mutex mu_;
  std::vector<ShardState> shards_;
  /// Set by Stop: no fan-out is sent after it.
  bool closed_ = false;
  /// Coordinator-assigned frame ids, one id-space for every kind (the
  /// SAME id goes to every shard — separate connections, so no
  /// collision is possible).
  uint64_t next_id_ = 1;
  /// The encode buffer, reused: a fan-out's frame is encoded once and
  /// the same bytes go to every live shard.
  std::vector<uint8_t> frame_;
  /// Fan-outs still waiting on at least one shard.
  std::unordered_map<uint64_t, Pending> pending_;
  /// Ids whose outstanding count hit zero; moved out of pending_
  /// together afterwards so no code path mutates the map while
  /// another is iterating it.
  std::vector<uint64_t> finished_;

  std::atomic<size_t> in_flight_{0};

  std::thread thread_;
  bool started_ = false;
};

}  // namespace gemrec::shard

#endif  // GEMREC_SHARD_COORDINATOR_H_
