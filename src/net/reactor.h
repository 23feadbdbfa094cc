#ifndef GEMREC_NET_REACTOR_H_
#define GEMREC_NET_REACTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/event_loop.h"
#include "net/net_metrics.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serving/ingestion_queue.h"
#include "serving/query_backend.h"

namespace gemrec::net {

/// One event-loop thread of the multi-reactor front-end. A reactor
/// exclusively owns: its epoll EventLoop, one SO_REUSEPORT listening
/// socket, every connection it accepted — table, decode buffers,
/// write buffers — and the completion queue worker callbacks route
/// responses back through. Nothing here is touched by another
/// reactor; the only cross-reactor state is the pair of atomic
/// admission counters and the shared registry metrics, both
/// concurrency-safe by construction.
class Reactor {
 public:
  /// Dependencies shared across all reactors of one NetServer; every
  /// pointer must outlive the reactor.
  struct Shared {
    serving::QueryBackend* service = nullptr;
    serving::IngestionQueue* ingest = nullptr;
    const ServerOptions* options = nullptr;
    internal::NetMetrics* metrics = nullptr;
    std::atomic<uint32_t>* total_in_flight = nullptr;
    std::atomic<uint32_t>* total_connections = nullptr;
  };

  Reactor(uint32_t index, const Shared& shared);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Takes ownership of `listen_fd` (already bound + listening) and
  /// spawns the loop thread.
  void Start(int listen_fd);

  /// Async-signal-safe: atomic store + eventfd write.
  void RequestDrain();

  /// Blocks until the loop thread has exited.
  void WaitUntilStopped();

  /// Joins the loop thread (after a drain request).
  void Join();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint32_t index() const { return index_; }

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    /// Pending outbound bytes ([write_pos, buf.size()) unsent).
    std::vector<uint8_t> write_buf;
    size_t write_pos = 0;
    size_t pending_write() const { return write_buf.size() - write_pos; }
    /// Requests submitted to the service, responses not yet queued.
    uint32_t in_flight = 0;
    uint32_t interest = 0;    // currently registered epoll mask
    /// Draining: reads stay ALIVE (kPing/kStatsRequest probes are
    /// still answered) but every other frame gets kShuttingDown; the
    /// connection closes once nothing is in flight or pending.
    bool draining = false;
    /// Doomed: torn down by the dispatcher at a safe point (never
    /// mid-callstack, so no use-after-free inside frame handling).
    bool dead = false;
    std::chrono::steady_clock::time_point last_activity;
    /// Set while decoder.mid_frame(): when the current partial frame
    /// started arriving (read-timeout anchor).
    std::chrono::steady_clock::time_point partial_since;
    bool has_partial = false;
  };

  /// Completed service responses travel worker -> owning reactor
  /// through this queue. shared_ptr-owned so a response that completes
  /// after the reactor died is dropped safely instead of touching
  /// freed state.
  struct Completion {
    uint64_t conn_id = 0;
    serving::QueryResponse response;
    /// When the query frame was decoded (round-trip histogram anchor).
    std::chrono::steady_clock::time_point received_at;
    /// Echoed into the response frame (pipelining).
    FrameTag tag;
    /// Ingest acks ride the same queue: `is_ingest` selects the
    /// ack/error encoding instead of the query-response one.
    bool is_ingest = false;
    Status ingest_status;
    uint64_t ingest_seq = 0;
    /// Stats answers ride the queue too (QueryBackend::StatsAsync may
    /// complete from another thread — a coordinator fans kStatsRequest
    /// out to its shards). Stats completions hold conn->in_flight (a
    /// draining connection must stay open until the answer flushes)
    /// but never the total_in_flight admission budget.
    bool is_stats = false;
    obs::MetricsSnapshot stats;
  };
  struct CompletionQueue {
    std::mutex mu;
    std::vector<Completion> items;
    bool closed = false;
    EventLoop* loop = nullptr;  // null once closed
  };

  void Loop();
  void EnterDrain(std::chrono::steady_clock::time_point now);
  void HandleAccept();
  /// Register an accepted fd as a connection owned here.
  void AdoptConnection(int fd);
  void HandleReadable(Connection* conn);
  void HandleFrame(Connection* conn, const Frame& frame);
  void SendError(Connection* conn, ErrorCode code, std::string_view msg,
                 const FrameTag& tag);
  /// Flush + slow-reader cap check after any frame lands in write_buf.
  void AfterQueue(Connection* conn);
  void FlushWrites(Connection* conn);
  void DrainCompletions();
  /// Encodes a query completion: a response frame for kOk, the typed
  /// kError frame of the same name for every other ResponseCode.
  void RespondToQuery(Connection* conn, const Completion& completion);
  void SweepTimeouts(std::chrono::steady_clock::time_point now);
  int PollTimeoutMs(std::chrono::steady_clock::time_point now) const;
  void UpdateInterest(Connection* conn);
  void CloseConnection(Connection* conn);
  Connection* FindConnection(uint64_t id);
  const ServerOptions& options() const { return *shared_.options; }
  internal::NetMetrics& metrics() { return *shared_.metrics; }

  const uint32_t index_;
  Shared shared_;
  EventLoop loop_;
  int listen_fd_ = -1;
  /// EMFILE insurance: a reserved /dev/null fd burned to accept+close
  /// the pending connection when the process is out of fds, so a
  /// level-triggered listener cannot stay readable-forever and spin.
  int spare_fd_ = -1;
  /// Last-resort EMFILE handling when even the spare fd is gone: the
  /// listener is deregistered and re-armed after a short pause.
  bool listen_parked_ = false;
  std::chrono::steady_clock::time_point listen_rearm_at_;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  std::shared_ptr<CompletionQueue> completions_;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;

  /// Per-reactor breakdown of the shared counters
  /// (gemrec_net_reactor{r}_owned_total / _connections).
  obs::Counter* owned_total_ = nullptr;
  obs::Gauge* owned_connections_ = nullptr;

  std::atomic<bool> running_{false};
  std::mutex lifecycle_mu_;
  std::condition_variable stopped_cv_;
  std::thread loop_thread_;
  bool started_ = false;
};

}  // namespace gemrec::net

#endif  // GEMREC_NET_REACTOR_H_
