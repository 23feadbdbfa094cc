#ifndef GEMREC_NET_SERVER_H_
#define GEMREC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/net_metrics.h"
#include "net/wire.h"
#include "serving/ingestion_queue.h"
#include "serving/query_backend.h"

namespace gemrec::net {

class Reactor;

struct ServerOptions {
  /// IPv4 address to bind; tests and the bench use 127.0.0.1.
  std::string listen_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port (collision-free by
  /// construction — the CI-safe default; read it back via port()).
  uint16_t port = 0;
  /// Fixed-port binds retry EADDRINUSE this many times before failing,
  /// so a just-restarted server survives a lingering TIME_WAIT socket.
  uint32_t bind_retries = 5;
  std::chrono::milliseconds bind_retry_delay{200};

  /// Event-loop threads. Each reactor owns a SO_REUSEPORT listener on
  /// the same port (the kernel load-balances accepts across them), a
  /// private connection table with per-connection decode/write
  /// buffers, and a private completion queue — no state is shared
  /// between reactors beyond the atomic admission counters and the
  /// registry metrics. 1 reproduces the old single-threaded front-end
  /// exactly; `gemrec serve` defaults to min(4, hw_concurrency).
  uint32_t num_reactors = 1;

  /// Across ALL reactors (enforced through one shared atomic).
  uint32_t max_connections = 1024;
  /// Admission budget: requests accepted onto the service but not yet
  /// answered, across all connections and reactors. Beyond it,
  /// requests are shed with a typed OVERLOADED error instead of
  /// queueing unboundedly.
  uint32_t max_in_flight = 256;
  /// Second admission gate: shed when the service itself reports this
  /// much saturation (queue depth + in-flight) — real backpressure
  /// from QueryBackend::QueueDepth/InFlight, not a guess.
  size_t max_service_saturation = 1024;
  /// Per-connection write-buffer cap. A peer that stops reading while
  /// responses accumulate past this is disconnected (slow-reader
  /// protection) rather than ballooning server memory.
  size_t max_write_buffer = 1 << 20;
  /// A peer that starts a frame must finish it within this window.
  std::chrono::milliseconds read_timeout{2000};
  /// Connections with nothing pending are closed after this silence.
  std::chrono::milliseconds idle_timeout{60000};
  /// Graceful-drain budget: after a drain request, in-flight responses
  /// get this long to flush before remaining connections are cut.
  std::chrono::milliseconds drain_timeout{5000};
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default.
  /// Tests shrink it to provoke the slow-reader path deterministically.
  int so_sndbuf = 0;
};

/// Multi-reactor epoll TCP front-end for a serving::QueryBackend —
/// either a local RecommendationService or a shard::CoordinatorBackend
/// (the scatter-gather tier reuses this exact front-end):
/// num_reactors event-loop threads, each owning a SO_REUSEPORT
/// listening socket plus the complete lifecycle of every connection
/// the kernel hashes to it, speaking the wire.h framed protocol (every
/// response echoes its request's frame id). Decoded queries bridge
/// into QueryBackend::SubmitAsync; completions hop back to the OWNING
/// reactor through its private wakeup queue — reactors never touch
/// each other's connections, so the hot path has no cross-reactor
/// lock. Workers never touch a socket.
///
/// Overload behaviour is fail-fast by design: admission control (the
/// shared in-flight budget plus the service's own saturation gauges)
/// sheds excess requests with typed OVERLOADED errors, partial frames
/// and silent connections are timed out, peers that stop reading are
/// disconnected once their write buffer hits the cap, and an
/// fd-exhausted listener refuses pending connections through a
/// reserved spare fd instead of spinning. A saturated server therefore
/// answers or closes within the read timeout — it never queues
/// unboundedly.
///
/// Shutdown: RequestDrain (or the async-signal-safe
/// NotifyDrainFromSignal) fans out to every reactor: acceptors close,
/// in-flight requests finish and flush (bounded by drain_timeout), and
/// draining connections keep READING so kPing/kStatsRequest probes are
/// still answered — everything else gets a typed SHUTTING_DOWN.
/// WaitUntilStopped blocks until every reactor exited; Stop also joins
/// the threads.
class NetServer {
 public:
  /// `service` (and `ingest`, when given) must outlive the server.
  /// With an ingestion queue attached, kAttendance/kNewEvent frames
  /// bridge into IngestionQueue::SubmitAsync and are answered with
  /// kIngestAck frames once durable and applied; without one they get
  /// kBadRequest ("ingestion disabled"), so a read-only server keeps
  /// its exact pre-write-path behaviour.
  NetServer(serving::QueryBackend* service, const ServerOptions& options,
            serving::IngestionQueue* ingest = nullptr);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens (one SO_REUSEPORT socket per reactor, all on the
  /// same resolved port) + starts the reactor threads.
  Status Start();

  /// Bound port (after a successful Start; resolves port 0 requests).
  uint16_t port() const { return bound_port_; }

  /// Begins graceful drain on every reactor: stop accepting, refuse
  /// new work with SHUTTING_DOWN (stats/ping still answered), flush
  /// in-flight responses, then stop.
  void RequestDrain();

  /// Async-signal-safe drain trigger for SIGINT/SIGTERM handlers.
  void NotifyDrainFromSignal();

  /// Blocks until every reactor has exited (drain complete).
  void WaitUntilStopped();

  /// RequestDrain + join all reactors. Idempotent; also called by the
  /// destructor.
  void Stop();

  /// True while at least one reactor thread is still running.
  bool running() const;

  /// The registry everything is recorded into — the owning service's
  /// (service->metrics()), which kStatsRequest frames serialize. The
  /// gemrec_net_* counters aggregate across reactors; per-reactor
  /// gemrec_net_reactor{r}_* metrics break them down.
  obs::MetricsRegistry* metrics_registry() const;

 private:
  serving::QueryBackend* service_;
  /// Write path; nullptr = ingestion disabled (read-only server).
  serving::IngestionQueue* ingest_;
  ServerOptions options_;
  uint16_t bound_port_ = 0;

  /// Shared admission state: every reactor admits against the same
  /// budget, so the documented max_in_flight/max_connections limits
  /// stay global regardless of how the kernel spreads connections.
  std::atomic<uint32_t> total_in_flight_{0};
  std::atomic<uint32_t> total_connections_{0};

  std::vector<std::unique_ptr<Reactor>> reactors_;

  internal::NetMetrics metrics_;
  bool started_ = false;
};

/// Splits "host:port" (host may be empty -> 127.0.0.1). Fails on a
/// missing/invalid port; the port substring must be all digits (no
/// sign, no whitespace — strtoul's leniency let "host: 80" and
/// "host:+80" slip through once).
Status ParseHostPort(const std::string& spec, std::string* host,
                     uint16_t* port);

}  // namespace gemrec::net

#endif  // GEMREC_NET_SERVER_H_
