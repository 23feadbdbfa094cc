#ifndef GEMREC_NET_CLIENT_H_
#define GEMREC_NET_CLIENT_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "serving/recommendation_service.h"

namespace gemrec::net {

struct ClientOptions {
  std::chrono::milliseconds connect_timeout{5000};
  /// Per-recv/send timeout; a stalled server turns into an IoError
  /// instead of a hang.
  std::chrono::milliseconds io_timeout{5000};
  /// SO_RCVBUF before connect; 0 keeps the kernel default. Tests
  /// shrink it to act as a deliberately slow reader.
  int so_rcvbuf = 0;
};

/// One application-level reply: either a query response or a typed
/// server error (e.g. kOverloaded from admission control). Transport
/// and protocol failures surface as Status errors instead.
struct QueryOutcome {
  bool ok = false;
  serving::QueryResponse response;  // valid when ok
  ErrorCode error = ErrorCode::kInternal;  // valid when !ok
  std::string error_message;
};

/// One write-path reply: the journal sequence number of a durable,
/// applied record, or the server's typed refusal (kOverloaded when the
/// ingest queue shed the write, kBadRequest for bogus ids/signals).
struct IngestOutcome {
  bool ok = false;
  uint64_t seq = 0;                        // valid when ok
  ErrorCode error = ErrorCode::kInternal;  // valid when !ok
  std::string error_message;
};

/// One reply pulled off a pipelined connection: the frame id it
/// answers (echoed by the server from the matching SendTagged), plus
/// the outcome. A kStatsResponse (answering a tagged kStatsRequest on
/// the same pipelined connection, sent with SendAll) arrives with
/// `is_stats` set and `stats` filled; `outcome` is meaningful
/// otherwise.
struct TaggedReply {
  uint64_t frame_id = 0;
  bool is_stats = false;
  obs::MetricsSnapshot stats;  // valid when is_stats
  QueryOutcome outcome;        // valid when !is_stats
};

/// Blocking client for the wire.h protocol — the reference peer used
/// by tests, perfbench's stats scrapes, and one-liner scripting against
/// `gemrec serve --listen`. One socket; every request frame carries a
/// u64 frame id the server echoes, so many requests may be in flight
/// at once and complete OUT OF ORDER: issue ids with SendTagged, then
/// match replies by TaggedReply::frame_id from ReceiveAny. The
/// lockstep verbs (Query/Send/Receive/...) are thin wrappers that
/// auto-assign ids and read one reply per request.
///
/// Not thread-safe: each thread that talks to a server opens its own
/// client (and with it its own connection).
class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port,
      const ClientOptions& options = {});

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send + Receive in one call.
  Result<QueryOutcome> Query(const serving::QueryRequest& request);

  /// Writes one request frame (pipelining half; auto-assigned id).
  Status Send(const serving::QueryRequest& request);

  /// Reads the next response/error frame (whatever id it carries).
  Result<QueryOutcome> Receive();

  /// Pipelining/multiplexing half-pair. SendTagged writes one query
  /// frame carrying the caller-chosen `frame_id`; ReceiveAny blocks
  /// for the NEXT response or error frame — in completion order, not
  /// send order — and surfaces its echoed id for the caller to match.
  Status SendTagged(const serving::QueryRequest& request,
                    uint64_t frame_id);
  Result<TaggedReply> ReceiveAny();

  /// Deadline-aware ReceiveAny: waits at most `timeout` for the next
  /// reply, poll-based — independent of (and typically much shorter
  /// than) the socket-level io_timeout. Returns Status::Timeout (NOT
  /// IoError) when the deadline elapses with no complete frame; the
  /// connection stays usable and buffered partial frames are kept, so
  /// the caller may simply wait again. `timeout` <= 0 drains without
  /// blocking: a buffered complete frame if one is ready, else
  /// Timeout. This is the coordinator's per-shard-deadline primitive:
  /// a parked shard costs exactly the deadline, never the io_timeout.
  Result<TaggedReply> ReceiveAny(std::chrono::milliseconds timeout);

  /// Write path. Attend reports "user registered for event" (new_user
  /// folds in a cold user vector seeded by the event); PublishNewEvent
  /// streams a just-published event's fold-in signals. Both block for
  /// the kIngestAck — the record is durable and retrievable-after-
  /// next-publish once they return ok. The Send/Receive halves are
  /// split for pipelining, like queries.
  Result<IngestOutcome> Attend(ebsn::UserId user, ebsn::EventId event,
                               bool new_user = false);
  Result<IngestOutcome> PublishNewEvent(
      ebsn::EventId event, const embedding::NewEventSignals& signals);
  Status SendAttendance(ebsn::UserId user, ebsn::EventId event,
                        bool new_user = false);
  Status SendNewEvent(ebsn::EventId event,
                      const embedding::NewEventSignals& signals);
  Result<IngestOutcome> ReceiveIngestAck();

  /// Round-trips a ping frame (health check).
  Status Ping();

  /// Fetches the server's metrics snapshot (counters, gauges and
  /// latency histograms) via the kStats wire pair. Works even against
  /// a draining or overloaded server. Help strings stay server-side,
  /// so returned metrics carry empty `help`.
  Result<obs::MetricsSnapshot> Stats();

  /// Writes `n` already-encoded bytes, e.g. one frame encoded once and
  /// sent to several servers.
  Status SendAll(const uint8_t* data, size_t n);

  /// Non-blocking SendAll: writes what the socket takes now and keeps
  /// the unsent remainder, byte for byte, in one reusable buffer
  /// (queued()). Behind a non-empty remainder the bytes only queue, so
  /// frames leave in call order. An error means the connection is
  /// unusable. The caller flushes the remainder with FlushQueued once
  /// the socket is writable again (EPOLLOUT).
  Status SendNonBlocking(const uint8_t* data, size_t n);
  /// Writes as much of the remainder as the socket takes without
  /// blocking.
  Status FlushQueued();
  /// Bytes accepted by SendNonBlocking that the socket has not taken.
  size_t queued() const { return out_.size(); }

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Blocks until one complete frame is decoded.
  Result<Frame> ReceiveFrame();
  /// Poll-based ReceiveFrame with a hard deadline (Status::Timeout).
  Result<Frame> ReceiveFrameWithin(std::chrono::milliseconds timeout);
  /// Maps one response/error/stats frame to a TaggedReply.
  Result<TaggedReply> DecodeReply(Frame frame);
  FrameTag NextTag() { return FrameTag{true, next_frame_id_++}; }

  int fd_ = -1;
  FrameDecoder decoder_;
  /// Auto-assigned ids for the lockstep wrappers; SendTagged callers
  /// choose their own id space (collisions with these are harmless —
  /// the server echoes blindly, matching is entirely client-side).
  uint64_t next_frame_id_ = 1;
  /// SendNonBlocking's unsent remainder.
  std::vector<uint8_t> out_;
};

}  // namespace gemrec::net

#endif  // GEMREC_NET_CLIENT_H_
