#ifndef GEMREC_NET_WIRE_H_
#define GEMREC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serving/ingest_journal.h"
#include "serving/recommendation_service.h"

namespace gemrec::net {

/// Length-prefixed binary frame carried over TCP (all integers
/// little-endian, matching the GEMREC02 artifact convention). One
/// layout, wire version 2:
///
///   [0, 4)        magic "GMNP"
///   [4]           wire version = 2 (kWireVersion)
///   [5]           message type
///   [6, 8)        reserved, must be zero
///   [8, 12)       payload size N (<= kMaxPayload)
///   [12, 20)      frame id (u64, chosen by the requester)
///   [20, 20+N)    payload
///   [20+N, 24+N)  CRC32C over bytes [0, 20+N)  (common/crc32c)
///
/// The server echoes the request's frame id verbatim in the answering
/// kQueryResponse/kIngestAck/kError/kPong/kStatsResponse, so one
/// connection carries many in-flight requests completing out of
/// order. The CRC covers header AND payload, so a flipped byte
/// anywhere in a frame — including the length field itself — is
/// rejected before the payload is interpreted. Magic, version,
/// reserved bytes and size are validated as soon as the size field
/// arrives: a bad header poisons the connection immediately instead
/// of waiting for a bogus length, and any version byte other than 2
/// is answered with a typed kBadRequest error frame (frame id 0)
/// before the server closes the connection.
inline constexpr uint32_t kMagic = 0x504E4D47u;  // "GMNP" little-endian
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kHeaderSize = 20;
inline constexpr size_t kTrailerSize = 4;
inline constexpr size_t kMaxPayload = 1u << 20;  // 1 MiB
/// Largest top-n a query may request; keeps every response frame well
/// under kMaxPayload (17 + 12n bytes of payload).
inline constexpr uint32_t kMaxTopN = 4096;
/// Largest word list a kNewEvent frame may carry (20 + 8w payload
/// bytes, so the cap keeps new-event frames well under kMaxPayload).
inline constexpr uint32_t kMaxIngestWords = 4096;
/// Largest partner set a kGroup query request may carry (21 + 4g
/// payload bytes).
inline constexpr uint32_t kMaxGroupMembers = 256;

enum class MessageType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  /// Remote observability: an empty kStatsRequest frame is answered
  /// with a kStatsResponse carrying the server's full metrics
  /// snapshot (counters, gauges and latency histograms). Served even
  /// while draining or overloaded — that is when operators need it.
  kStatsRequest = 6,
  kStatsResponse = 7,
  /// Write path. kAttendance carries "user registered for event",
  /// kNewEvent a just-published event's fold-in signals; the server
  /// answers each with kIngestAck (the record's journal sequence
  /// number) once the write is durable and applied, or with a typed
  /// kError (kOverloaded under write-side admission control).
  kAttendance = 8,
  kNewEvent = 9,
  kIngestAck = 10,
};

/// Typed application errors carried in kError frames. These travel to
/// well-behaved clients instead of a dropped connection: an overloaded
/// server answers kOverloaded within the read timeout rather than
/// queueing the request unboundedly.
enum class ErrorCode : uint16_t {
  kOverloaded = 1,    // admission control shed the request
  kBadRequest = 2,    // frame was sound but the payload was not
  kShuttingDown = 3,  // server is draining; retry elsewhere/later
  kInternal = 4,
};

const char* ErrorCodeName(ErrorCode code);

/// The frame id a responder echoes: it passes the request frame's
/// tag() straight into the Append* encoders below.
struct FrameTag {
  /// Always true: every frame carries an id. Kept only because the
  /// benchmark harness in perfbench/ builds FrameTag{true, id} and
  /// reads Frame::tagged; encoders ignore it.
  bool tagged = true;
  uint64_t frame_id = 0;
};

struct Frame {
  MessageType type = MessageType::kPing;
  std::vector<uint8_t> payload;
  /// Always true for decoded frames; see FrameTag::tagged.
  bool tagged = true;
  /// The requester-chosen id to echo back.
  uint64_t frame_id = 0;
  FrameTag tag() const { return FrameTag{tagged, frame_id}; }
};

/// Appends one complete frame (header carrying tag.frame_id + payload
/// + CRC trailer) to `out`, letting `out` grow geometrically so many
/// frames appended to one buffer cost amortised O(1) reallocations.
/// Payload larger than kMaxPayload is a programming error.
void AppendFrame(MessageType type, const uint8_t* payload, size_t n,
                 const FrameTag& tag, std::vector<uint8_t>* out);

/// Payload codecs. Encoders append a full frame; decoders take the
/// payload bytes of an already-CRC-verified frame — the frame id,
/// living in the header, never appears here.
///
/// Query request payload (21 + 4g bytes): u32 user, u32 n, u64
/// filter_hash, u8 flags (bit0 = bypass cache), u8 kind (a
/// QueryKind; anything else is InvalidArgument, which the server
/// answers with a typed kBadRequest), u8 aggregator, u16 group count
/// g (kGroup: 1 .. kMaxGroupMembers; other kinds: 0), then g u32
/// member ids.
void AppendQueryRequestFrame(const serving::QueryRequest& request,
                             const FrameTag& tag, std::vector<uint8_t>* out);
Status DecodeQueryRequest(const uint8_t* payload, size_t n,
                          serving::QueryRequest* out);

/// Query response payload (17 + 12c bytes, checked exactly): u64
/// epoch, u8 flags (bit0 = cache hit, bit1 = partial: the merge is
/// missing at least one shard's slice), u32 item count c, c x (u32
/// event, u32 partner, f32 score), then the f32 ta_bound trailer —
/// the responding search's unreturned-score bound. Only kOk
/// responses travel as kQueryResponse; every other ResponseCode is
/// sent as a kError frame.
void AppendQueryResponseFrame(const serving::QueryResponse& response,
                              const FrameTag& tag,
                              std::vector<uint8_t>* out);
Status DecodeQueryResponse(const uint8_t* payload, size_t n,
                           serving::QueryResponse* out);

void AppendErrorFrame(ErrorCode code, std::string_view message,
                      const FrameTag& tag, std::vector<uint8_t>* out);
Status DecodeError(const uint8_t* payload, size_t n, ErrorCode* code,
                   std::string* message);

/// Stats pair. The request carries no payload; the response payload
/// serializes an obs::MetricsSnapshot (little-endian, like every
/// other payload): u32 metric count, then per metric a u8 type, a
/// u16-length-prefixed name, and a type-specific body — u64 for
/// counters, i64 for gauges, and (u64 count, u64 sum, u16 nonzero
/// bucket count, (u8 bucket index, u64 bucket count)...) for
/// histograms (buckets are sparse: only nonzero entries travel).
/// Help strings stay server-side.
void AppendStatsRequestFrame(const FrameTag& tag, std::vector<uint8_t>* out);
Status DecodeStatsRequest(const uint8_t* payload, size_t n);

void AppendStatsResponseFrame(const obs::MetricsSnapshot& snapshot,
                              const FrameTag& tag,
                              std::vector<uint8_t>* out);
Status DecodeStatsResponse(const uint8_t* payload, size_t n,
                           obs::MetricsSnapshot* out);

/// Ingest frames. kAttendance payload (9 bytes): u32 user, u32 event,
/// u8 flags (bit0 = new user → cold-user fold-in instead of a nudge).
/// kNewEvent payload (20 + 8w bytes): u32 event, u32 region
/// (ebsn::kInvalidId when unknown), i64 start_time, u32 word count
/// (<= kMaxIngestWords), then per word u32 id + u32 float bits of its
/// weight. kIngestAck payload (8 bytes): u64 journal sequence number.
/// The decoders fill a serving::IngestRecord ready for the ingestion
/// queue (seq stays 0 — the queue assigns it).
void AppendAttendanceFrame(ebsn::UserId user, ebsn::EventId event,
                           bool new_user, const FrameTag& tag,
                           std::vector<uint8_t>* out);
Status DecodeAttendance(const uint8_t* payload, size_t n,
                        serving::IngestRecord* out);

void AppendNewEventFrame(ebsn::EventId event,
                         const embedding::NewEventSignals& signals,
                         const FrameTag& tag, std::vector<uint8_t>* out);
Status DecodeNewEvent(const uint8_t* payload, size_t n,
                      serving::IngestRecord* out);

void AppendIngestAckFrame(uint64_t seq, const FrameTag& tag,
                          std::vector<uint8_t>* out);
Status DecodeIngestAck(const uint8_t* payload, size_t n, uint64_t* seq);

/// Incremental frame parser — the receive half of a connection's state
/// machine. Feed() accepts bytes in arbitrary fragments (a frame may
/// arrive one byte at a time across many reads); complete, CRC-clean
/// frames become poppable via Next(). Any protocol violation (bad
/// magic/version/reserved, oversized length, CRC mismatch) makes the
/// decoder sticky-failed: Feed() keeps returning the first error and
/// the connection must be torn down.
class FrameDecoder {
 public:
  /// Appends bytes and parses as many complete frames as they finish.
  Status Feed(const uint8_t* data, size_t n);

  /// Pops the next complete frame; false when none is pending.
  bool Next(Frame* out);

  /// True when buffered bytes form only part of a frame — the signal
  /// the server's read timeout watches (a peer that starts a frame
  /// must finish it promptly).
  bool mid_frame() const { return ok() && buffer_.size() > pos_; }

  bool ok() const { return error_.ok(); }
  const Status& error() const { return error_; }

 private:
  Status Parse();

  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;  // consumed prefix of buffer_
  std::deque<Frame> frames_;
  Status error_;
};

}  // namespace gemrec::net

#endif  // GEMREC_NET_WIRE_H_
