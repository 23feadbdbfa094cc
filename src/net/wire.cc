#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "common/logging.h"

namespace gemrec::net {
namespace {

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

float BitsFloat(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Header field offsets (layout in wire.h).
constexpr size_t kVersionOffset = 4;
constexpr size_t kTypeOffset = 5;
constexpr size_t kReservedOffset = 6;
constexpr size_t kSizeOffset = 8;
constexpr size_t kFrameIdOffset = 12;

constexpr uint8_t kRequestFlagBypassCache = 1u << 0;
constexpr uint8_t kResponseFlagCacheHit = 1u << 0;
/// The merge is missing at least one shard (see wire.h).
constexpr uint8_t kResponseFlagPartial = 1u << 1;
/// user, n, filter_hash, flags, kind, aggregator, group count.
constexpr size_t kQueryRequestFixed = 21;
constexpr size_t kQueryRequestMemberStride = 4;
constexpr size_t kQueryResponseFixed = 13;    // epoch, flags, count
constexpr size_t kQueryResponseStride = 12;   // event, partner, score
constexpr size_t kQueryResponseBound = 4;     // fp32 ta_bound trailer
constexpr size_t kErrorFixed = 2;             // code; message is the rest
constexpr uint8_t kAttendanceFlagNewUser = 1u << 0;
constexpr size_t kAttendancePayload = 9;      // user, event, flags
constexpr size_t kNewEventFixed = 20;         // event, region, time, count
constexpr size_t kNewEventWordStride = 8;     // word id, weight bits
constexpr size_t kIngestAckPayload = 8;       // seq

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded: return "Overloaded";
    case ErrorCode::kBadRequest: return "BadRequest";
    case ErrorCode::kShuttingDown: return "ShuttingDown";
    case ErrorCode::kInternal: return "Internal";
  }
  return "Unknown";
}

void AppendFrame(MessageType type, const uint8_t* payload, size_t n,
                 const FrameTag& tag, std::vector<uint8_t>* out) {
  GEMREC_CHECK(n <= kMaxPayload)
      << "frame payload " << n << " exceeds kMaxPayload";
  const size_t start = out->size();
  PutU32(kMagic, out);
  out->push_back(kWireVersion);
  out->push_back(static_cast<uint8_t>(type));
  PutU16(0, out);  // reserved
  PutU32(static_cast<uint32_t>(n), out);
  PutU64(tag.frame_id, out);
  if (n > 0) out->insert(out->end(), payload, payload + n);
  const uint32_t crc = Crc32c(out->data() + start, kHeaderSize + n);
  PutU32(crc, out);
}

void AppendQueryRequestFrame(const serving::QueryRequest& request,
                             const FrameTag& tag,
                             std::vector<uint8_t>* out) {
  GEMREC_CHECK(request.group.size() <= kMaxGroupMembers)
      << "group of " << request.group.size() << " exceeds "
      << kMaxGroupMembers;
  std::vector<uint8_t> payload;
  payload.reserve(kQueryRequestFixed +
                  kQueryRequestMemberStride * request.group.size());
  PutU32(request.user, &payload);
  PutU32(request.n, &payload);
  PutU64(request.filter_hash, &payload);
  payload.push_back(request.bypass_cache ? kRequestFlagBypassCache : 0);
  payload.push_back(static_cast<uint8_t>(request.kind));
  payload.push_back(static_cast<uint8_t>(request.aggregator));
  PutU16(static_cast<uint16_t>(request.group.size()), &payload);
  for (const ebsn::UserId m : request.group) PutU32(m, &payload);
  AppendFrame(MessageType::kQueryRequest, payload.data(), payload.size(),
              tag, out);
}

Status DecodeQueryRequest(const uint8_t* payload, size_t n,
                          serving::QueryRequest* out) {
  if (n < kQueryRequestFixed) {
    return Status::InvalidArgument("query request payload must be >= " +
                                   std::to_string(kQueryRequestFixed) +
                                   " bytes, got " + std::to_string(n));
  }
  out->user = GetU32(payload);
  out->n = GetU32(payload + 4);
  out->filter_hash = GetU64(payload + 8);
  const uint8_t flags = payload[16];
  if ((flags & ~kRequestFlagBypassCache) != 0) {
    return Status::InvalidArgument("unknown query request flags");
  }
  out->bypass_cache = (flags & kRequestFlagBypassCache) != 0;
  // A kind from the future is a typed error: the caller must learn it
  // is not understood, never receive a silently-wrong partner answer.
  const uint8_t kind_byte = payload[17];
  const uint8_t agg_byte = payload[18];
  const uint16_t count = GetU16(payload + 19);
  if (kind_byte >
      static_cast<uint8_t>(recommend::QueryKind::kReciprocal)) {
    return Status::InvalidArgument("unsupported query kind " +
                                   std::to_string(kind_byte));
  }
  out->kind = static_cast<recommend::QueryKind>(kind_byte);
  if (agg_byte > static_cast<uint8_t>(recommend::GroupAggregator::kMin)) {
    return Status::InvalidArgument("unknown group aggregator " +
                                   std::to_string(agg_byte));
  }
  out->aggregator = static_cast<recommend::GroupAggregator>(agg_byte);
  if (out->kind == recommend::QueryKind::kGroup) {
    if (count == 0 || count > kMaxGroupMembers) {
      return Status::InvalidArgument(
          "group member count must be in [1, " +
          std::to_string(kMaxGroupMembers) + "], got " +
          std::to_string(count));
    }
  } else if (count != 0) {
    return Status::InvalidArgument("non-group query carries group members");
  }
  if (n != kQueryRequestFixed +
               kQueryRequestMemberStride * static_cast<size_t>(count)) {
    return Status::InvalidArgument("query request length mismatch");
  }
  out->group.clear();
  out->group.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    out->group.push_back(GetU32(payload + kQueryRequestFixed +
                                kQueryRequestMemberStride * i));
  }
  if (out->n == 0 || out->n > kMaxTopN) {
    return Status::InvalidArgument("query n must be in [1, " +
                                   std::to_string(kMaxTopN) + "], got " +
                                   std::to_string(out->n));
  }
  return Status::Ok();
}

void AppendQueryResponseFrame(const serving::QueryResponse& response,
                              const FrameTag& tag,
                              std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kQueryResponseFixed +
                  kQueryResponseStride * response.items.size() +
                  kQueryResponseBound);
  PutU64(response.epoch, &payload);
  uint8_t flags = response.cache_hit ? kResponseFlagCacheHit : 0;
  if (response.partial) flags |= kResponseFlagPartial;
  payload.push_back(flags);
  PutU32(static_cast<uint32_t>(response.items.size()), &payload);
  for (const recommend::Recommendation& item : response.items) {
    PutU32(item.event, &payload);
    PutU32(item.partner, &payload);
    PutU32(FloatBits(item.score), &payload);
  }
  PutU32(FloatBits(response.ta_bound), &payload);
  AppendFrame(MessageType::kQueryResponse, payload.data(), payload.size(),
              tag, out);
}

Status DecodeQueryResponse(const uint8_t* payload, size_t n,
                           serving::QueryResponse* out) {
  if (n < kQueryResponseFixed) {
    return Status::InvalidArgument("query response payload too short");
  }
  out->epoch = GetU64(payload);
  const uint8_t flags = payload[8];
  if ((flags & ~(kResponseFlagCacheHit | kResponseFlagPartial)) != 0) {
    return Status::InvalidArgument("unknown query response flags");
  }
  out->cache_hit = (flags & kResponseFlagCacheHit) != 0;
  out->partial = (flags & kResponseFlagPartial) != 0;
  const uint32_t count = GetU32(payload + 9);
  const size_t bound_at = kQueryResponseFixed +
                          kQueryResponseStride * size_t{count};
  if (n != bound_at + kQueryResponseBound) {
    return Status::InvalidArgument("query response length mismatch");
  }
  out->code = serving::ResponseCode::kOk;
  out->ta_bound = BitsFloat(GetU32(payload + bound_at));
  out->items.clear();
  out->items.reserve(count);
  const uint8_t* p = payload + kQueryResponseFixed;
  for (uint32_t i = 0; i < count; ++i, p += kQueryResponseStride) {
    out->items.push_back(recommend::Recommendation{
        GetU32(p), GetU32(p + 4), BitsFloat(GetU32(p + 8))});
  }
  out->stats = {};
  return Status::Ok();
}

void AppendErrorFrame(ErrorCode code, std::string_view message,
                      const FrameTag& tag, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kErrorFixed + message.size());
  PutU16(static_cast<uint16_t>(code), &payload);
  payload.insert(payload.end(), message.begin(), message.end());
  AppendFrame(MessageType::kError, payload.data(), payload.size(), tag,
              out);
}

Status DecodeError(const uint8_t* payload, size_t n, ErrorCode* code,
                   std::string* message) {
  if (n < kErrorFixed) {
    return Status::InvalidArgument("error payload too short");
  }
  *code = static_cast<ErrorCode>(GetU16(payload));
  message->assign(reinterpret_cast<const char*>(payload) + kErrorFixed,
                  n - kErrorFixed);
  return Status::Ok();
}

void AppendStatsRequestFrame(const FrameTag& tag,
                             std::vector<uint8_t>* out) {
  AppendFrame(MessageType::kStatsRequest, nullptr, 0, tag, out);
}

Status DecodeStatsRequest(const uint8_t* /*payload*/, size_t n) {
  if (n != 0) {
    return Status::InvalidArgument("stats request payload must be empty");
  }
  return Status::Ok();
}

void AppendStatsResponseFrame(const obs::MetricsSnapshot& snapshot,
                              const FrameTag& tag,
                              std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  PutU32(static_cast<uint32_t>(snapshot.metrics.size()), &payload);
  for (const obs::MetricValue& m : snapshot.metrics) {
    payload.push_back(static_cast<uint8_t>(m.type));
    GEMREC_CHECK(m.name.size() <= 0xFFFF);
    PutU16(static_cast<uint16_t>(m.name.size()), &payload);
    payload.insert(payload.end(), m.name.begin(), m.name.end());
    switch (m.type) {
      case obs::MetricType::kCounter:
        PutU64(m.counter, &payload);
        break;
      case obs::MetricType::kGauge:
        PutU64(static_cast<uint64_t>(m.gauge), &payload);
        break;
      case obs::MetricType::kHistogram: {
        PutU64(m.histogram.count, &payload);
        PutU64(m.histogram.sum, &payload);
        uint16_t nonzero = 0;
        for (const uint64_t b : m.histogram.buckets) {
          if (b != 0) ++nonzero;
        }
        PutU16(nonzero, &payload);
        for (uint32_t i = 0; i < obs::kHistogramBuckets; ++i) {
          if (m.histogram.buckets[i] == 0) continue;
          payload.push_back(static_cast<uint8_t>(i));
          PutU64(m.histogram.buckets[i], &payload);
        }
        break;
      }
    }
  }
  AppendFrame(MessageType::kStatsResponse, payload.data(), payload.size(),
              tag, out);
}

Status DecodeStatsResponse(const uint8_t* payload, size_t n,
                           obs::MetricsSnapshot* out) {
  size_t pos = 0;
  const auto need = [&](size_t bytes) {
    return pos + bytes <= n;
  };
  if (!need(4)) {
    return Status::InvalidArgument("stats response payload too short");
  }
  const uint32_t count = GetU32(payload);
  pos = 4;
  out->metrics.clear();
  out->metrics.reserve(std::min<uint32_t>(count, 1024));
  for (uint32_t i = 0; i < count; ++i) {
    if (!need(3)) {
      return Status::InvalidArgument("stats response truncated metric");
    }
    obs::MetricValue m;
    const uint8_t type = payload[pos];
    if (type < static_cast<uint8_t>(obs::MetricType::kCounter) ||
        type > static_cast<uint8_t>(obs::MetricType::kHistogram)) {
      return Status::InvalidArgument("stats response unknown metric type " +
                                     std::to_string(type));
    }
    m.type = static_cast<obs::MetricType>(type);
    const uint16_t name_len = GetU16(payload + pos + 1);
    pos += 3;
    if (!need(name_len)) {
      return Status::InvalidArgument("stats response truncated name");
    }
    m.name.assign(reinterpret_cast<const char*>(payload) + pos, name_len);
    pos += name_len;
    switch (m.type) {
      case obs::MetricType::kCounter:
        if (!need(8)) {
          return Status::InvalidArgument("stats response truncated counter");
        }
        m.counter = GetU64(payload + pos);
        pos += 8;
        break;
      case obs::MetricType::kGauge:
        if (!need(8)) {
          return Status::InvalidArgument("stats response truncated gauge");
        }
        m.gauge = static_cast<int64_t>(GetU64(payload + pos));
        pos += 8;
        break;
      case obs::MetricType::kHistogram: {
        if (!need(18)) {
          return Status::InvalidArgument(
              "stats response truncated histogram");
        }
        m.histogram.count = GetU64(payload + pos);
        m.histogram.sum = GetU64(payload + pos + 8);
        const uint16_t nonzero = GetU16(payload + pos + 16);
        pos += 18;
        if (nonzero > obs::kHistogramBuckets) {
          return Status::InvalidArgument(
              "stats response histogram bucket count " +
              std::to_string(nonzero) + " exceeds " +
              std::to_string(obs::kHistogramBuckets));
        }
        for (uint16_t b = 0; b < nonzero; ++b) {
          if (!need(9)) {
            return Status::InvalidArgument(
                "stats response truncated bucket");
          }
          const uint8_t index = payload[pos];
          if (index >= obs::kHistogramBuckets) {
            return Status::InvalidArgument(
                "stats response bucket index out of range");
          }
          m.histogram.buckets[index] = GetU64(payload + pos + 1);
          pos += 9;
        }
        break;
      }
    }
    out->metrics.push_back(std::move(m));
  }
  if (pos != n) {
    return Status::InvalidArgument("stats response trailing bytes");
  }
  return Status::Ok();
}

void AppendAttendanceFrame(ebsn::UserId user, ebsn::EventId event,
                           bool new_user, const FrameTag& tag,
                           std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kAttendancePayload);
  PutU32(user, &payload);
  PutU32(event, &payload);
  payload.push_back(new_user ? kAttendanceFlagNewUser : 0);
  AppendFrame(MessageType::kAttendance, payload.data(), payload.size(),
              tag, out);
}

Status DecodeAttendance(const uint8_t* payload, size_t n,
                        serving::IngestRecord* out) {
  if (n != kAttendancePayload) {
    return Status::InvalidArgument("attendance payload must be " +
                                   std::to_string(kAttendancePayload) +
                                   " bytes, got " + std::to_string(n));
  }
  const uint8_t flags = payload[8];
  if ((flags & ~kAttendanceFlagNewUser) != 0) {
    return Status::InvalidArgument("unknown attendance flags");
  }
  *out = serving::IngestRecord{};
  out->kind = serving::IngestKind::kAttendance;
  out->user = GetU32(payload);
  out->event = GetU32(payload + 4);
  out->new_user = (flags & kAttendanceFlagNewUser) != 0;
  return Status::Ok();
}

void AppendNewEventFrame(ebsn::EventId event,
                         const embedding::NewEventSignals& signals,
                         const FrameTag& tag, std::vector<uint8_t>* out) {
  GEMREC_CHECK(signals.words.size() <= kMaxIngestWords)
      << "new event carries " << signals.words.size() << " words";
  std::vector<uint8_t> payload;
  payload.reserve(kNewEventFixed + kNewEventWordStride * signals.words.size());
  PutU32(event, &payload);
  PutU32(signals.region, &payload);
  PutU64(static_cast<uint64_t>(signals.start_time), &payload);
  PutU32(static_cast<uint32_t>(signals.words.size()), &payload);
  for (const auto& [word, weight] : signals.words) {
    PutU32(word, &payload);
    PutU32(FloatBits(weight), &payload);
  }
  AppendFrame(MessageType::kNewEvent, payload.data(), payload.size(), tag,
              out);
}

Status DecodeNewEvent(const uint8_t* payload, size_t n,
                      serving::IngestRecord* out) {
  if (n < kNewEventFixed) {
    return Status::InvalidArgument("new event payload too short");
  }
  const uint32_t count = GetU32(payload + 16);
  if (count > kMaxIngestWords) {
    return Status::InvalidArgument(
        "new event word count " + std::to_string(count) + " exceeds " +
        std::to_string(kMaxIngestWords));
  }
  if (n != kNewEventFixed + kNewEventWordStride * size_t{count}) {
    return Status::InvalidArgument("new event payload length mismatch");
  }
  *out = serving::IngestRecord{};
  out->kind = serving::IngestKind::kNewEvent;
  out->event = GetU32(payload);
  out->signals.region = GetU32(payload + 4);
  out->signals.start_time = static_cast<int64_t>(GetU64(payload + 8));
  out->signals.words.reserve(count);
  const uint8_t* p = payload + kNewEventFixed;
  for (uint32_t i = 0; i < count; ++i, p += kNewEventWordStride) {
    out->signals.words.emplace_back(GetU32(p), BitsFloat(GetU32(p + 4)));
  }
  return Status::Ok();
}

void AppendIngestAckFrame(uint64_t seq, const FrameTag& tag,
                          std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kIngestAckPayload);
  PutU64(seq, &payload);
  AppendFrame(MessageType::kIngestAck, payload.data(), payload.size(), tag,
              out);
}

Status DecodeIngestAck(const uint8_t* payload, size_t n, uint64_t* seq) {
  if (n != kIngestAckPayload) {
    return Status::InvalidArgument("ingest ack payload must be " +
                                   std::to_string(kIngestAckPayload) +
                                   " bytes, got " + std::to_string(n));
  }
  *seq = GetU64(payload);
  return Status::Ok();
}

Status FrameDecoder::Feed(const uint8_t* data, size_t n) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), data, data + n);
  error_ = Parse();
  return error_;
}

bool FrameDecoder::Next(Frame* out) {
  if (frames_.empty()) return false;
  *out = std::move(frames_.front());
  frames_.pop_front();
  return true;
}

Status FrameDecoder::Parse() {
  while (true) {
    const size_t avail = buffer_.size() - pos_;
    // Validate the fixed fields the moment the size field is complete —
    // a corrupted length must not make the decoder wait for megabytes
    // that will never come, and a frame of another version (whose
    // header may be shorter) is refused without waiting for more.
    if (avail < kFrameIdOffset) break;
    const uint8_t* header = buffer_.data() + pos_;
    if (GetU32(header) != kMagic) {
      return Status::InvalidArgument("bad frame magic");
    }
    if (header[kVersionOffset] != kWireVersion) {
      return Status::InvalidArgument(
          "unsupported wire version " +
          std::to_string(header[kVersionOffset]));
    }
    if (GetU16(header + kReservedOffset) != 0) {
      return Status::InvalidArgument("nonzero reserved header bytes");
    }
    const uint32_t payload_size = GetU32(header + kSizeOffset);
    if (payload_size > kMaxPayload) {
      return Status::InvalidArgument(
          "frame payload " + std::to_string(payload_size) +
          " exceeds limit " + std::to_string(kMaxPayload));
    }
    const size_t total = kHeaderSize + payload_size + kTrailerSize;
    if (avail < total) break;
    const uint32_t want = Crc32c(header, kHeaderSize + payload_size);
    const uint32_t got = GetU32(header + kHeaderSize + payload_size);
    if (want != got) {
      return Status::InvalidArgument("frame CRC mismatch");
    }
    Frame frame;
    frame.type = static_cast<MessageType>(header[kTypeOffset]);
    frame.frame_id = GetU64(header + kFrameIdOffset);
    frame.payload.assign(header + kHeaderSize,
                         header + kHeaderSize + payload_size);
    frames_.push_back(std::move(frame));
    pos_ += total;
  }
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > (64u << 10))) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return Status::Ok();
}

}  // namespace gemrec::net
