// Wire codec coverage: round-trip property over payload sizes
// (including 0, 1, kMaxPayload, and kMaxPayload+1 rejected),
// every-byte corruption rejected via CRC/header validation, and
// split-delivery through the incremental FrameDecoder one byte at a
// time — the connection state machine's worst case.

#include "net/wire.h"

#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace gemrec::net {
namespace {

constexpr FrameTag kTag{true, 1};

std::vector<uint8_t> Encode(MessageType type,
                            const std::vector<uint8_t>& payload,
                            uint64_t frame_id = 1) {
  std::vector<uint8_t> out;
  AppendFrame(type, payload.data(), payload.size(),
              FrameTag{true, frame_id}, &out);
  return out;
}

std::vector<uint8_t> RandomPayload(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> payload(n);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng());
  return payload;
}

TEST(WireTest, RoundTripAcrossPayloadSizes) {
  const size_t sizes[] = {0,   1,    2,        3,         16,
                          255, 4096, 65 * 531, kMaxPayload};
  uint32_t seed = 1;
  for (const size_t n : sizes) {
    const std::vector<uint8_t> payload = RandomPayload(n, seed++);
    const std::vector<uint8_t> bytes =
        Encode(MessageType::kQueryRequest, payload);
    ASSERT_EQ(bytes.size(), kHeaderSize + n + kTrailerSize);

    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok())
        << "n=" << n;
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame)) << "n=" << n;
    EXPECT_EQ(frame.type, MessageType::kQueryRequest);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(decoder.Next(&frame));
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(WireTest, OversizedLengthRejectedFromHeaderAlone) {
  // Craft a header announcing kMaxPayload+1: the decoder must fail the
  // moment the header is complete, without waiting for a payload that
  // will never come (and AppendFrame must refuse to build one).
  std::vector<uint8_t> valid = Encode(MessageType::kPing, {});
  std::vector<uint8_t> header(valid.begin(), valid.begin() + kHeaderSize);
  const uint32_t oversized = static_cast<uint32_t>(kMaxPayload) + 1;
  std::memcpy(header.data() + 8, &oversized, sizeof(oversized));

  FrameDecoder decoder;
  const Status s = decoder.Feed(header.data(), header.size());
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(decoder.ok());
  // Sticky: further feeds keep failing.
  EXPECT_FALSE(decoder.Feed(header.data(), 1).ok());

  EXPECT_DEATH(Encode(MessageType::kPing,
                           std::vector<uint8_t>(kMaxPayload + 1)),
               "kMaxPayload");
}

TEST(WireTest, EveryByteCorruptionRejected) {
  const std::vector<uint8_t> payload = RandomPayload(64, 99);
  const std::vector<uint8_t> bytes =
      Encode(MessageType::kQueryResponse, payload);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0xFF;
    FrameDecoder decoder;
    const Status fed = decoder.Feed(corrupt.data(), corrupt.size());
    Frame frame;
    if (decoder.Next(&frame)) {
      // CRC32C detects any burst error confined to 32 bits, so a
      // single flipped byte can never decode back to a frame. The only
      // legal non-error outcome is starvation (a corrupted length
      // field waiting for more bytes) — never an emitted frame.
      ADD_FAILURE() << "corrupt byte " << i << " yielded a frame"
                    << " (feed status: " << fed.ToString() << ")";
    }
  }
}

TEST(WireTest, SplitDeliveryOneByteAtATime) {
  const std::vector<uint8_t> payload = RandomPayload(37, 7);
  const std::vector<uint8_t> bytes =
      Encode(MessageType::kError, payload);

  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(&bytes[i], 1).ok()) << "byte " << i;
    if (i + 1 < bytes.size()) {
      EXPECT_FALSE(decoder.Next(&frame)) << "frame early at byte " << i;
      EXPECT_TRUE(decoder.mid_frame());
    }
  }
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_EQ(frame.type, MessageType::kError);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(WireTest, BackToBackFramesAcrossRandomChunks) {
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < 8; ++i) {
    payloads.push_back(RandomPayload(1 + i * 53, 1000 + i));
    AppendFrame(MessageType::kQueryRequest, payloads.back().data(),
                payloads.back().size(), kTag, &stream);
  }

  std::mt19937 rng(5);
  FrameDecoder decoder;
  std::vector<Frame> got;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t chunk = std::min<size_t>(
        1 + rng() % 97, stream.size() - pos);
    ASSERT_TRUE(decoder.Feed(stream.data() + pos, chunk).ok());
    pos += chunk;
    Frame frame;
    while (decoder.Next(&frame)) got.push_back(std::move(frame));
  }
  ASSERT_EQ(got.size(), payloads.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].payload, payloads[i]) << "frame " << i;
  }
}

TEST(WireTest, AppendingManyFramesGrowsGeometrically) {
  // The reactor's write buffer and the router's send buffers append
  // frame after frame to one vector; an exact per-frame reserve would
  // reallocate on every append (quadratic copying under pipelining).
  serving::QueryResponse response;
  response.items.push_back(recommend::Recommendation{1, 2, 0.5f});
  std::vector<uint8_t> stream;
  size_t capacity_changes = 0;
  size_t capacity = stream.capacity();
  for (uint64_t i = 0; i < 10000; ++i) {
    AppendQueryResponseFrame(response, FrameTag{true, i}, &stream);
    if (stream.capacity() != capacity) {
      ++capacity_changes;
      capacity = stream.capacity();
    }
  }
  EXPECT_LE(capacity_changes, 64u);
}

TEST(WireTest, QueryRequestPayloadRoundTrip) {
  serving::QueryRequest request;
  request.user = 123456;
  request.n = 42;
  request.filter_hash = 0xDEADBEEFCAFEF00Dull;
  request.bypass_cache = true;

  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kQueryRequest);

  serving::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.user, request.user);
  EXPECT_EQ(decoded.n, request.n);
  EXPECT_EQ(decoded.filter_hash, request.filter_hash);
  EXPECT_EQ(decoded.bypass_cache, request.bypass_cache);
}

TEST(WireTest, QueryRequestValidation) {
  serving::QueryRequest decoded;
  std::vector<uint8_t> short_payload(5);
  EXPECT_FALSE(DecodeQueryRequest(short_payload.data(),
                                  short_payload.size(), &decoded)
                   .ok());

  serving::QueryRequest request;
  request.user = 1;
  request.n = kMaxTopN + 1;  // over the top-n cap
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_FALSE(DecodeQueryRequest(frame.payload.data(),
                                  frame.payload.size(), &decoded)
                   .ok());
}

TEST(WireTest, QueryResponsePayloadRoundTrip) {
  serving::QueryResponse response;
  response.epoch = 77;
  response.cache_hit = true;
  for (uint32_t i = 0; i < 10; ++i) {
    response.items.push_back(recommend::Recommendation{
        i * 3, i * 7 + 1, 0.5f - 0.01f * static_cast<float>(i)});
  }

  std::vector<uint8_t> bytes;
  AppendQueryResponseFrame(response, kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kQueryResponse);

  serving::QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(frame.payload.data(),
                                  frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.epoch, response.epoch);
  EXPECT_EQ(decoded.cache_hit, response.cache_hit);
  ASSERT_EQ(decoded.items.size(), response.items.size());
  for (size_t i = 0; i < decoded.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].event, response.items[i].event);
    EXPECT_EQ(decoded.items[i].partner, response.items[i].partner);
    EXPECT_EQ(decoded.items[i].score, response.items[i].score);
  }
}

TEST(WireTest, QueryResponseLengthMismatchRejected) {
  serving::QueryResponse response;
  response.epoch = 1;
  response.items.push_back(recommend::Recommendation{1, 2, 0.5f});
  std::vector<uint8_t> bytes;
  AppendQueryResponseFrame(response, kTag, &bytes);
  // Payload claims 1 item: the length is checked exactly, so a payload
  // without its ta_bound trailer, one byte short or one byte long is
  // rejected.
  const uint8_t* payload = bytes.data() + kHeaderSize;
  const size_t payload_size = bytes.size() - kHeaderSize - kTrailerSize;
  serving::QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(payload, payload_size, &decoded).ok());
  EXPECT_FALSE(
      DecodeQueryResponse(payload, payload_size - 4, &decoded).ok());
  EXPECT_FALSE(
      DecodeQueryResponse(payload, payload_size - 1, &decoded).ok());
  std::vector<uint8_t> longer(payload, payload + payload_size);
  longer.push_back(0);
  EXPECT_FALSE(
      DecodeQueryResponse(longer.data(), longer.size(), &decoded).ok());
}

TEST(WireTest, ErrorPayloadRoundTrip) {
  std::vector<uint8_t> bytes;
  AppendErrorFrame(ErrorCode::kOverloaded, "busy", kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kError);

  ErrorCode code;
  std::string message;
  ASSERT_TRUE(DecodeError(frame.payload.data(), frame.payload.size(),
                          &code, &message)
                  .ok());
  EXPECT_EQ(code, ErrorCode::kOverloaded);
  EXPECT_EQ(message, "busy");
}

TEST(WireTest, StatsPayloadRoundTrip) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c_total", "server-side help")->Increment(42);
  registry.GetGauge("g")->Set(-17);
  obs::Histogram* h = registry.GetHistogram("h_us");
  h->Record(0);
  h->Record(5);
  h->Record(5);
  h->Record(70000);

  std::vector<uint8_t> bytes;
  AppendStatsResponseFrame(registry.Snapshot(), kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kStatsResponse);

  obs::MetricsSnapshot decoded;
  ASSERT_TRUE(DecodeStatsResponse(frame.payload.data(),
                                  frame.payload.size(), &decoded)
                  .ok());
  ASSERT_EQ(decoded.metrics.size(), 3u);
  const obs::MetricValue* c = decoded.Find("c_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->type, obs::MetricType::kCounter);
  EXPECT_EQ(c->counter, 42u);
  EXPECT_TRUE(c->help.empty());  // help strings stay server-side
  const obs::MetricValue* g = decoded.Find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge, -17);
  const obs::MetricValue* hist = decoded.Find("h_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->type, obs::MetricType::kHistogram);
  EXPECT_EQ(hist->histogram.count, 4u);
  EXPECT_EQ(hist->histogram.sum, 70010u);
  EXPECT_EQ(hist->histogram.buckets[obs::HistogramBucketIndex(0)], 1u);
  EXPECT_EQ(hist->histogram.buckets[obs::HistogramBucketIndex(5)], 2u);
  EXPECT_EQ(hist->histogram.buckets[obs::HistogramBucketIndex(70000)],
            1u);
}

TEST(WireTest, StatsRequestMustBeEmpty) {
  std::vector<uint8_t> bytes;
  AppendStatsRequestFrame(kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kStatsRequest);
  EXPECT_TRUE(DecodeStatsRequest(frame.payload.data(),
                                 frame.payload.size())
                  .ok());
  const uint8_t junk = 0;
  EXPECT_FALSE(DecodeStatsRequest(&junk, 1).ok());
}

TEST(WireTest, StatsResponseTruncationAndCorruptionRejected) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c_total")->Increment(7);
  registry.GetHistogram("h_us")->Record(123);
  std::vector<uint8_t> bytes;
  AppendStatsResponseFrame(registry.Snapshot(), kTag, &bytes);
  const uint8_t* payload = bytes.data() + kHeaderSize;
  const size_t payload_size = bytes.size() - kHeaderSize - kTrailerSize;

  // Every truncation point is rejected, never over-read.
  for (size_t n = 0; n < payload_size; ++n) {
    obs::MetricsSnapshot decoded;
    EXPECT_FALSE(DecodeStatsResponse(payload, n, &decoded).ok()) << n;
  }
  // Trailing garbage is rejected too.
  {
    std::vector<uint8_t> padded(payload, payload + payload_size);
    padded.push_back(0);
    obs::MetricsSnapshot decoded;
    EXPECT_FALSE(
        DecodeStatsResponse(padded.data(), padded.size(), &decoded).ok());
  }
  // A bogus metric type byte is rejected (type byte follows the u32
  // metric count).
  {
    std::vector<uint8_t> bad(payload, payload + payload_size);
    bad[4] = 99;
    obs::MetricsSnapshot decoded;
    EXPECT_FALSE(
        DecodeStatsResponse(bad.data(), bad.size(), &decoded).ok());
  }
}

TEST(WireTest, BadMagicAndVersionRejected) {
  std::vector<uint8_t> bytes = Encode(MessageType::kPing, {});
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] = 'X';
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(bad.data(), bad.size()).ok());
  }
  // One wire version: every other version byte is refused from the
  // first 12 bytes alone (a v1 header is no longer than that).
  for (const uint8_t version : {0, 1, 3, 255}) {
    std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + 12);
    bad[4] = version;
    FrameDecoder decoder;
    const Status s = decoder.Feed(bad.data(), bad.size());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.message(),
              "unsupported wire version " + std::to_string(version));
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[6] = 1;  // reserved must be zero
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(bad.data(), bad.size()).ok());
  }
}

TEST(WireTest, AttendancePayloadRoundTripBothFlagStates) {
  for (const bool new_user : {false, true}) {
    std::vector<uint8_t> bytes;
    AppendAttendanceFrame(314159, 271828, new_user, kTag, &bytes);
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame));
    ASSERT_EQ(frame.type, MessageType::kAttendance);

    serving::IngestRecord decoded;
    ASSERT_TRUE(DecodeAttendance(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                    .ok());
    EXPECT_EQ(decoded.kind, serving::IngestKind::kAttendance);
    EXPECT_EQ(decoded.user, 314159u);
    EXPECT_EQ(decoded.event, 271828u);
    EXPECT_EQ(decoded.new_user, new_user);
    EXPECT_EQ(decoded.seq, 0u);  // the ingestion queue assigns it
  }
}

TEST(WireTest, AttendanceValidation) {
  std::vector<uint8_t> bytes;
  AppendAttendanceFrame(1, 2, false, kTag, &bytes);
  const uint8_t* payload = bytes.data() + kHeaderSize;
  const size_t payload_size = bytes.size() - kHeaderSize - kTrailerSize;
  ASSERT_EQ(payload_size, 9u);

  serving::IngestRecord decoded;
  // Exact length only: one byte short and one byte long both rejected.
  EXPECT_FALSE(DecodeAttendance(payload, 8, &decoded).ok());
  std::vector<uint8_t> padded(payload, payload + payload_size);
  padded.push_back(0);
  EXPECT_FALSE(
      DecodeAttendance(padded.data(), padded.size(), &decoded).ok());
  // Unknown flag bits are rejected, not silently dropped — they are
  // reserved for future wire versions.
  std::vector<uint8_t> bad_flags(payload, payload + payload_size);
  bad_flags[8] |= 0x02;
  EXPECT_FALSE(
      DecodeAttendance(bad_flags.data(), bad_flags.size(), &decoded).ok());
}

TEST(WireTest, NewEventPayloadRoundTrip) {
  embedding::NewEventSignals signals;
  signals.region = 3;
  signals.start_time = 1723456789;
  signals.words = {{12, 0.5f}, {990, 1.75f}, {3, 0.0625f}};

  std::vector<uint8_t> bytes;
  AppendNewEventFrame(424242, signals, kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kNewEvent);

  serving::IngestRecord decoded;
  ASSERT_TRUE(
      DecodeNewEvent(frame.payload.data(), frame.payload.size(), &decoded)
          .ok());
  EXPECT_EQ(decoded.kind, serving::IngestKind::kNewEvent);
  EXPECT_EQ(decoded.event, 424242u);
  EXPECT_EQ(decoded.signals.region, signals.region);
  EXPECT_EQ(decoded.signals.start_time, signals.start_time);
  ASSERT_EQ(decoded.signals.words.size(), signals.words.size());
  for (size_t i = 0; i < signals.words.size(); ++i) {
    EXPECT_EQ(decoded.signals.words[i].first, signals.words[i].first);
    // Weights travel as raw float bits — bitwise, not approximately.
    EXPECT_EQ(std::memcmp(&decoded.signals.words[i].second,
                          &signals.words[i].second, sizeof(float)),
              0);
  }
}

TEST(WireTest, NewEventEdgeCasesRoundTrip) {
  // Empty word list, unknown region, pre-epoch start time.
  embedding::NewEventSignals signals;
  signals.region = ebsn::kInvalidId;
  signals.start_time = -86400;
  std::vector<uint8_t> bytes;
  AppendNewEventFrame(7, signals, kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  serving::IngestRecord decoded;
  ASSERT_TRUE(
      DecodeNewEvent(frame.payload.data(), frame.payload.size(), &decoded)
          .ok());
  EXPECT_EQ(decoded.signals.region, ebsn::kInvalidId);
  EXPECT_EQ(decoded.signals.start_time, -86400);
  EXPECT_TRUE(decoded.signals.words.empty());
}

TEST(WireTest, NewEventValidation) {
  embedding::NewEventSignals signals;
  signals.words = {{1, 1.0f}, {2, 2.0f}};
  std::vector<uint8_t> bytes;
  AppendNewEventFrame(5, signals, kTag, &bytes);
  const uint8_t* payload = bytes.data() + kHeaderSize;
  const size_t payload_size = bytes.size() - kHeaderSize - kTrailerSize;
  ASSERT_EQ(payload_size, 20u + 8u * signals.words.size());

  serving::IngestRecord decoded;
  // Truncated fixed part.
  EXPECT_FALSE(DecodeNewEvent(payload, 19, &decoded).ok());
  // Word count and byte length disagree (one word's bytes missing).
  EXPECT_FALSE(
      DecodeNewEvent(payload, payload_size - 8, &decoded).ok());
  // Trailing garbage.
  std::vector<uint8_t> padded(payload, payload + payload_size);
  padded.push_back(0);
  EXPECT_FALSE(
      DecodeNewEvent(padded.data(), padded.size(), &decoded).ok());
  // Word count over the cap is rejected from the count field alone.
  std::vector<uint8_t> capped(payload, payload + payload_size);
  const uint32_t too_many = kMaxIngestWords + 1;
  std::memcpy(capped.data() + 16, &too_many, sizeof(too_many));
  EXPECT_FALSE(
      DecodeNewEvent(capped.data(), capped.size(), &decoded).ok());
}

TEST(WireTest, IngestAckRoundTripAndValidation) {
  std::vector<uint8_t> bytes;
  AppendIngestAckFrame(0xFEEDFACE12345678ull, kTag, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  ASSERT_EQ(frame.type, MessageType::kIngestAck);

  uint64_t seq = 0;
  ASSERT_TRUE(
      DecodeIngestAck(frame.payload.data(), frame.payload.size(), &seq)
          .ok());
  EXPECT_EQ(seq, 0xFEEDFACE12345678ull);
  EXPECT_FALSE(DecodeIngestAck(frame.payload.data(), 7, &seq).ok());
  std::vector<uint8_t> padded = frame.payload;
  padded.push_back(0);
  EXPECT_FALSE(DecodeIngestAck(padded.data(), padded.size(), &seq).ok());
}

TEST(WireTest, IngestFramesEveryByteCorruptionRejected) {
  // The CRC trailer protects the write path exactly as it does the
  // query path: no single-byte corruption of an ingest frame may ever
  // decode back into a frame (a lost write would otherwise become a
  // *wrong* write).
  embedding::NewEventSignals signals;
  signals.region = 2;
  signals.start_time = 1234567;
  signals.words = {{5, 0.25f}};
  std::vector<std::vector<uint8_t>> frames(2);
  AppendAttendanceFrame(10, 20, true, kTag, &frames[0]);
  AppendNewEventFrame(30, signals, kTag, &frames[1]);

  for (const std::vector<uint8_t>& bytes : frames) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[i] ^= 0xFF;
      FrameDecoder decoder;
      const Status fed = decoder.Feed(corrupt.data(), corrupt.size());
      Frame frame;
      if (decoder.Next(&frame)) {
        ADD_FAILURE() << "corrupt byte " << i << " yielded a frame"
                      << " (feed status: " << fed.ToString() << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Frame ids: every frame carries a client-chosen u64 id (pipelining
// support).

TEST(WireTest, TaggedFrameRoundTripAcrossIds) {
  const uint64_t ids[] = {0, 1, 42, 0x8000000000000000ull,
                          0xFFFFFFFFFFFFFFFFull};
  uint32_t seed = 31;
  for (const uint64_t id : ids) {
    const std::vector<uint8_t> payload = RandomPayload(48, seed++);
    const std::vector<uint8_t> bytes =
        Encode(MessageType::kQueryRequest, payload, id);
    ASSERT_EQ(bytes.size(), kHeaderSize + payload.size() +
                                kTrailerSize);
    EXPECT_EQ(bytes[4], kWireVersion);

    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok())
        << "id=" << id;
    Frame frame;
    ASSERT_TRUE(decoder.Next(&frame)) << "id=" << id;
    EXPECT_TRUE(frame.tagged);
    EXPECT_EQ(frame.frame_id, id);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(decoder.Next(&frame));
  }
}

TEST(WireTest, TaggedSplitDeliveryOneByteAtATime) {
  const std::vector<uint8_t> payload = RandomPayload(29, 9);
  const std::vector<uint8_t> bytes = Encode(
      MessageType::kQueryResponse, payload, 0x1122334455667788ull);

  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(&bytes[i], 1).ok()) << "byte " << i;
    if (i + 1 < bytes.size()) {
      EXPECT_FALSE(decoder.Next(&frame)) << "frame early at byte " << i;
    }
  }
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_TRUE(frame.tagged);
  EXPECT_EQ(frame.frame_id, 0x1122334455667788ull);
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireTest, TaggedFrameEveryByteCorruptionRejected) {
  // The frame id sits between length and payload, inside the CRC'd
  // region: corrupting any of its 8 bytes (or anything else) must
  // never yield a frame — a response must not be re-routed to the
  // wrong in-flight request by a flipped id bit.
  const std::vector<uint8_t> payload = RandomPayload(32, 77);
  const std::vector<uint8_t> bytes = Encode(
      MessageType::kQueryResponse, payload, 0xA5A5A5A5A5A5A5A5ull);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0xFF;
    FrameDecoder decoder;
    const Status fed = decoder.Feed(corrupt.data(), corrupt.size());
    Frame frame;
    if (decoder.Next(&frame)) {
      ADD_FAILURE() << "corrupt byte " << i << " yielded a frame"
                    << " (feed status: " << fed.ToString() << ")";
    }
  }
}

TEST(WireTest, TaggedCodecsEchoTheTag) {
  // Every request/response codec emits a frame carrying its tag.
  const FrameTag tag{true, 424242};
  std::vector<uint8_t> stream;
  serving::QueryRequest request;
  request.user = 3;
  request.n = 5;
  AppendQueryRequestFrame(request, tag, &stream);
  serving::QueryResponse response;
  response.epoch = 9;
  AppendQueryResponseFrame(response, tag, &stream);
  AppendErrorFrame(ErrorCode::kOverloaded, "busy", tag, &stream);
  AppendStatsRequestFrame(tag, &stream);
  AppendAttendanceFrame(1, 2, false, tag, &stream);
  AppendIngestAckFrame(17, tag, &stream);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(stream.data(), stream.size()).ok());
  Frame frame;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(decoder.Next(&frame)) << "frame " << i;
    EXPECT_TRUE(frame.tagged) << "frame " << i;
    EXPECT_EQ(frame.frame_id, 424242u) << "frame " << i;
  }
  EXPECT_FALSE(decoder.Next(&frame));
}

TEST(WireTest, QueryResponseTaBoundAndPartialRoundTrip) {
  // Responses carry the shard's TA stopping threshold (4-byte fp32
  // trailer after the item list) and the partial flag — the
  // coordinator's merge-completeness inputs. Bit-exact round-trip,
  // including -inf (slice exhausted) and negative bounds.
  const float bounds[] = {1.25f, -3.5f,
                          -std::numeric_limits<float>::infinity()};
  for (const float bound : bounds) {
    for (const bool partial : {false, true}) {
      serving::QueryResponse response;
      response.epoch = 12;
      response.partial = partial;
      response.ta_bound = bound;
      response.items.push_back(recommend::Recommendation{4, 9, 0.75f});
      std::vector<uint8_t> bytes;
      AppendQueryResponseFrame(response, FrameTag{true, 7}, &bytes);

      FrameDecoder decoder;
      ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
      Frame frame;
      ASSERT_TRUE(decoder.Next(&frame));
      serving::QueryResponse decoded;
      ASSERT_TRUE(DecodeQueryResponse(frame.payload.data(),
                                      frame.payload.size(), &decoded)
                      .ok());
      EXPECT_EQ(decoded.partial, partial);
      // Bit comparison: NaN-safe and catches any float munging.
      uint32_t want_bits = 0, got_bits = 0;
      std::memcpy(&want_bits, &bound, 4);
      std::memcpy(&got_bits, &decoded.ta_bound, 4);
      EXPECT_EQ(got_bits, want_bits);
      ASSERT_EQ(decoded.items.size(), 1u);
      EXPECT_EQ(decoded.items[0].score, 0.75f);
    }
  }
}

TEST(WireTest, ExtendedQueryResponseEveryByteCorruptionRejected) {
  // The bound trailer is inside the CRC envelope like everything else:
  // no single corrupted byte of the extended frame may decode.
  serving::QueryResponse response;
  response.epoch = 8;
  response.partial = true;
  response.ta_bound = -1.5f;
  for (uint32_t i = 0; i < 5; ++i) {
    response.items.push_back(
        recommend::Recommendation{i, i + 1, 1.0f - 0.1f * i});
  }
  std::vector<uint8_t> bytes;
  AppendQueryResponseFrame(response, FrameTag{true, 99}, &bytes);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0xFF;
    FrameDecoder decoder;
    (void)decoder.Feed(corrupt.data(), corrupt.size());
    Frame frame;
    if (decoder.Next(&frame)) {
      ADD_FAILURE() << "corrupt byte " << i << " yielded a frame";
    }
  }
}

TEST(WireTest, ErrorCodeNamesAreStable) {
  // The CLI prints these verbatim; renaming one breaks operator
  // tooling that greps for them.
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kOverloaded), "Overloaded");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kBadRequest), "BadRequest");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kShuttingDown), "ShuttingDown");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kInternal), "Internal");
}

}  // namespace
}  // namespace gemrec::net
