// Wire coverage for the query request layout: the kind byte on every
// request, round-trips for partner/group/reciprocal requests, typed
// rejection of unknown kinds / aggregators / malformed member lists,
// and every-byte corruption of request frames — the kind fields live
// inside the CRC envelope like everything else, and the payload decoder
// itself must map every mutation to a typed error, never a
// silently-wrong partner answer.

#include "net/wire.h"

#include <vector>

#include <gtest/gtest.h>

namespace gemrec::net {
namespace {

constexpr size_t kQueryPayload = 21;
constexpr FrameTag kTag{true, 1};

Frame MustDecodeFrame(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  EXPECT_TRUE(decoder.Next(&frame));
  return frame;
}

TEST(WireQueryKindTest, PartnerRequestsCarryTheKindByte) {
  // One request layout: partner queries carry the kind byte (0) like
  // every other kind, and round-trip through the same decoder.
  serving::QueryRequest request;
  request.user = 7;
  request.n = 10;
  request.filter_hash = 0xABCDULL;
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame frame = MustDecodeFrame(bytes);
  ASSERT_EQ(frame.payload.size(), kQueryPayload);
  EXPECT_EQ(frame.payload[17],
            static_cast<uint8_t>(recommend::QueryKind::kPartner));
  serving::QueryRequest decoded;
  decoded.kind = recommend::QueryKind::kGroup;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.kind, recommend::QueryKind::kPartner);
  EXPECT_EQ(decoded.user, request.user);
  EXPECT_EQ(decoded.filter_hash, request.filter_hash);

  // A stray group on a partner request (caller bug) travels as sent
  // and is refused by the decoder, like on a reciprocal request.
  request.group = {1, 2, 3};
  bytes.clear();
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame stray = MustDecodeFrame(bytes);
  EXPECT_FALSE(DecodeQueryRequest(stray.payload.data(),
                                  stray.payload.size(), &decoded)
                   .ok());
}

TEST(WireQueryKindTest, GroupRequestRoundTrip) {
  serving::QueryRequest request;
  request.user = 123;
  request.n = 25;
  request.filter_hash = 0xFEEDF00DULL;
  request.bypass_cache = true;
  request.kind = recommend::QueryKind::kGroup;
  request.aggregator = recommend::GroupAggregator::kMin;
  request.group = {9, 4, 9, 200000};

  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame frame = MustDecodeFrame(bytes);
  ASSERT_EQ(frame.type, MessageType::kQueryRequest);
  EXPECT_EQ(frame.payload.size(),
            kQueryPayload + 4 * request.group.size());

  serving::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.user, request.user);
  EXPECT_EQ(decoded.n, request.n);
  EXPECT_EQ(decoded.filter_hash, request.filter_hash);
  EXPECT_EQ(decoded.bypass_cache, request.bypass_cache);
  EXPECT_EQ(decoded.kind, recommend::QueryKind::kGroup);
  EXPECT_EQ(decoded.aggregator, recommend::GroupAggregator::kMin);
  EXPECT_EQ(decoded.group, request.group);  // order preserved
}

TEST(WireQueryKindTest, ReciprocalRequestRoundTrip) {
  serving::QueryRequest request;
  request.user = 42;
  request.n = 8;
  request.kind = recommend::QueryKind::kReciprocal;

  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame frame = MustDecodeFrame(bytes);
  EXPECT_EQ(frame.payload.size(), kQueryPayload);

  serving::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.kind, recommend::QueryKind::kReciprocal);
  EXPECT_TRUE(decoded.group.empty());
}

TEST(WireQueryKindTest, MaxGroupSizeRoundTripsAndOverflowRejected) {
  serving::QueryRequest request;
  request.user = 1;
  request.n = 5;
  request.kind = recommend::QueryKind::kGroup;
  for (uint32_t i = 0; i < kMaxGroupMembers; ++i) request.group.push_back(i);
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame frame = MustDecodeFrame(bytes);
  serving::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.group.size(), static_cast<size_t>(kMaxGroupMembers));

  // One past the cap must die in the encoder (programming error) or,
  // when forged directly as payload bytes, in the decoder.
  std::vector<uint8_t> forged(frame.payload);
  const uint16_t over = kMaxGroupMembers + 1;
  forged[19] = static_cast<uint8_t>(over & 0xFF);
  forged[20] = static_cast<uint8_t>(over >> 8);
  forged.insert(forged.end(), {0, 0, 0, 0});
  EXPECT_FALSE(
      DecodeQueryRequest(forged.data(), forged.size(), &decoded).ok());
}

TEST(WireQueryKindTest, UnknownKindAndAggregatorRejected) {
  serving::QueryRequest request;
  request.user = 3;
  request.n = 4;
  request.kind = recommend::QueryKind::kReciprocal;
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  Frame frame = MustDecodeFrame(bytes);

  serving::QueryRequest decoded;
  // A kind byte from the future: typed error, never a partner answer.
  std::vector<uint8_t> future = frame.payload;
  future[17] = 3;
  EXPECT_FALSE(
      DecodeQueryRequest(future.data(), future.size(), &decoded).ok());
  future[17] = 255;
  EXPECT_FALSE(
      DecodeQueryRequest(future.data(), future.size(), &decoded).ok());

  // Unknown aggregator byte.
  std::vector<uint8_t> bad_agg = frame.payload;
  bad_agg[18] = 2;
  EXPECT_FALSE(
      DecodeQueryRequest(bad_agg.data(), bad_agg.size(), &decoded).ok());
}

TEST(WireQueryKindTest, MemberCountMismatchesRejected) {
  serving::QueryRequest request;
  request.user = 5;
  request.n = 6;
  request.kind = recommend::QueryKind::kGroup;
  request.group = {10, 11};
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame frame = MustDecodeFrame(bytes);
  serving::QueryRequest decoded;

  // Count says 2, bytes carry 1.
  std::vector<uint8_t> truncated(frame.payload.begin(),
                                 frame.payload.end() - 4);
  EXPECT_FALSE(
      DecodeQueryRequest(truncated.data(), truncated.size(), &decoded).ok());

  // Count says 2, bytes carry 3.
  std::vector<uint8_t> padded = frame.payload;
  padded.insert(padded.end(), {1, 0, 0, 0});
  EXPECT_FALSE(
      DecodeQueryRequest(padded.data(), padded.size(), &decoded).ok());

  // A group query claiming zero members is malformed.
  std::vector<uint8_t> empty(frame.payload.begin(),
                             frame.payload.begin() + kQueryPayload);
  empty[19] = 0;
  empty[20] = 0;
  EXPECT_FALSE(
      DecodeQueryRequest(empty.data(), empty.size(), &decoded).ok());

  // A reciprocal query carrying members is malformed.
  std::vector<uint8_t> recip = frame.payload;
  recip[17] = static_cast<uint8_t>(recommend::QueryKind::kReciprocal);
  EXPECT_FALSE(
      DecodeQueryRequest(recip.data(), recip.size(), &decoded).ok());

  // Every length short of the fixed fields is malformed.
  for (size_t n = 0; n < kQueryPayload; ++n) {
    EXPECT_FALSE(DecodeQueryRequest(frame.payload.data(), n, &decoded).ok())
        << "length " << n;
  }
}

TEST(WireQueryKindTest, ExtendedFrameEveryByteCorruptionRejected) {
  // Frame level: the kind fields sit inside the CRC envelope, so no
  // single flipped byte anywhere in an extended request frame may ever
  // decode back into a frame.
  serving::QueryRequest request;
  request.user = 77;
  request.n = 12;
  request.filter_hash = 0x1234567890ABCDEFULL;
  request.kind = recommend::QueryKind::kGroup;
  request.aggregator = recommend::GroupAggregator::kSum;
  request.group = {3, 1, 4, 1, 5};
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);

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

TEST(WireQueryKindTest, PayloadDecoderSurvivesEveryByteMutation) {
  // Payload level: a coordinator relays payload bytes that passed ITS
  // CRC but may have been forged/corrupted upstream of framing. Every
  // single-byte mutation (all 255 alternatives per position) and every
  // truncation must yield either a typed error or a structurally valid
  // request — never a crash, an OOB read, or a group list inconsistent
  // with the decoded kind.
  serving::QueryRequest request;
  request.user = 9;
  request.n = 3;
  request.kind = recommend::QueryKind::kGroup;
  request.aggregator = recommend::GroupAggregator::kMin;
  request.group = {100, 200, 300};
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, kTag, &bytes);
  const Frame frame = MustDecodeFrame(bytes);
  const std::vector<uint8_t>& payload = frame.payload;

  const auto check = [](const std::vector<uint8_t>& mutated) {
    serving::QueryRequest decoded;
    const Status status =
        DecodeQueryRequest(mutated.data(), mutated.size(), &decoded);
    if (!status.ok()) return;
    if (decoded.kind == recommend::QueryKind::kGroup) {
      EXPECT_GE(decoded.group.size(), 1u);
      EXPECT_LE(decoded.group.size(), static_cast<size_t>(kMaxGroupMembers));
    } else {
      EXPECT_TRUE(decoded.group.empty());
    }
    EXPECT_LE(decoded.n, kMaxTopN);
  };

  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> mutated = payload;
    for (uint32_t v = 0; v < 256; ++v) {
      if (v == payload[i]) continue;
      mutated[i] = static_cast<uint8_t>(v);
      check(mutated);
    }
  }
  for (size_t n = 0; n < payload.size(); ++n) {
    check(std::vector<uint8_t>(payload.begin(), payload.begin() + n));
  }
}

TEST(WireQueryKindTest, TaggedExtendedRequestEchoesTheTag) {
  serving::QueryRequest request;
  request.user = 11;
  request.n = 2;
  request.kind = recommend::QueryKind::kGroup;
  request.group = {5};
  std::vector<uint8_t> bytes;
  AppendQueryRequestFrame(request, FrameTag{true, 0xC0FFEEULL}, &bytes);
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame));
  EXPECT_TRUE(frame.tagged);
  EXPECT_EQ(frame.frame_id, 0xC0FFEEULL);
  serving::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload.data(),
                                 frame.payload.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.kind, recommend::QueryKind::kGroup);
  EXPECT_EQ(decoded.group, request.group);
}

}  // namespace
}  // namespace gemrec::net
