// Threshold-merge semantics: global descending order with the
// documented deterministic tie-break, the completeness certificate
// (merged k-th score vs the shards' returned TA bounds), partial
// degradation when a shard slot failed, typed refusals (bad request,
// overloaded) answering the whole merge, and the coordinator-level
// unreturned bound.

#include "shard/merger.h"

#include <limits>

#include <gtest/gtest.h>

namespace gemrec::shard {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
using serving::ResponseCode;

ShardAnswer Ok(uint32_t shard,
               std::vector<recommend::Recommendation> items,
               float ta_bound, uint64_t epoch = 1) {
  ShardAnswer answer;
  answer.shard = shard;
  answer.ok = true;
  answer.items = std::move(items);
  answer.ta_bound = ta_bound;
  answer.epoch = epoch;
  return answer;
}

ShardAnswer Failed(uint32_t shard, ResponseCode code = ResponseCode::kOk) {
  ShardAnswer answer;
  answer.shard = shard;
  answer.ok = false;
  answer.code = code;
  return answer;
}

TEST(MergerTest, MergesDescendingAcrossShards) {
  const auto merged = MergeTopK(
      {Ok(0, {{10, 1, 0.9f}, {11, 2, 0.5f}}, 0.4f),
       Ok(1, {{20, 3, 0.7f}, {21, 4, 0.6f}}, 0.3f)},
      3);
  ASSERT_EQ(merged.items.size(), 3u);
  EXPECT_EQ(merged.items[0].event, 10u);
  EXPECT_EQ(merged.items[1].event, 20u);
  EXPECT_EQ(merged.items[2].event, 21u);
  EXPECT_FALSE(merged.partial);
  EXPECT_TRUE(merged.certified);
  EXPECT_EQ(merged.epoch, 1u);
  // k-th = 0.6; one item (0.5) was dropped here, both shard bounds
  // are below: coordinator bound = max(0.4, 0.3, kth-as-drop-bound).
  EXPECT_EQ(merged.ta_bound, 0.6f);
}

TEST(MergerTest, ShortMergeKeepsEverythingAndCertifies) {
  const auto merged = MergeTopK(
      {Ok(0, {{1, 1, 0.9f}}, -kInf), Ok(1, {{2, 2, 0.8f}}, -kInf)}, 10);
  ASSERT_EQ(merged.items.size(), 2u);
  EXPECT_TRUE(merged.certified);  // nothing unreturned anywhere
  EXPECT_FALSE(merged.partial);
  EXPECT_EQ(merged.ta_bound, -kInf);
}

TEST(MergerTest, TiesBreakByEventThenPartner) {
  const auto merged = MergeTopK(
      {Ok(0, {{7, 9, 0.5f}, {7, 2, 0.5f}}, -kInf),
       Ok(1, {{3, 5, 0.5f}}, -kInf)},
      3);
  ASSERT_EQ(merged.items.size(), 3u);
  EXPECT_EQ(merged.items[0].event, 3u);   // lowest event first
  EXPECT_EQ(merged.items[1].event, 7u);
  EXPECT_EQ(merged.items[1].partner, 2u);  // then lowest partner
  EXPECT_EQ(merged.items[2].partner, 9u);
}

TEST(MergerTest, FailedShardDegradesToPartial) {
  const auto merged = MergeTopK(
      {Ok(0, {{1, 1, 0.9f}, {2, 2, 0.8f}}, 0.1f), Failed(1)}, 2);
  EXPECT_TRUE(merged.partial);
  EXPECT_FALSE(merged.certified);  // shard 1's slice is missing
  EXPECT_EQ(merged.ta_bound, kInf);
  // The replying shard's answers survive intact.
  ASSERT_EQ(merged.items.size(), 2u);
  EXPECT_EQ(merged.items[0].event, 1u);
  EXPECT_EQ(merged.code, ResponseCode::kOk);
}

TEST(MergerTest, OverloadedShardPropagates) {
  const auto merged = MergeTopK(
      {Ok(0, {{1, 1, 0.9f}}, -kInf), Failed(1, ResponseCode::kOverloaded)},
      5);
  EXPECT_EQ(merged.code, ResponseCode::kOverloaded);
  EXPECT_TRUE(merged.items.empty());
  EXPECT_FALSE(merged.partial);
  EXPECT_FALSE(merged.certified);
  EXPECT_EQ(merged.ta_bound, kInf);
}

TEST(MergerTest, BadRequestFromAnyShardAnswersTheMerge) {
  // A request invalid for one slice is invalid for the whole space:
  // the merge is a typed kBadRequest — never an empty partial — and it
  // outranks a shard that merely shed load.
  const auto merged = MergeTopK(
      {Failed(0, ResponseCode::kOverloaded), Ok(1, {{1, 1, 0.9f}}, -kInf),
       Failed(2, ResponseCode::kBadRequest)},
      5);
  EXPECT_EQ(merged.code, ResponseCode::kBadRequest);
  EXPECT_TRUE(merged.items.empty());
  EXPECT_FALSE(merged.partial);
  EXPECT_EQ(merged.ta_bound, kInf);
}

TEST(MergerTest, AllShardsFailedYieldsEmptyPartial) {
  const auto merged = MergeTopK({Failed(0), Failed(1)}, 5);
  EXPECT_TRUE(merged.partial);
  EXPECT_TRUE(merged.items.empty());
  EXPECT_FALSE(merged.certified);
  EXPECT_EQ(merged.ta_bound, kInf);
  EXPECT_EQ(merged.epoch, 0u);
}

TEST(MergerTest, EpochIsMaxOverRepliers) {
  const auto merged =
      MergeTopK({Ok(0, {}, -kInf, 3), Ok(1, {}, -kInf, 7)}, 1);
  EXPECT_EQ(merged.epoch, 7u);
}

TEST(MergerTest, BoundOmitsKthWhenNothingDropped) {
  // Exactly n items total: nothing dropped in the merge, so the
  // coordinator bound is just the max shard bound, NOT the k-th score.
  const auto merged = MergeTopK(
      {Ok(0, {{1, 1, 0.9f}}, 0.2f), Ok(1, {{2, 2, 0.8f}}, 0.1f)}, 2);
  ASSERT_EQ(merged.items.size(), 2u);
  EXPECT_TRUE(merged.certified);
  EXPECT_EQ(merged.ta_bound, 0.2f);
}

}  // namespace
}  // namespace gemrec::shard
