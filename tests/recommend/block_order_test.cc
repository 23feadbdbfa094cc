// The block-bounded list order against its definition: for any code
// list and query, BlockOrder must emit exactly the descending sort of
// every (dot << 32 | group) key — for lists of
// 0, 1, 63, 64, 65 and about 12,000 groups, for a flat query (every
// bound 0, so every block expands), and for equal dots whose blocks are
// expanded in the opposite order of their group ids (the case the >=
// in the expansion rule exists for). CodeBlocks' layout is pinned too:
// rows sorted by code sum with ties by group id, per-group rows intact,
// and each block's bound at least every dot in it.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec_math.h"
#include "recommend/batch_ta_search.h"
#include "recommend/quantized_space.h"

namespace gemrec::recommend {
namespace {

constexpr uint32_t kDim = 32;

/// One list plus the query codes.
struct Case {
  std::vector<int16_t> by_group;  // group g's row at [g * k, (g + 1) * k)
  std::vector<int16_t> query;
  uint32_t k = kDim;

  size_t num_groups() const { return by_group.size() / k; }
  CodeBlocks Blocks() const { return CodeBlocks(by_group, k); }
  QueryCodes Query() const { return query.data(); }
  int32_t Dot(size_t g) const {
    return scalar::DotQ16(query.data(), by_group.data() + g * k, k);
  }
};

Case RandomCase(size_t num_groups, uint64_t seed) {
  constexpr int kLevels = 2047;
  Case c;
  Rng rng(seed);
  c.by_group.resize(num_groups * c.k);
  for (int16_t& v : c.by_group) {
    v = static_cast<int16_t>(rng.UniformInt(kLevels + 1));
  }
  c.query.resize(c.k);
  for (int16_t& v : c.query) {
    v = static_cast<int16_t>(rng.UniformInt(kLevels + 1));
  }
  return c;
}

/// Every key of the list, sorted descending: the order's definition.
std::vector<uint64_t> SortedKeys(const Case& c) {
  std::vector<uint64_t> keys(c.num_groups());
  for (size_t g = 0; g < keys.size(); ++g) {
    keys[g] = BlockOrder::Key(c.Dot(g), g);
  }
  std::sort(keys.begin(), keys.end(), std::greater<uint64_t>());
  return keys;
}

/// Reads the whole order (each position twice, as the walk re-reads
/// its current position) and compares it with SortedKeys.
void ExpectSortedOrder(const Case& c) {
  const CodeBlocks blocks = c.Blocks();
  const std::vector<uint64_t> want = SortedKeys(c);
  BlockOrder order;
  order.Reset(&blocks, c.Query());
  EXPECT_EQ(order.blocks_expanded(), 0u);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(order.At(i), want[i]) << "position " << i;
    ASSERT_EQ(order.At(i), want[i]) << "re-read of position " << i;
  }
  EXPECT_EQ(order.blocks_expanded(), blocks.num_blocks());
  // A reset order starts over.
  order.Reset(&blocks, c.Query());
  for (size_t i = 0; i < std::min<size_t>(want.size(), 3); ++i) {
    ASSERT_EQ(order.At(i), want[i]);
  }
}

void ExpectLayout(const Case& c) {
  const CodeBlocks blocks = c.Blocks();
  const size_t n = c.num_groups();
  ASSERT_EQ(blocks.num_groups(), n);
  EXPECT_EQ(blocks.num_blocks(),
            (n + CodeBlocks::kBlockRows - 1) / CodeBlocks::kBlockRows);
  const auto row_sum = [&c](size_t g) {
    int64_t s = 0;
    for (uint32_t d = 0; d < c.k; ++d) s += c.by_group[g * c.k + d];
    return s;
  };
  const std::vector<uint32_t>& order = blocks.order();
  ASSERT_EQ(order.size(), n);
  for (size_t p = 1; p < n; ++p) {
    const int64_t a = row_sum(order[p - 1]);
    const int64_t b = row_sum(order[p]);
    ASSERT_TRUE(a < b || (a == b && order[p - 1] < order[p]))
        << "positions " << p - 1 << ", " << p;
  }
  std::vector<int32_t> bounds(blocks.num_blocks());
  blocks.BlockBounds(c.Query(), bounds.data());
  for (size_t g = 0; g < n; ++g) {
    const int16_t* row = blocks.Codes(g);
    ASSERT_TRUE(std::equal(row, row + c.k, c.by_group.data() + g * c.k))
        << "group " << g;
    EXPECT_EQ(blocks.GroupDot(c.Query(), g), c.Dot(g));
  }
  for (size_t p = 0; p < n; ++p) {
    EXPECT_LE(c.Dot(order[p]), bounds[p / CodeBlocks::kBlockRows]);
  }
}

TEST(BlockOrderTest, EmitsTheSortOfAllKeys) {
  for (const size_t groups : {0, 1, 63, 64, 65, 12003}) {
    SCOPED_TRACE(groups);
    const Case c = RandomCase(groups, 100 + groups);
    ExpectLayout(c);
    ExpectSortedOrder(c);
  }
}

TEST(BlockOrderTest, FlatQueryExpandsEveryBlockAtTheFirstRead) {
  Case c = RandomCase(1000, 7);
  std::fill(c.query.begin(), c.query.end(), 0);
  const CodeBlocks blocks = c.Blocks();
  BlockOrder order;
  order.Reset(&blocks, c.Query());
  // Every bound and every dot is 0, so no block may be skipped: the
  // first key is the largest group id, wherever its block sits.
  EXPECT_EQ(order.At(0), BlockOrder::Key(0, 999));
  EXPECT_EQ(order.blocks_expanded(), blocks.num_blocks());
  ExpectSortedOrder(c);
}

/// Two blocks of 64 over K = 4 and the one-hot query (1, 0, 0, 0):
///   block 0 (small code sums): groups 64..126 all-zero, and group 127
///     = (5, 0, 0, 0), so the block's bound is 5;
///   block 1 (large sums): groups 2..63 = (0, 50, 50, 50), group 0 =
///     (5, 100, 100, 100) and group 1 = (9, 100, 100, 100), bound 9.
/// Block 1 expands first and emits (9, group 1). Its next key is
/// (5, group 0), but block 0's bound equals 5 and holds (5, group 127),
/// whose key is larger, so block 0 must expand before that emission.
TEST(BlockOrderTest, EqualDotsAcrossBlocksKeepGroupIdOrder) {
  Case c;
  c.k = 4;
  c.by_group.assign(128 * c.k, 0);
  for (size_t g = 2; g < 64; ++g) {
    for (size_t d = 1; d < 4; ++d) c.by_group[g * c.k + d] = 50;
  }
  for (size_t g : {0, 1}) {
    c.by_group[g * c.k] = g == 0 ? 5 : 9;
    for (size_t d = 1; d < 4; ++d) c.by_group[g * c.k + d] = 100;
  }
  c.by_group[127 * c.k] = 5;
  c.query = {1, 0, 0, 0};

  const CodeBlocks blocks = c.Blocks();
  ASSERT_EQ(blocks.num_blocks(), 2u);
  EXPECT_EQ(blocks.order()[63], 127u);
  EXPECT_EQ(blocks.order()[126], 0u);
  EXPECT_EQ(blocks.order()[127], 1u);

  BlockOrder order;
  order.Reset(&blocks, c.Query());
  EXPECT_EQ(order.At(0), BlockOrder::Key(9, 1));
  EXPECT_EQ(order.blocks_expanded(), 1u);
  EXPECT_EQ(order.At(1), BlockOrder::Key(5, 127));
  EXPECT_EQ(order.At(2), BlockOrder::Key(5, 0));
  ExpectSortedOrder(c);
}

}  // namespace
}  // namespace gemrec::recommend
