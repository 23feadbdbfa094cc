// The snapshot build with no previous (BuildCandidateList, SpaceIndex,
// QuantizedSpace), checked against brute-force oracles rather than
// against another build: each partner slice against an exhaustive sort
// of the pool by RankKey, the C order against std::stable_sort by C
// descending (so +0 and -0 tie and keep pair-id order), every code row
// against an encode computed here from its column's min and max, and
// the code-block layout against std::sort by (row sum, group) with
// each block max its block's column max. Two spaces: a pruned one over
// enough partners to rank in at least three chunks, and an event-major
// generic one with picked C values (the index reads C only as sort
// keys) full of ties and signed zeros.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/vec_math.h"
#include "recommend/candidate_index.h"
#include "recommend/gem_model.h"
#include "recommend/quantized_space.h"
#include "recommend/space_index.h"
#include "recommend/space_transform.h"

namespace gemrec::recommend {
namespace {

constexpr uint32_t kDim = 8;
constexpr int kLevels = 2047;

std::unique_ptr<embedding::EmbeddingStore> AbsGaussianStore(
    uint32_t num_users, uint32_t num_events, uint64_t seed) {
  auto store = std::make_unique<embedding::EmbeddingStore>(
      kDim, std::array<uint32_t, 5>{num_users, num_events, 1, 1, 1});
  Rng rng(seed);
  store->MatrixOf(graph::NodeType::kUser).FillAbsGaussian(&rng, 0.2, 0.3);
  store->MatrixOf(graph::NodeType::kEvent).FillAbsGaussian(&rng, 0.2, 0.3);
  return store;
}

/// Each slice i of `space` holds partners[i]'s k best pool events by
/// RankKey, best first, with C bitwise the ranking score.
void ExpectExhaustiveSlices(const GemModel& model,
                            const std::vector<ebsn::EventId>& pool,
                            const std::vector<ebsn::UserId>& partners,
                            size_t k, const TransformedSpace& space) {
  ASSERT_EQ(space.num_points(), partners.size() * k);
  std::vector<RankKey> keys(pool.size());
  for (size_t i = 0; i < partners.size(); ++i) {
    const float* uv = model.UserVec(partners[i]);
    for (size_t j = 0; j < pool.size(); ++j) {
      keys[j] = {Dot(uv, model.EventVec(pool[j]), model.dim()),
                 static_cast<uint32_t>(j)};
    }
    std::sort(keys.begin(), keys.end(),
              [](RankKey a, RankKey b) { return a > b; });
    for (size_t j = 0; j < k; ++j) {
      const CandidatePair& pair = space.pair(i * k + j);
      ASSERT_EQ(pair.partner, partners[i]) << "slice " << i;
      ASSERT_EQ(pair.event, pool[keys[j].position])
          << "slice " << i << " slot " << j;
      ASSERT_EQ(std::bit_cast<uint32_t>(space.c_values()[i * k + j]),
                std::bit_cast<uint32_t>(keys[j].dot))
          << "slice " << i << " slot " << j;
    }
  }
}

/// The groups hold every pair of their id and nothing else, and the C
/// order is std::stable_sort by C descending with its C values.
void ExpectOracleIndex(const SpaceIndex& index) {
  const TransformedSpace& space = index.space();
  const size_t n = space.num_points();
  ASSERT_EQ(index.pair_event_idx().size(), n);
  ASSERT_EQ(index.pair_partner_idx().size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(index.events()[index.pair_event_idx()[i]], space.pair(i).event);
    ASSERT_EQ(index.partners()[index.pair_partner_idx()[i]],
              space.pair(i).partner);
  }
  std::vector<uint32_t> want(n);
  std::iota(want.begin(), want.end(), 0u);
  const std::vector<float>& c = space.c_values();
  std::stable_sort(want.begin(), want.end(),
                   [&](uint32_t a, uint32_t b) { return c[a] > c[b]; });
  ASSERT_EQ(index.c_sorted(), want);
  ASSERT_EQ(index.c_sorted_values().size(), n);
  for (size_t r = 0; r < n; ++r) {
    ASSERT_EQ(std::bit_cast<uint32_t>(index.c_sorted_values()[r]),
              std::bit_cast<uint32_t>(c[want[r]]))
        << "rank " << r;
  }
}

/// One list's code rows by group, encoded from each column's min and
/// max over `rows`: code = round((v - min) / (range / 2047)), clamped,
/// and 0 where the range is below 1e-12.
std::vector<std::vector<int16_t>> OracleCodes(
    const std::vector<const float*>& rows) {
  std::vector<float> lo(kDim, 0.0f), hi(kDim, 0.0f);
  for (uint32_t d = 0; d < kDim; ++d) {
    for (size_t g = 0; g < rows.size(); ++g) {
      lo[d] = g == 0 ? rows[g][d] : std::min(lo[d], rows[g][d]);
      hi[d] = g == 0 ? rows[g][d] : std::max(hi[d], rows[g][d]);
    }
  }
  std::vector<std::vector<int16_t>> codes(rows.size(),
                                          std::vector<int16_t>(kDim, 0));
  for (size_t g = 0; g < rows.size(); ++g) {
    for (uint32_t d = 0; d < kDim; ++d) {
      const float range = hi[d] - lo[d];
      if (range < 1e-12f) continue;
      const float scale = range / static_cast<float>(kLevels);
      const long code = std::lround((rows[g][d] - lo[d]) / scale);
      codes[g][d] = static_cast<int16_t>(std::clamp(code, 0L, long{kLevels}));
    }
  }
  return codes;
}

/// `blocks` holds `want`'s rows in std::sort order by (row sum, group),
/// cut into blocks whose max rows are their rows' column maxes.
void ExpectOracleBlocks(const CodeBlocks& blocks,
                        const std::vector<std::vector<int16_t>>& want) {
  const size_t num_groups = want.size();
  ASSERT_EQ(blocks.num_groups(), num_groups);
  std::vector<std::pair<int64_t, uint32_t>> by_sum(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    by_sum[g] = {std::accumulate(want[g].begin(), want[g].end(), int64_t{0}),
                 static_cast<uint32_t>(g)};
  }
  std::sort(by_sum.begin(), by_sum.end());
  for (size_t p = 0; p < num_groups; ++p) {
    ASSERT_EQ(blocks.order()[p], by_sum[p].second) << "position " << p;
  }
  for (size_t g = 0; g < num_groups; ++g) {
    const int16_t* row = blocks.Codes(g);
    ASSERT_TRUE(std::equal(want[g].begin(), want[g].end(), row))
        << "group " << g;
  }
  ASSERT_EQ(blocks.block_max().size(), blocks.num_blocks() * kDim);
  for (size_t b = 0; b < blocks.num_blocks(); ++b) {
    std::vector<int16_t> max_row(kDim, 0);
    const size_t end = std::min(num_groups, (b + 1) * CodeBlocks::kBlockRows);
    for (size_t p = b * CodeBlocks::kBlockRows; p < end; ++p) {
      const std::vector<int16_t>& row = want[blocks.order()[p]];
      for (uint32_t d = 0; d < kDim; ++d) {
        max_row[d] = std::max(max_row[d], row[d]);
      }
    }
    ASSERT_TRUE(std::equal(max_row.begin(), max_row.end(),
                           blocks.block_max().data() + b * kDim))
        << "block " << b;
  }
  EXPECT_EQ(blocks.MaxRowSum(), num_groups == 0 ? 0 : by_sum.back().first);
}

/// Both code lists of `quant` against their oracles.
void ExpectOracleCodes(const GemModel& model, const QuantizedSpace& quant) {
  const SpaceIndex& index = quant.index();
  std::vector<const float*> event_rows, partner_rows;
  for (const ebsn::EventId x : index.events()) {
    event_rows.push_back(model.EventVec(x));
  }
  for (const ebsn::UserId u : index.partners()) {
    partner_rows.push_back(model.UserVec(u));
  }
  {
    SCOPED_TRACE("event codes");
    ExpectOracleBlocks(quant.event_blocks(), OracleCodes(event_rows));
  }
  {
    SCOPED_TRACE("partner codes");
    ExpectOracleBlocks(quant.partner_blocks(), OracleCodes(partner_rows));
  }
}

TEST(BuildOracleTest, PrunedSpaceEqualsBruteForce) {
  constexpr uint32_t kUsers = 3 * kMinChunkPartners + 37;
  constexpr uint32_t kEvents = 90;
  constexpr uint32_t kTopK = 12;
  static_assert(kUsers / kMinChunkPartners >= 3, "three ranking chunks");
  auto store = AbsGaussianStore(kUsers, kEvents, 5);
  // Tied rows: a few events and users repeat another's row.
  Matrix& events = store->MatrixOf(graph::NodeType::kEvent);
  Matrix& users = store->MatrixOf(graph::NodeType::kUser);
  for (uint32_t d = 0; d < kDim; ++d) {
    events.At(40, d) = events.At(7, d);
    events.At(41, d) = events.At(7, d);
    users.At(300, d) = users.At(299, d);
  }
  GemModel model(store.get(), "GEM");
  // The pool lists most events, out of id order.
  std::vector<ebsn::EventId> pool;
  for (uint32_t j = 0; j < kEvents; ++j) {
    const ebsn::EventId x = (j * 37 + 11) % kEvents;
    if (x % 9 != 4) pool.push_back(x);
  }
  const std::vector<ebsn::UserId> partners = AllUsers(kUsers);

  CandidateList list = BuildCandidateList(model, pool, partners, kTopK);
  EXPECT_TRUE(list.ranked.empty());
  const TransformedSpace space(model, std::move(list.pairs),
                               std::move(list.c));
  const SpaceIndex index(&space);
  const QuantizedSpace quant(&index);

  ExpectExhaustiveSlices(model, pool, partners, kTopK, space);
  ASSERT_EQ(index.partners(), partners);
  for (size_t g = 0; g < partners.size(); ++g) {
    const auto slice = index.PartnerPairs(g);
    ASSERT_EQ(slice.size(), kTopK);
    EXPECT_EQ(slice.front(), g * kTopK);
  }
  ExpectOracleIndex(index);
  ExpectOracleCodes(model, quant);
  EXPECT_GT(quant.partner_blocks().num_blocks(), 2u);
}

TEST(BuildOracleTest, EventMajorGenericSpaceEqualsBruteForce) {
  constexpr uint32_t kUsers = 70;
  constexpr uint32_t kEvents = 40;
  auto store = AbsGaussianStore(kUsers, kEvents, 6);
  // A flat column: every partner row shares dimension 3.
  Matrix& users = store->MatrixOf(graph::NodeType::kUser);
  for (uint32_t u = 0; u < kUsers; ++u) users.At(u, 3) = 0.25f;
  GemModel model(store.get(), "GEM");
  std::vector<CandidatePair> pairs;
  for (uint32_t x = 0; x < kEvents; ++x) {
    for (uint32_t u = 0; u < kUsers; ++u) {
      if ((x + u) % 3 != 0) pairs.push_back({x, u});
    }
  }
  // Few distinct C values, both zeros among them: long runs of ties.
  constexpr std::array<float, 7> kValues = {2.0f,  1.5f,   0.5f,  0.0f,
                                            -0.0f, -0.25f, 0.125f};
  Rng rng(9);
  std::vector<float> c(pairs.size());
  for (float& v : c) v = kValues[rng.UniformInt(kValues.size())];
  const TransformedSpace space(model, pairs, c);
  const SpaceIndex index(&space);
  const QuantizedSpace quant(&index);

  ExpectOracleIndex(index);
  ExpectOracleCodes(model, quant);
  EXPECT_EQ(index.num_events(), kEvents);
  EXPECT_EQ(index.num_partners(), kUsers);
}

}  // namespace
}  // namespace gemrec::recommend
