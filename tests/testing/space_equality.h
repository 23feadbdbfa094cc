#ifndef GEMREC_TESTS_TESTING_SPACE_EQUALITY_H_
#define GEMREC_TESTS_TESTING_SPACE_EQUALITY_H_

// Bitwise comparisons of the query-independent serving structures
// (SpaceIndex, QuantizedSpace), shared by the tests that check a build
// with a previous against a build of the same space with none.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "recommend/quantized_space.h"
#include "recommend/space_index.h"

namespace gemrec::testing {

template <typename T>
void ExpectBitwiseEqual(const T* got, const T* want, size_t n,
                        const char* what) {
  EXPECT_EQ(0, n == 0 ? 0 : std::memcmp(got, want, n * sizeof(T))) << what;
}

template <typename T>
void ExpectBitwiseEqual(const std::vector<T>& got, const std::vector<T>& want,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ExpectBitwiseEqual(got.data(), want.data(), got.size(), what);
}

/// Groups, inverse maps, the C order and its C values.
inline void ExpectSameIndex(const recommend::SpaceIndex& got,
                            const recommend::SpaceIndex& want) {
  EXPECT_EQ(got.events(), want.events());
  EXPECT_EQ(got.partners(), want.partners());
  ASSERT_EQ(got.num_events(), want.num_events());
  ASSERT_EQ(got.num_partners(), want.num_partners());
  for (size_t g = 0; g < want.num_events(); ++g) {
    EXPECT_TRUE(std::ranges::equal(got.EventPairs(g), want.EventPairs(g)));
  }
  for (size_t g = 0; g < want.num_partners(); ++g) {
    EXPECT_TRUE(
        std::ranges::equal(got.PartnerPairs(g), want.PartnerPairs(g)));
  }
  EXPECT_EQ(got.pair_event_idx(), want.pair_event_idx());
  EXPECT_EQ(got.pair_partner_idx(), want.pair_partner_idx());
  EXPECT_EQ(got.c_sorted(), want.c_sorted());
  ExpectBitwiseEqual(got.c_sorted_values(), want.c_sorted_values(),
                     "c_sorted_values");
}

/// Block order, codes in block order and block maxes.
inline void ExpectSameBlocks(const recommend::CodeBlocks& got,
                             const recommend::CodeBlocks& want,
                             const char* list) {
  SCOPED_TRACE(list);
  ExpectBitwiseEqual(got.order(), want.order(), "block order");
  ExpectBitwiseEqual(got.codes(), want.codes(), "codes");
  ExpectBitwiseEqual(got.block_max(), want.block_max(), "block max");
}

/// One-hot queries read back each dimension's zero point (the bias),
/// scale (through the folded code scale) and rounding bound (epsilon),
/// so equal outputs pin the private quantization parameters bitwise.
inline void ExpectSameQuantization(const recommend::QuantizedSpace& got,
                                   const recommend::QuantizedSpace& want) {
  const uint32_t k = want.latent_dim();
  ASSERT_EQ(got.latent_dim(), k);
  EXPECT_EQ(got.max_event_code_row_sum(), want.max_event_code_row_sum());
  EXPECT_EQ(got.max_partner_code_row_sum(), want.max_partner_code_row_sum());
  ExpectSameBlocks(got.event_blocks(), want.event_blocks(), "event");
  ExpectSameBlocks(got.partner_blocks(), want.partner_blocks(), "partner");
  for (uint32_t d = 0; d <= 2 * k; ++d) {
    std::vector<float> query(2 * k + 1, 0.0f);
    query[d] = 1.0f;
    std::vector<int16_t> eg(k), pg(k), ew(k), pw(k);
    const auto qg = got.QuantizeQuery(query.data(), eg.data(), pg.data());
    const auto qw = want.QuantizeQuery(query.data(), ew.data(), pw.data());
    ExpectBitwiseEqual(&qg, &qw, 1, "quantized one-hot query");
    ExpectBitwiseEqual(eg, ew, "query codes");
    ExpectBitwiseEqual(pg, pw, "query codes");
  }
}

/// What one-hot partner-half queries read back of the partner-half
/// quantization parameters: per dimension the zero point (the bias),
/// the scale (the folded code scale) and, for a flat column, the
/// residual range (epsilon; otherwise the bound is half the scale).
/// Two spaces with different keys have different parameters.
inline std::vector<float> PartnerParamsKey(
    const recommend::QuantizedSpace& quant) {
  const uint32_t k = quant.latent_dim();
  std::vector<float> key;
  std::vector<int16_t> event_codes(k), partner_codes(k);
  for (uint32_t d = k; d < 2 * k; ++d) {
    std::vector<float> query(2 * k + 1, 0.0f);
    query[d] = 1.0f;
    const auto q = quant.QuantizeQuery(query.data(), event_codes.data(),
                                       partner_codes.data());
    key.push_back(q.partner_bias);
    key.push_back(q.partner_scale);
    key.push_back(q.partner_scale == 0.0f ? q.epsilon : 0.0f);
  }
  return key;
}

}  // namespace gemrec::testing

#endif  // GEMREC_TESTS_TESTING_SPACE_EQUALITY_H_
