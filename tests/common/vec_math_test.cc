#include "common/vec_math.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace gemrec {
namespace {

TEST(VecMathTest, SigmoidAtZeroIsHalf) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
}

TEST(VecMathTest, SigmoidSaturates) {
  EXPECT_FLOAT_EQ(Sigmoid(100.0f), 1.0f);
  EXPECT_FLOAT_EQ(Sigmoid(-100.0f), 0.0f);
}

TEST(VecMathTest, SigmoidIsMonotone) {
  float prev = -1.0f;
  for (float x = -20.0f; x <= 20.0f; x += 0.5f) {
    const float y = Sigmoid(x);
    EXPECT_GE(y, prev);
    prev = y;
  }
}

TEST(VecMathTest, SigmoidSymmetry) {
  for (float x : {0.5f, 1.0f, 3.0f, 7.0f}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0f, 1e-6f);
  }
}

TEST(VecMathTest, DotBasic) {
  const float a[] = {1.0f, 2.0f, 3.0f};
  const float b[] = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 4.0f - 10.0f + 18.0f);
}

TEST(VecMathTest, DotZeroLengthIsZero) {
  const float a[] = {1.0f};
  EXPECT_FLOAT_EQ(Dot(a, a, 0), 0.0f);
}

TEST(VecMathTest, AxpyAccumulates) {
  const float x[] = {1.0f, 2.0f};
  float y[] = {10.0f, 20.0f};
  Axpy(3.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 13.0f);
  EXPECT_FLOAT_EQ(y[1], 26.0f);
}

TEST(VecMathTest, AxpyWithZeroAlphaIsNoop) {
  const float x[] = {5.0f, 5.0f};
  float y[] = {1.0f, 2.0f};
  Axpy(0.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
}

TEST(VecMathTest, ReluClampsNegatives) {
  float v[] = {-1.0f, 0.0f, 2.0f, -0.001f};
  ReluInPlace(v, 4);
  EXPECT_FLOAT_EQ(v[0], 0.0f);
  EXPECT_FLOAT_EQ(v[1], 0.0f);
  EXPECT_FLOAT_EQ(v[2], 2.0f);
  EXPECT_FLOAT_EQ(v[3], 0.0f);
}

TEST(VecMathTest, NormOfUnitVector) {
  const float v[] = {0.0f, 1.0f, 0.0f};
  EXPECT_FLOAT_EQ(Norm(v, 3), 1.0f);
}

TEST(VecMathTest, NormPythagorean) {
  const float v[] = {3.0f, 4.0f};
  EXPECT_FLOAT_EQ(Norm(v, 2), 5.0f);
}

TEST(VecMathTest, KernelVariantIsKnown) {
  const std::string variant = vec_detail::KernelVariant();
  EXPECT_TRUE(variant == "avx2" || variant == "scalar") << variant;
}

TEST(VecMathTest, FastSigmoidMatchesExactSigmoid) {
  for (float x = -20.0f; x <= 20.0f; x += 0.0137f) {
    EXPECT_NEAR(FastSigmoid(x), Sigmoid(x), 2e-6f) << "x=" << x;
  }
  EXPECT_FLOAT_EQ(FastSigmoid(0.0f), 0.5f);
  EXPECT_FLOAT_EQ(FastSigmoid(100.0f), 1.0f);
  EXPECT_FLOAT_EQ(FastSigmoid(-100.0f), 0.0f);
}

TEST(VecMathTest, FastSigmoidIsMonotoneAtBoundaries) {
  // The table edges (±range) and the clamp region must not produce a
  // non-monotone step.
  float prev = 0.0f;
  for (float x = -17.0f; x <= 17.0f; x += 0.001f) {
    const float y = FastSigmoid(x);
    EXPECT_GE(y, prev) << "x=" << x;
    prev = y;
  }
}

// ---------------------------------------------------------------------------
// Differential tests: the dispatched kernels (AVX2 when available) must
// match the scalar reference over awkward lengths, misaligned spans and
// denormal inputs. K in {1, 7, 16, 100} covers the sub-vector, odd,
// exactly-one-vector and multi-vector-with-tail cases.

class VecMathDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VecMathDifferentialTest, DotMatchesScalarReference) {
  const size_t n = GetParam();
  Rng rng(42 + n);
  // +1 so we can also test the unaligned-adjacent span starting at +1.
  std::vector<float> a(n + 1);
  std::vector<float> b(n + 1);
  for (auto& v : a) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.Gaussian(0.0, 1.0));

  const float ref = scalar::Dot(a.data(), b.data(), n);
  const float got = Dot(a.data(), b.data(), n);
  // Summation order differs; bound the relative error.
  const float tol = 1e-5f * (1.0f + std::fabs(ref));
  EXPECT_NEAR(got, ref, tol);

  // Unaligned-adjacent spans: same data shifted by one float breaks any
  // 32-byte alignment assumption.
  const float ref_off = scalar::Dot(a.data() + 1, b.data() + 1, n);
  const float got_off = Dot(a.data() + 1, b.data() + 1, n);
  EXPECT_NEAR(got_off, ref_off, 1e-5f * (1.0f + std::fabs(ref_off)));
}

TEST_P(VecMathDifferentialTest, AxpyMatchesScalarReference) {
  const size_t n = GetParam();
  Rng rng(7 + n);
  std::vector<float> x(n + 1);
  for (auto& v : x) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  std::vector<float> y0(n + 1);
  for (auto& v : y0) v = static_cast<float>(rng.Gaussian(0.0, 1.0));

  for (float alpha : {0.0f, 1.0f, -0.05f, 3.25f}) {
    std::vector<float> y_ref = y0;
    std::vector<float> y_got = y0;
    scalar::Axpy(alpha, x.data(), y_ref.data(), n);
    Axpy(alpha, x.data(), y_got.data(), n);
    for (size_t i = 0; i < n + 1; ++i) {
      // fma vs mul+add differ by at most one rounding.
      EXPECT_NEAR(y_got[i], y_ref[i], 1e-6f * (1.0f + std::fabs(y_ref[i])))
          << "alpha=" << alpha << " i=" << i;
    }

    // Unaligned-adjacent spans.
    y_ref = y0;
    y_got = y0;
    scalar::Axpy(alpha, x.data() + 1, y_ref.data() + 1, n);
    Axpy(alpha, x.data() + 1, y_got.data() + 1, n);
    for (size_t i = 0; i < n + 1; ++i) {
      EXPECT_NEAR(y_got[i], y_ref[i], 1e-6f * (1.0f + std::fabs(y_ref[i])));
    }
  }
}

TEST_P(VecMathDifferentialTest, ReluMatchesScalarReferenceExactly) {
  const size_t n = GetParam();
  Rng rng(11 + n);
  std::vector<float> v0(n + 1);
  for (auto& v : v0) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  // Sprinkle exact zeros, negative zeros and denormals.
  if (n >= 1) v0[0] = -0.0f;
  if (n >= 3) v0[2] = std::numeric_limits<float>::denorm_min();
  if (n >= 4) v0[3] = -std::numeric_limits<float>::denorm_min();

  std::vector<float> v_ref = v0;
  std::vector<float> v_got = v0;
  scalar::ReluInPlace(v_ref.data(), n);
  ReluInPlace(v_got.data(), n);
  // Clamping is exact: bitwise-comparable up to the -0.0f vs 0.0f
  // distinction, which both paths must treat as "not negative".
  for (size_t i = 0; i < n + 1; ++i) {
    EXPECT_EQ(v_got[i] == 0.0f, v_ref[i] == 0.0f) << "i=" << i;
    EXPECT_EQ(v_got[i], v_ref[i]) << "i=" << i;
  }

  v_ref = v0;
  v_got = v0;
  scalar::ReluInPlace(v_ref.data() + 1, n);
  ReluInPlace(v_got.data() + 1, n);
  for (size_t i = 0; i < n + 1; ++i) {
    EXPECT_EQ(v_got[i], v_ref[i]) << "i=" << i;
  }
}

TEST_P(VecMathDifferentialTest, DotHandlesDenormals) {
  const size_t n = GetParam();
  std::vector<float> a(n, std::numeric_limits<float>::denorm_min());
  std::vector<float> b(n, 1.0f);
  const float ref = scalar::Dot(a.data(), b.data(), n);
  const float got = Dot(a.data(), b.data(), n);
  // Either both flush to zero-ish or both accumulate; the values are
  // tiny, so absolute comparison with a denormal-scale tolerance works
  // whether or not FTZ is in effect.
  EXPECT_NEAR(got, ref, 1e-30f);
}

TEST_P(VecMathDifferentialTest, DotQ16MatchesScalarReferenceExactly) {
  const size_t n = GetParam();
  Rng rng(29 + n);
  std::vector<int16_t> a(n + 1);
  std::vector<int16_t> b(n + 1);
  for (auto& v : a) v = static_cast<int16_t>(rng.UniformInt(2048));
  for (auto& v : b) v = static_cast<int16_t>(rng.UniformInt(2048));

  EXPECT_EQ(DotQ16(a.data(), b.data(), n),
            scalar::DotQ16(a.data(), b.data(), n));
  EXPECT_EQ(DotQ16(a.data() + 1, b.data() + 1, n),
            scalar::DotQ16(a.data() + 1, b.data() + 1, n));
}

TEST(VecMathTest, DotQ16AccumulationBoundaryIsExact) {
  // n = 512 at max codes is the documented worst case: 512 * 2047^2 =
  // 2145386496 < 2^31 - 1, the largest exercise that cannot overflow
  // (the case the UBSan tier-1 stage pins).
  for (size_t n : {15u, 16u, 17u, 512u}) {
    std::vector<int16_t> a(n, 2047);
    std::vector<int16_t> b(n, 2047);
    const int32_t expect =
        static_cast<int32_t>(n) * (2047 * 2047);
    EXPECT_EQ(scalar::DotQ16(a.data(), b.data(), n), expect) << n;
    EXPECT_EQ(DotQ16(a.data(), b.data(), n), expect) << n;
  }
}

TEST(VecMathTest, DotQ16ZeroLengthIsZero) {
  const int16_t a[] = {5};
  const int16_t b[] = {7};
  EXPECT_EQ(scalar::DotQ16(a, b, 0), 0);
  EXPECT_EQ(DotQ16(a, b, 0), 0);
  // No rows: no output is written (the sentinel survives), whatever k.
  int32_t out = -1;
  scalar::DotQ16Rows(a, b, 0, 1, &out);
  EXPECT_EQ(out, -1);
  DotQ16Rows(a, b, 0, 1, &out);
  EXPECT_EQ(out, -1);
}

INSTANTIATE_TEST_SUITE_P(Lengths, VecMathDifferentialTest,
                         ::testing::Values(1, 7, 16, 100));

// The rows kernels against the scalar reference, bitwise: every row
// count from 0 to 9 plus 4m+1..3 tails past the 4-row steps, at code
// widths on both sides of the 16-code SIMD blocks, with random codes
// and with every code at its contract maximum (2047; at K = 512 the
// sum sits just under 2^31). Each case also runs
// with the query and the rows one code past their allocation, so the
// last row ends on the buffer's last element (an overread trips ASan),
// and a sentinel after the outputs must survive.
class DotQRowsTest : public ::testing::TestWithParam<size_t> {};

constexpr size_t kRowCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 15};

TEST_P(DotQRowsTest, DotQ16RowsMatchesScalarReferenceExactly) {
  const size_t k = GetParam();
  for (const bool all_max : {false, true}) {
    for (const size_t num_rows : kRowCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "rows=" << num_rows << " all_max=" << all_max);
      Rng rng(37 + 19 * k + num_rows);
      std::vector<int16_t> query(k + 1);
      std::vector<int16_t> rows(num_rows * k + 1);
      for (auto& v : query) {
        v = all_max ? 2047 : static_cast<int16_t>(rng.UniformInt(2048));
      }
      for (auto& v : rows) {
        v = all_max ? 2047 : static_cast<int16_t>(rng.UniformInt(2048));
      }
      for (const size_t offset : {0u, 1u}) {
        std::vector<int32_t> want(num_rows + 1, -1);
        std::vector<int32_t> got(num_rows + 1, -1);
        scalar::DotQ16Rows(query.data() + offset, rows.data() + offset,
                           num_rows, k, want.data());
        DotQ16Rows(query.data() + offset, rows.data() + offset, num_rows,
                   k, got.data());
        EXPECT_EQ(got, want) << "offset=" << offset;
        if (all_max && num_rows > 0) {
          EXPECT_EQ(want[0], static_cast<int32_t>(k) * (2047 * 2047));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, DotQRowsTest,
                         ::testing::Values(1, 7, 15, 16, 17, 31, 32, 33, 100,
                                           512));

TEST(VecMathTest, NormMatchesScalarReference) {
  Rng rng(3);
  std::vector<float> v(61);
  for (auto& x : v) x = static_cast<float>(rng.Gaussian(0.0, 2.0));
  const float ref = scalar::Norm(v.data(), v.size());
  EXPECT_NEAR(Norm(v.data(), v.size()), ref, 1e-5f * (1.0f + ref));
}

}  // namespace
}  // namespace gemrec
