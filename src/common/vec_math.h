#ifndef GEMREC_COMMON_VEC_MATH_H_
#define GEMREC_COMMON_VEC_MATH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace gemrec {

/// Numerically clamped logistic sigmoid (the paper's f(x)). Exact
/// (libm) evaluation; the hot SGD loop uses FastSigmoid below.
inline float Sigmoid(float x) {
  if (x > 15.0f) return 1.0f;
  if (x < -15.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

namespace vec_detail {

/// Precomputed sigmoid table (word2vec-style), linearly interpolated.
/// kSigmoidEntries intervals over [-kSigmoidRange, kSigmoidRange]; the
/// interpolation error bound is h^2 * max|sigma''| / 8 < 1e-6 for
/// h = 2 * 16 / 4096.
constexpr int kSigmoidEntries = 4096;
constexpr float kSigmoidRange = 16.0f;
extern const float* SigmoidTable();  // kSigmoidEntries + 1 floats

// Kernel entry points, resolved once at first call to the best
// implementation the host CPU supports (AVX2+FMA on x86-64, an
// unrolled multi-accumulator scalar loop elsewhere).
float DotDispatch(const float* a, const float* b, size_t n);
void AxpyDispatch(float alpha, const float* x, float* y, size_t n);
void ReluDispatch(float* x, size_t n);
void DotQ16RowsDispatch(const int16_t* query, const int16_t* rows,
                        size_t num_rows, size_t k, int32_t* out);

/// Name of the kernel variant in use ("avx2" or "scalar"); for logs,
/// benches and tests.
const char* KernelVariant();

}  // namespace vec_detail

/// Table-interpolated sigmoid for hot loops: ~10x cheaper than expf
/// with absolute error < 1e-6. Exactly 0/1 outside +/-kSigmoidRange,
/// exactly 0.5 at 0.
inline float FastSigmoid(float x) {
  using vec_detail::kSigmoidEntries;
  using vec_detail::kSigmoidRange;
  if (x >= kSigmoidRange) return 1.0f;
  if (x <= -kSigmoidRange) return 0.0f;
  const float* table = vec_detail::SigmoidTable();
  const float t =
      (x + kSigmoidRange) *
      (static_cast<float>(kSigmoidEntries) / (2.0f * kSigmoidRange));
  const int i = static_cast<int>(t);
  const float frac = t - static_cast<float>(i);
  return table[i] + frac * (table[i + 1] - table[i]);
}

/// Scalar reference kernels. These define the semantics the vectorized
/// paths must match (up to float summation reordering for Dot); the
/// differential tests in tests/common/vec_math_test.cc pin the
/// dispatched kernels to these.
namespace scalar {

inline float Dot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

inline void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline void ReluInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

inline float Norm(const float* x, size_t n) {
  return std::sqrt(Dot(x, x, n));
}

/// Quantized dot product. The value-range contract (enforced by the
/// quantizer, not the kernel) exists so the AVX2 variant can use
/// _mm256_madd_epi16 without saturating and the scalar reference can
/// accumulate in int32 without signed overflow (which UBSan would flag):
/// both sides in [0, 2047] and n <= 512 (per-product <= 2047^2 ~ 2^22;
/// 512 of them < 2^31).
inline int32_t DotQ16(const int16_t* a, const int16_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

/// One query against `num_rows` contiguous rows of k codes each:
/// out[r] = DotQ16(query, rows + r * k, k).
inline void DotQ16Rows(const int16_t* query, const int16_t* rows,
                       size_t num_rows, size_t k, int32_t* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = DotQ16(query, rows + r * k, k);
  }
}

}  // namespace scalar

/// Dense dot product over contiguous float spans of length n.
/// Works on any alignment; Matrix rows are additionally 32-byte
/// aligned so whole-row calls start on a vector boundary.
inline float Dot(const float* a, const float* b, size_t n) {
  return vec_detail::DotDispatch(a, b, n);
}

/// y += alpha * x, over contiguous spans of length n.
inline void Axpy(float alpha, const float* x, float* y, size_t n) {
  vec_detail::AxpyDispatch(alpha, x, y, n);
}

/// Clamps every coordinate to be nonnegative (the paper's rectifier
/// projection applied after each SGD update).
inline void ReluInPlace(float* x, size_t n) {
  vec_detail::ReluDispatch(x, n);
}

/// Euclidean norm.
inline float Norm(const float* x, size_t n) {
  return std::sqrt(Dot(x, x, n));
}

/// Quantized-code dot products of one query against `num_rows`
/// contiguous code rows (row r starts at rows + r * k):
/// out[r] = sum_i query[i] * rows[r * k + i], over 11-bit codes (see the
/// scalar reference for the [0, 2047], k <= 512 contract).
/// Integer-exact: the dispatched kernel returns the same int32s as the
/// scalar loop, bit for bit — no float reassociation caveat like Dot.
/// The AVX2 variant takes four rows per step and reduces them together,
/// so a block of rows costs one call and a quarter of the horizontal
/// reductions of per-row calls.
inline void DotQ16Rows(const int16_t* query, const int16_t* rows,
                       size_t num_rows, size_t k, int32_t* out) {
  vec_detail::DotQ16RowsDispatch(query, rows, num_rows, k, out);
}

/// One-row DotQ16Rows: the dot of two n-code spans.
inline int32_t DotQ16(const int16_t* a, const int16_t* b, size_t n) {
  int32_t out = 0;
  DotQ16Rows(a, b, 1, n, &out);
  return out;
}

}  // namespace gemrec

#endif  // GEMREC_COMMON_VEC_MATH_H_
