// Vectorized kernel implementations behind the vec_math.h dispatch.
//
// Two tiers per kernel:
//   - portable: 4-way unrolled scalar with independent accumulators
//     (breaks the addss dependency chain that makes the naive reference
//     loop latency-bound), auto-vectorizable by the compiler;
//   - x86-64 AVX2+FMA via function target attributes, selected at
//     runtime with __builtin_cpu_supports, so default builds get SIMD
//     without -march flags and the binary stays portable.
//
// Dispatch uses the resolver-pointer pattern: each entry point starts
// as a resolver that probes the CPU once, retargets the atomic function
// pointer, and tail-calls the chosen kernel. Concurrent first calls
// race benignly (both write the same value).

#include "common/vec_math.h"

#include <atomic>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#define GEMREC_X86 1
#include <immintrin.h>
#endif

namespace gemrec::vec_detail {
namespace {

// ---------------------------------------------------------------------------
// Portable kernels.

float DotPortable(const float* a, const float* b, size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void AxpyPortable(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ReluPortable(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = x[i] < 0.0f ? 0.0f : x[i];
}

// Quantized-code dot: 4-way unrolled like DotPortable so the compiler
// can vectorize; int32 accumulators are safe under the [0,2047] caller
// contract documented in vec_math.h.
int32_t DotQ16Portable(const int16_t* a, const int16_t* b, size_t n) {
  int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<int32_t>(a[i]) * b[i];
    acc1 += static_cast<int32_t>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<int32_t>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<int32_t>(a[i + 3]) * b[i + 3];
  }
  int32_t acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) acc += static_cast<int32_t>(a[i]) * b[i];
  return acc;
}

void DotQ16RowsPortable(const int16_t* query, const int16_t* rows,
                        size_t num_rows, size_t k, int32_t* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = DotQ16Portable(query, rows + r * k, k);
  }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (runtime-gated; unaligned loads so callers may
// pass arbitrary spans, e.g. query.data() + k in TA search).

#ifdef GEMREC_X86

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b,
                                                  size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                           _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                           _mm256_loadu_ps(b + i), acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  float acc = _mm_cvtss_f32(lo);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(float alpha,
                                                  const float* x, float* y,
                                                  size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                      _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void ReluAvx2(float* x, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) x[i] = x[i] < 0.0f ? 0.0f : x[i];
}

// 16 codes per iteration via madd_epi16 (pair sums <= 2*2047^2 < 2^31
// under the 11-bit contract); i32 lanes accumulate, each growing by
// <= 2*2047^2 per iteration, so the n <= 512 caller contract keeps the
// lanes far from overflow.
__attribute__((target("avx2"))) int32_t DotQ16Avx2(const int16_t* a,
                                                   const int16_t* b,
                                                   size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_hadd_epi32(lo, lo);
  lo = _mm_hadd_epi32(lo, lo);
  int32_t sum = _mm_cvtsi128_si32(lo);
  for (; i < n; ++i) sum += static_cast<int32_t>(a[i]) * b[i];
  return sum;
}

// One 16-code block of an i16 x i16 dot as eight int32 partial sums.
__attribute__((target("avx2"))) inline __m256i DotQ16Block(
    __m256i query, const int16_t* row) {
  return _mm256_madd_epi16(
      query, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)));
}

// Sums of four int32 accumulators, one per row: two hadd levels fold
// each register's lanes pairwise within 128-bit halves, leaving
// [s0 s1 s2 s3] partial sums in each half, which one add combines.
__attribute__((target("avx2"))) inline __m128i SumRows4(
    __m256i acc0, __m256i acc1, __m256i acc2, __m256i acc3) {
  const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(acc0, acc1),
                                      _mm256_hadd_epi32(acc2, acc3));
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

// Four rows per step against one query load, the same per-row
// arithmetic as DotQ16Avx2, then one SumRows4; codes past the last full
// 16-wide block are added in scalar, and the last num_rows % 4 rows
// take the one-row kernel. Integer sums are order-free, so every out[r]
// equals the scalar reference exactly.
__attribute__((target("avx2"))) void DotQ16RowsAvx2(const int16_t* query,
                                                    const int16_t* rows,
                                                    size_t num_rows,
                                                    size_t k, int32_t* out) {
  const size_t k_vec = k - k % 16;
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const int16_t* b0 = rows + r * k;
    const int16_t* b1 = b0 + k;
    const int16_t* b2 = b1 + k;
    const int16_t* b3 = b2 + k;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (size_t i = 0; i < k_vec; i += 16) {
      const __m256i va = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(query + i));
      acc0 = _mm256_add_epi32(acc0, DotQ16Block(va, b0 + i));
      acc1 = _mm256_add_epi32(acc1, DotQ16Block(va, b1 + i));
      acc2 = _mm256_add_epi32(acc2, DotQ16Block(va, b2 + i));
      acc3 = _mm256_add_epi32(acc3, DotQ16Block(va, b3 + i));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r),
                     SumRows4(acc0, acc1, acc2, acc3));
    for (size_t i = k_vec; i < k; ++i) {
      const int32_t a = query[i];
      out[r] += a * b0[i];
      out[r + 1] += a * b1[i];
      out[r + 2] += a * b2[i];
      out[r + 3] += a * b3[i];
    }
  }
  for (; r < num_rows; ++r) out[r] = DotQ16Avx2(query, rows + r * k, k);
}

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // GEMREC_X86

// ---------------------------------------------------------------------------
// Resolvers.

using DotFn = float (*)(const float*, const float*, size_t);
using AxpyFn = void (*)(float, const float*, float*, size_t);
using ReluFn = void (*)(float*, size_t);
using DotQ16RowsFn = void (*)(const int16_t*, const int16_t*, size_t,
                              size_t, int32_t*);

float DotResolve(const float* a, const float* b, size_t n);
void AxpyResolve(float alpha, const float* x, float* y, size_t n);
void ReluResolve(float* x, size_t n);
void DotQ16RowsResolve(const int16_t* query, const int16_t* rows,
                       size_t num_rows, size_t k, int32_t* out);

std::atomic<DotFn> g_dot{&DotResolve};
std::atomic<AxpyFn> g_axpy{&AxpyResolve};
std::atomic<ReluFn> g_relu{&ReluResolve};
std::atomic<DotQ16RowsFn> g_dot_q16_rows{&DotQ16RowsResolve};

bool UseAvx2() {
#ifdef GEMREC_X86
  return CpuHasAvx2Fma();
#else
  return false;
#endif
}

float DotResolve(const float* a, const float* b, size_t n) {
#ifdef GEMREC_X86
  const DotFn fn = UseAvx2() ? &DotAvx2 : &DotPortable;
#else
  const DotFn fn = &DotPortable;
#endif
  g_dot.store(fn, std::memory_order_relaxed);
  return fn(a, b, n);
}

void AxpyResolve(float alpha, const float* x, float* y, size_t n) {
#ifdef GEMREC_X86
  const AxpyFn fn = UseAvx2() ? &AxpyAvx2 : &AxpyPortable;
#else
  const AxpyFn fn = &AxpyPortable;
#endif
  g_axpy.store(fn, std::memory_order_relaxed);
  fn(alpha, x, y, n);
}

void ReluResolve(float* x, size_t n) {
#ifdef GEMREC_X86
  const ReluFn fn = UseAvx2() ? &ReluAvx2 : &ReluPortable;
#else
  const ReluFn fn = &ReluPortable;
#endif
  g_relu.store(fn, std::memory_order_relaxed);
  fn(x, n);
}

void DotQ16RowsResolve(const int16_t* query, const int16_t* rows,
                       size_t num_rows, size_t k, int32_t* out) {
#ifdef GEMREC_X86
  const DotQ16RowsFn fn = UseAvx2() ? &DotQ16RowsAvx2 : &DotQ16RowsPortable;
#else
  const DotQ16RowsFn fn = &DotQ16RowsPortable;
#endif
  g_dot_q16_rows.store(fn, std::memory_order_relaxed);
  fn(query, rows, num_rows, k, out);
}

}  // namespace

float DotDispatch(const float* a, const float* b, size_t n) {
  return g_dot.load(std::memory_order_relaxed)(a, b, n);
}

void AxpyDispatch(float alpha, const float* x, float* y, size_t n) {
  g_axpy.load(std::memory_order_relaxed)(alpha, x, y, n);
}

void ReluDispatch(float* x, size_t n) {
  g_relu.load(std::memory_order_relaxed)(x, n);
}

void DotQ16RowsDispatch(const int16_t* query, const int16_t* rows,
                        size_t num_rows, size_t k, int32_t* out) {
  g_dot_q16_rows.load(std::memory_order_relaxed)(query, rows, num_rows, k,
                                                 out);
}

const char* KernelVariant() { return UseAvx2() ? "avx2" : "scalar"; }

const float* SigmoidTable() {
  static const float* table = [] {
    static float storage[kSigmoidEntries + 1];
    for (int i = 0; i <= kSigmoidEntries; ++i) {
      const double x = -kSigmoidRange +
                       2.0 * kSigmoidRange * i / kSigmoidEntries;
      storage[i] = static_cast<float>(1.0 / (1.0 + std::exp(-x)));
    }
    return storage;
  }();
  return table;
}

}  // namespace gemrec::vec_detail
