// Portable float SIMD kernels for the MLP heads and training (sgemm /
// sgemv), plus the runtime-dispatched kernel table (common/simd_dispatch.h:
// the float front-end's fused dot products and every integer kernel).
//
// These kernels are chosen at compile time: SSE2 on x86 (every 64-bit x86
// has it, and MLQR_NATIVE builds take the same path), NEON on ARM, scalar
// elsewhere. They add each rounded product at 128 bits in a fixed order
// (the library builds with -ffp-contract=off), so an x86 build returns the
// same floats whatever its -march. tier() reports the runtime-picked tier
// of the dispatched table.
//
// Every kernel also has an always-compiled *_scalar twin. The scalar
// versions are the semantic reference: tests pin the vector paths against
// them (bounded relative error for the reductions, bit for bit for the
// element-wise epilogues), and they are reachable on every platform
// regardless of tier.
//
// Integer contract — the part the fixed-point requantization relies on:
// the int16 kernels accumulate exact int64 sums of int16 x int16
// products. Integer addition is associative, so any vector reassociation
// is bit-identical to the scalar loop — PROVIDED no intermediate
// overflows. The madd-based paths sum adjacent product pairs in int32
// first; a pair can only exceed int32 range when both products are
// exactly +2^30, i.e. both operands of both products are -32768. The `a`
// operand (kernels / weights) therefore must not contain -32768. Codes
// produced by fit_format over a symmetric range satisfy this by
// construction (|code| <= 2^(W-1)-1); QuantizedFrontend::build and
// QuantizedMlp::quantize additionally assert it. The `b` operand (trace /
// activation codes) may use the full int16 range including -32768.
//
// fused_dot_i16_strip additionally lets the caller certify that `strip`
// consecutive madd blocks can accumulate in an int32 lane before the
// int64 flush: strip * 2 * max|a| * 2^15 <= 2^31 - 1, with max|a| the
// largest kernel-code magnitude. Narrow kernel grids (the common case)
// thus amortize the widening over many blocks; strip <= 1 widens every
// block. Every sum is exact, so all variants and tiers are bit-identical.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/fixed_point.h"
#include "common/simd_dispatch.h"

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MLQR_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define MLQR_SIMD_NEON 1
#include <arm_neon.h>
#else
#define MLQR_SIMD_SCALAR 1
#endif

namespace mlqr::simd {

// ------------------------------------------------------------------ scalar --

inline float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// y += a * x.
inline void axpy_f32_scalar(std::size_t n, float a, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// y += a0*x0 + a1*x1 + a2*x2 + a3*x3 (4-way register-blocked update).
inline void axpy4_f32_scalar(std::size_t n, const float* a, const float* x0,
                             const float* x1, const float* x2, const float* x3,
                             float* y) {
  for (std::size_t i = 0; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

/// out[r] = dot(shared, b_r) for four rows sharing one operand.
inline void dot4_f32_scalar(const float* shared, const float* b0,
                            const float* b1, const float* b2, const float* b3,
                            std::size_t n, float* out) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float s = shared[i];
    s0 += s * b0[i];
    s1 += s * b1[i];
    s2 += s * b2[i];
    s3 += s * b3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

/// z[i] += b[i] — the bias half of the batched-MLP epilogue.
inline void add_bias_f32_scalar(float* z, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] += b[i];
}

/// z[i] = max(z[i] + b[i], 0) — the fused bias+ReLU epilogue of the
/// batched MLP paths. Per-lane add then max, no reassociation, so the
/// vector tiers match this twin bit for bit on every input except the sign
/// of a zero result (vector max(+-0, +0) may return the other zero than
/// std::max) — which no consumer can observe through argmax.
inline void add_bias_relu_f32_scalar(float* z, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

// -------------------------------------------------------------------- SSE2 --

#if defined(MLQR_SIMD_SSE2)

namespace detail {

inline float hsum_f32(__m128 v) {
  __m128 sh = _mm_movehl_ps(v, v);
  v = _mm_add_ps(v, sh);
  sh = _mm_shuffle_ps(v, v, 0x55);
  v = _mm_add_ss(v, sh);
  return _mm_cvtss_f32(v);
}

}  // namespace detail

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  __m128 acc = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
  float sum = detail::hsum_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  const __m128 va = _mm_set1_ps(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(va, _mm_loadu_ps(x + i))));
  for (; i < n; ++i) y[i] += a * x[i];
}

inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  const __m128 a0 = _mm_set1_ps(a[0]);
  const __m128 a1 = _mm_set1_ps(a[1]);
  const __m128 a2 = _mm_set1_ps(a[2]);
  const __m128 a3 = _mm_set1_ps(a[3]);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128 acc = _mm_loadu_ps(y + i);
    acc = _mm_add_ps(acc, _mm_mul_ps(a0, _mm_loadu_ps(x0 + i)));
    acc = _mm_add_ps(acc, _mm_mul_ps(a1, _mm_loadu_ps(x1 + i)));
    acc = _mm_add_ps(acc, _mm_mul_ps(a2, _mm_loadu_ps(x2 + i)));
    acc = _mm_add_ps(acc, _mm_mul_ps(a3, _mm_loadu_ps(x3 + i)));
    _mm_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  __m128 s0 = _mm_setzero_ps(), s1 = _mm_setzero_ps();
  __m128 s2 = _mm_setzero_ps(), s3 = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 s = _mm_loadu_ps(shared + i);
    s0 = _mm_add_ps(s0, _mm_mul_ps(s, _mm_loadu_ps(b0 + i)));
    s1 = _mm_add_ps(s1, _mm_mul_ps(s, _mm_loadu_ps(b1 + i)));
    s2 = _mm_add_ps(s2, _mm_mul_ps(s, _mm_loadu_ps(b2 + i)));
    s3 = _mm_add_ps(s3, _mm_mul_ps(s, _mm_loadu_ps(b3 + i)));
  }
  out[0] = detail::hsum_f32(s0);
  out[1] = detail::hsum_f32(s1);
  out[2] = detail::hsum_f32(s2);
  out[3] = detail::hsum_f32(s3);
  for (; i < n; ++i) {
    const float s = shared[i];
    out[0] += s * b0[i];
    out[1] += s * b1[i];
    out[2] += s * b2[i];
    out[3] += s * b3[i];
  }
}

inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(z + i, _mm_add_ps(_mm_loadu_ps(z + i), _mm_loadu_ps(b + i)));
  for (; i < n; ++i) z[i] += b[i];
}

inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  const __m128 zero = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(
        z + i,
        _mm_max_ps(_mm_add_ps(_mm_loadu_ps(z + i), _mm_loadu_ps(b + i)),
                   zero));
  for (; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

#elif defined(MLQR_SIMD_NEON)

namespace detail {

inline float hsum_f32(float32x4_t v) {
#if defined(__aarch64__)
  return vaddvq_f32(v);
#else
  float32x2_t lo = vadd_f32(vget_low_f32(v), vget_high_f32(v));
  lo = vpadd_f32(lo, lo);
  return vget_lane_f32(lo, 0);
#endif
}

}  // namespace detail

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = vmlaq_f32(acc, vld1q_f32(a + i), vld1q_f32(b + i));
  float sum = detail::hsum_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(y + i, vmlaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  for (; i < n; ++i) y[i] += a * x[i];
}

inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t acc = vld1q_f32(y + i);
    acc = vmlaq_n_f32(acc, vld1q_f32(x0 + i), a[0]);
    acc = vmlaq_n_f32(acc, vld1q_f32(x1 + i), a[1]);
    acc = vmlaq_n_f32(acc, vld1q_f32(x2 + i), a[2]);
    acc = vmlaq_n_f32(acc, vld1q_f32(x3 + i), a[3]);
    vst1q_f32(y + i, acc);
  }
  for (; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  float32x4_t s0 = vdupq_n_f32(0.0f), s1 = vdupq_n_f32(0.0f);
  float32x4_t s2 = vdupq_n_f32(0.0f), s3 = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t s = vld1q_f32(shared + i);
    s0 = vmlaq_f32(s0, s, vld1q_f32(b0 + i));
    s1 = vmlaq_f32(s1, s, vld1q_f32(b1 + i));
    s2 = vmlaq_f32(s2, s, vld1q_f32(b2 + i));
    s3 = vmlaq_f32(s3, s, vld1q_f32(b3 + i));
  }
  out[0] = detail::hsum_f32(s0);
  out[1] = detail::hsum_f32(s1);
  out[2] = detail::hsum_f32(s2);
  out[3] = detail::hsum_f32(s3);
  for (; i < n; ++i) {
    const float s = shared[i];
    out[0] += s * b0[i];
    out[1] += s * b1[i];
    out[2] += s * b2[i];
    out[3] += s * b3[i];
  }
}

inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(z + i, vaddq_f32(vld1q_f32(z + i), vld1q_f32(b + i)));
  for (; i < n; ++i) z[i] += b[i];
}

inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    vst1q_f32(z + i,
              vmaxq_f32(vaddq_f32(vld1q_f32(z + i), vld1q_f32(b + i)), zero));
  for (; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

#else  // scalar tier

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  return dot_f32_scalar(a, b, n);
}
inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  axpy_f32_scalar(n, a, x, y);
}
inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  axpy4_f32_scalar(n, a, x0, x1, x2, x3, y);
}
inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  dot4_f32_scalar(shared, b0, b1, b2, b3, n, out);
}
inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  add_bias_f32_scalar(z, b, n);
}
inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  add_bias_relu_f32_scalar(z, b, n);
}

#endif

}  // namespace mlqr::simd
