// Portable SIMD kernels for the inference hot paths.
//
// One header, compile-time dispatch: AVX2 -> SSE2 -> NEON -> scalar,
// selected by the predefined ISA macros of the active -march flags (the
// MLQR_NATIVE CMake option turns them on; the default x86-64 build gets
// SSE2, which every 64-bit x86 guarantees). On AVX2 hosts with VNNI the
// int8 kernel (dot_u8i8) additionally compiles to vpdpbusd and the tier
// name becomes "avx512-vnni" / "avx-vnni". simd_tier() reports the
// compiled tier so bench records say what they measured.
//
// Every kernel also has an always-compiled *_scalar twin. The scalar
// versions are the semantic reference: tests pin the vector paths against
// them (bit-exact for the integer kernels, bounded relative error for
// float), and they are reachable on every platform regardless of tier.
//
// Integer contract — the part the fixed-point requantization relies on:
// dot_i16 / fused_dot_i16 accumulate exact int64 sums of int16 x int16
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
// thus amortize the widening over many blocks; strip <= 1 degrades to
// fused_dot_i16. Every sum is exact, so all variants are bit-identical.
//
// Float contract: vector kernels reassociate the sum (lane-striped
// partial accumulators), so results differ from the scalar loop by
// O(n * eps) — callers that need reproducibility across *tiers* must use
// the scalar variants; within one build the kernels are deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/fixed_point.h"

#if defined(__AVX2__)
#define MLQR_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MLQR_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define MLQR_SIMD_NEON 1
#include <arm_neon.h>
#else
#define MLQR_SIMD_SCALAR 1
#endif

// VNNI sub-tiers for the int8 datapath (dot_u8i8). Additive on top of
// MLQR_SIMD_AVX2: only the u8xs8 kernel and tier() consult them, every
// other kernel keeps its AVX2 form. vpdpbusd needs either the AVX-512
// flavour (AVX512VNNI, 512-bit operands; VL for the 256-bit form) or the
// VEX-encoded AVX-VNNI extension found on newer client cores.
#if defined(MLQR_SIMD_AVX2) && defined(__AVX512VNNI__) && \
    defined(__AVX512F__) && defined(__AVX512BW__)
#define MLQR_SIMD_VNNI512 1
#elif defined(MLQR_SIMD_AVX2) && \
    (defined(__AVXVNNI__) ||     \
     (defined(__AVX512VNNI__) && defined(__AVX512VL__)))
#define MLQR_SIMD_VNNI256 1
#endif

namespace mlqr::simd {

/// Compiled SIMD tier: "avx512-vnni", "avx-vnni", "avx2", "sse2", "neon"
/// or "scalar". The VNNI names imply the full AVX2 kernel set plus native
/// vpdpbusd in dot_u8i8.
inline const char* tier() {
#if defined(MLQR_SIMD_VNNI512)
  return "avx512-vnni";
#elif defined(MLQR_SIMD_VNNI256)
  return "avx-vnni";
#elif defined(MLQR_SIMD_AVX2)
  return "avx2";
#elif defined(MLQR_SIMD_SSE2)
  return "sse2";
#elif defined(MLQR_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

// ------------------------------------------------------------------ scalar --

inline float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// sum_t kr[t]*xi[t] - ki[t]*xq[t] — one fused front-end filter.
inline float fused_dot_f32_scalar(const float* kr, const float* ki,
                                  const float* xi, const float* xq,
                                  std::size_t n) {
  float acc = 0.0f;
  for (std::size_t t = 0; t < n; ++t) acc += kr[t] * xi[t] - ki[t] * xq[t];
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

inline std::int64_t dot_i16_scalar(const std::int16_t* a, const std::int16_t* b,
                                   std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return acc;
}

/// sum_t kr[t]*xi[t] - ki[t]*xq[t] with an exact int64 accumulator.
inline std::int64_t fused_dot_i16_scalar(const std::int16_t* kr,
                                         const std::int16_t* ki,
                                         const std::int16_t* xi,
                                         const std::int16_t* xq,
                                         std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t t = 0; t < n; ++t)
    acc += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return acc;
}

/// sum_i u[i]*w[i] with u unsigned 8-bit and w signed 8-bit — the vpdpbusd
/// operand convention of the int8 MLP (activations carry a +128 bias that
/// the caller corrects with a per-row constant). The int32 accumulator is
/// exact for n <= 65807 (n * 255 * 128 < 2^31); the int8 MLP heads bound
/// layer widths below that (QuantizedCodeTraits<std::int8_t>).
inline std::int32_t dot_u8i8_scalar(const std::uint8_t* u, const std::int8_t* w,
                                    std::size_t n) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return acc;
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

// --------------------------------------------------------------- x86 tiers --

#if defined(MLQR_SIMD_AVX2)

namespace detail {

inline float hsum_f32(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  __m128 sh = _mm_movehl_ps(lo, lo);
  lo = _mm_add_ps(lo, sh);
  sh = _mm_shuffle_ps(lo, lo, 0x55);
  lo = _mm_add_ss(lo, sh);
  return _mm_cvtss_f32(lo);
}

inline std::int64_t hsum_i64(__m256i v) {
  // Lane extraction via store: _mm_cvtsi128_si64 does not exist on 32-bit
  // x86 targets, which can still reach this tier (MSVC /arch:AVX2).
  const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(v),
                                     _mm256_extracti128_si256(v, 1));
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), pair);
  return lanes[0] + lanes[1];
}

inline std::int32_t hsum_i32(__m256i v) {
  __m128i lo = _mm_add_epi32(_mm256_castsi256_si128(v),
                             _mm256_extracti128_si256(v, 1));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0x4e));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, 0xb1));
  return _mm_cvtsi128_si32(lo);
}

inline __m256 fmadd(__m256 a, __m256 b, __m256 c) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

/// acc (4 x int64) += sign-extended lanes of p (8 x int32).
inline __m256i add_madd_i64(__m256i acc, __m256i p) {
  acc = _mm256_add_epi64(acc,
                         _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p)));
  return _mm256_add_epi64(acc,
                          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p, 1)));
}

}  // namespace detail

inline float dot_f32(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = detail::fmadd(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  float sum = detail::hsum_f32(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  // Four accumulator chains per stream: one fmadd chain is bound by the
  // 4-cycle fmadd latency, leaving the FMA ports ~75% idle on the long
  // front-end rows this kernel exists for; four independent chains keep
  // them fed. The deeper reassociation changes nothing contractual (the
  // float kernels already reassociate, see the header comment).
  __m256 r0 = _mm256_setzero_ps(), r1 = _mm256_setzero_ps();
  __m256 r2 = _mm256_setzero_ps(), r3 = _mm256_setzero_ps();
  __m256 i0 = _mm256_setzero_ps(), i1 = _mm256_setzero_ps();
  __m256 i2 = _mm256_setzero_ps(), i3 = _mm256_setzero_ps();
  std::size_t t = 0;
  for (; t + 32 <= n; t += 32) {
    r0 = detail::fmadd(_mm256_loadu_ps(kr + t), _mm256_loadu_ps(xi + t), r0);
    i0 = detail::fmadd(_mm256_loadu_ps(ki + t), _mm256_loadu_ps(xq + t), i0);
    r1 = detail::fmadd(_mm256_loadu_ps(kr + t + 8), _mm256_loadu_ps(xi + t + 8),
                       r1);
    i1 = detail::fmadd(_mm256_loadu_ps(ki + t + 8), _mm256_loadu_ps(xq + t + 8),
                       i1);
    r2 = detail::fmadd(_mm256_loadu_ps(kr + t + 16),
                       _mm256_loadu_ps(xi + t + 16), r2);
    i2 = detail::fmadd(_mm256_loadu_ps(ki + t + 16),
                       _mm256_loadu_ps(xq + t + 16), i2);
    r3 = detail::fmadd(_mm256_loadu_ps(kr + t + 24),
                       _mm256_loadu_ps(xi + t + 24), r3);
    i3 = detail::fmadd(_mm256_loadu_ps(ki + t + 24),
                       _mm256_loadu_ps(xq + t + 24), i3);
  }
  __m256 accr = _mm256_add_ps(_mm256_add_ps(r0, r1), _mm256_add_ps(r2, r3));
  __m256 acci = _mm256_add_ps(_mm256_add_ps(i0, i1), _mm256_add_ps(i2, i3));
  for (; t + 8 <= n; t += 8) {
    accr =
        detail::fmadd(_mm256_loadu_ps(kr + t), _mm256_loadu_ps(xi + t), accr);
    acci =
        detail::fmadd(_mm256_loadu_ps(ki + t), _mm256_loadu_ps(xq + t), acci);
  }
  float sum = detail::hsum_f32(_mm256_sub_ps(accr, acci));
  for (; t < n; ++t) sum += kr[t] * xi[t] - ki[t] * xq[t];
  return sum;
}

inline void axpy_f32(std::size_t n, float a, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        y + i, detail::fmadd(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  for (; i < n; ++i) y[i] += a * x[i];
}

inline void axpy4_f32(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  const __m256 a0 = _mm256_set1_ps(a[0]);
  const __m256 a1 = _mm256_set1_ps(a[1]);
  const __m256 a2 = _mm256_set1_ps(a[2]);
  const __m256 a3 = _mm256_set1_ps(a[3]);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 acc = _mm256_loadu_ps(y + i);
    acc = detail::fmadd(a0, _mm256_loadu_ps(x0 + i), acc);
    acc = detail::fmadd(a1, _mm256_loadu_ps(x1 + i), acc);
    acc = detail::fmadd(a2, _mm256_loadu_ps(x2 + i), acc);
    acc = detail::fmadd(a3, _mm256_loadu_ps(x3 + i), acc);
    _mm256_storeu_ps(y + i, acc);
  }
  for (; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

inline void dot4_f32(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
  __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s = _mm256_loadu_ps(shared + i);
    s0 = detail::fmadd(s, _mm256_loadu_ps(b0 + i), s0);
    s1 = detail::fmadd(s, _mm256_loadu_ps(b1 + i), s1);
    s2 = detail::fmadd(s, _mm256_loadu_ps(b2 + i), s2);
    s3 = detail::fmadd(s, _mm256_loadu_ps(b3 + i), s3);
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

inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i p = _mm256_madd_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = detail::add_madd_i64(acc, p);
  }
  std::int64_t sum = detail::hsum_i64(acc);
  for (; i < n; ++i)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return sum;
}

inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  __m256i accr = _mm256_setzero_si256();
  __m256i acci = _mm256_setzero_si256();
  std::size_t t = 0;
  for (; t + 16 <= n; t += 16) {
    const __m256i pr = _mm256_madd_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kr + t)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xi + t)));
    const __m256i pi = _mm256_madd_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ki + t)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xq + t)));
    accr = detail::add_madd_i64(accr, pr);
    acci = detail::add_madd_i64(acci, pi);
  }
  std::int64_t sum = detail::hsum_i64(accr) - detail::hsum_i64(acci);
  for (; t < n; ++t)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return sum;
}

inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t strip) {
  // Strip-mined widening: `strip` madd blocks (16 samples each) accumulate
  // in int32 lanes before one int64 flush, amortizing the 5-op widening
  // that fused_dot_i16 pays per madd. The caller certifies the strip bound
  // (see the declaration comment); every sum is exact, so the result is
  // bit-identical to fused_dot_i16_scalar.
  if (strip < 2) return fused_dot_i16(kr, ki, xi, xq, n);
  __m256i acc64r = _mm256_setzero_si256();
  __m256i acc64i = _mm256_setzero_si256();
  const std::size_t blocks = n / 16;
  std::size_t t = 0;
  for (std::size_t b = 0; b < blocks;) {
    const std::size_t run = std::min(strip, blocks - b);
    __m256i a32r = _mm256_setzero_si256();
    __m256i a32i = _mm256_setzero_si256();
    for (std::size_t k = 0; k < run; ++k, ++b, t += 16) {
      a32r = _mm256_add_epi32(
          a32r, _mm256_madd_epi16(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kr + t)),
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(xi + t))));
      a32i = _mm256_add_epi32(
          a32i, _mm256_madd_epi16(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ki + t)),
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(xq + t))));
    }
    acc64r = detail::add_madd_i64(acc64r, a32r);
    acc64i = detail::add_madd_i64(acc64i, a32i);
  }
  std::int64_t sum = detail::hsum_i64(acc64r) - detail::hsum_i64(acc64i);
  for (; t < n; ++t)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return sum;
}

inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t strip,
                                   std::int64_t* out) {
  // Four shots per kernel-row pass: each 16-sample block loads kr/ki once
  // and madds them against all four trace streams, cutting the load
  // traffic per madd ~40% and streaming the kernel table once per four
  // shots. Each lane accumulates pr - pi, so one block consumes TWO strip
  // units — the caller's strip certifies `strip` single-madd additions,
  // hence run <= strip / 2 blocks per int32 flush. Exact int64 sums
  // throughout: bit-identical to four fused_dot_i16_scalar calls.
  if (strip < 4) {
    for (int s = 0; s < 4; ++s)
      out[s] = fused_dot_i16_strip(kr, ki, xi[s], xq[s], n, strip);
    return;
  }
  const std::size_t pair_strip = strip / 2;
  __m256i acc64[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
  const std::size_t blocks = n / 16;
  std::size_t t = 0;
  for (std::size_t b = 0; b < blocks;) {
    const std::size_t run = std::min(pair_strip, blocks - b);
    __m256i a32[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                      _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (std::size_t k = 0; k < run; ++k, ++b, t += 16) {
      const __m256i vkr =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kr + t));
      const __m256i vki =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ki + t));
      for (int s = 0; s < 4; ++s) {
        const __m256i pr = _mm256_madd_epi16(
            vkr,
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xi[s] + t)));
        const __m256i pi = _mm256_madd_epi16(
            vki,
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xq[s] + t)));
        a32[s] = _mm256_add_epi32(a32[s], _mm256_sub_epi32(pr, pi));
      }
    }
    for (int s = 0; s < 4; ++s)
      acc64[s] = detail::add_madd_i64(acc64[s], a32[s]);
  }
  for (int s = 0; s < 4; ++s) {
    std::int64_t sum = detail::hsum_i64(acc64[s]);
    for (std::size_t u = t; u < n; ++u)
      sum += static_cast<std::int64_t>(
          static_cast<std::int32_t>(kr[u]) * xi[s][u] -
          static_cast<std::int32_t>(ki[u]) * xq[s][u]);
    out[s] = sum;
  }
}

inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  std::size_t i = 0;
#if defined(MLQR_SIMD_VNNI512)
  __m512i acc512 = _mm512_setzero_si512();
  for (; i + 64 <= n; i += 64)
    acc512 = _mm512_dpbusd_epi32(
        acc512, _mm512_loadu_si512(u + i),
        _mm512_loadu_si512(reinterpret_cast<const void*>(w + i)));
  std::int32_t sum = _mm512_reduce_add_epi32(acc512);
#elif defined(MLQR_SIMD_VNNI256)
  __m256i acc = _mm256_setzero_si256();
  for (; i + 32 <= n; i += 32) {
    const __m256i vu =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(u + i));
    const __m256i vw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
#if defined(__AVXVNNI__) && !defined(__AVX512VNNI__)
    acc = _mm256_dpbusd_avx_epi32(acc, vu, vw);
#else
    acc = _mm256_dpbusd_epi32(acc, vu, vw);
#endif
  }
  std::int32_t sum = detail::hsum_i32(acc);
#else
  // Plain AVX2: widen both operands to int16 and madd. maddubs is NOT
  // usable here — its pairwise int16 sum saturates (255*127*2 > 32767),
  // which would break the exact-sum contract.
  __m256i acc = _mm256_setzero_si256();
  for (; i + 16 <= n; i += 16) {
    const __m256i vu = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(u + i)));
    const __m256i vw = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(vu, vw));
  }
  std::int32_t sum = detail::hsum_i32(acc);
#endif
  for (; i < n; ++i)
    sum += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return sum;
}

inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        z + i, _mm256_add_ps(_mm256_loadu_ps(z + i), _mm256_loadu_ps(b + i)));
  for (; i < n; ++i) z[i] += b[i];
}

inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(
        z + i,
        _mm256_max_ps(
            _mm256_add_ps(_mm256_loadu_ps(z + i), _mm256_loadu_ps(b + i)),
            zero));
  for (; i < n; ++i) z[i] = std::max(z[i] + b[i], 0.0f);
}

#elif defined(MLQR_SIMD_SSE2)

namespace detail {

inline float hsum_f32(__m128 v) {
  __m128 sh = _mm_movehl_ps(v, v);
  v = _mm_add_ps(v, sh);
  sh = _mm_shuffle_ps(v, v, 0x55);
  v = _mm_add_ss(v, sh);
  return _mm_cvtss_f32(v);
}

inline std::int64_t hsum_i64(__m128i v) {
  // Lane extraction via store: _mm_cvtsi128_si64 does not exist on 32-bit
  // x86, and this tier admits 32-bit SSE2 builds (-m32 -msse2, _M_IX86_FP).
  alignas(16) std::int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), v);
  return lanes[0] + lanes[1];
}

inline std::int32_t hsum_i32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0x4e));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0xb1));
  return _mm_cvtsi128_si32(v);
}

/// acc (2 x int64) += sign-extended lanes of p (4 x int32), SSE2-only
/// (no cvtepi32_epi64 before SSE4.1: unpack against the sign mask).
inline __m128i add_madd_i64(__m128i acc, __m128i p) {
  const __m128i sign = _mm_srai_epi32(p, 31);
  acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(p, sign));
  return _mm_add_epi64(acc, _mm_unpackhi_epi32(p, sign));
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

inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  // Four accumulator chains per stream, mirroring the AVX2 kernel: a
  // single addps chain is latency-bound (3-4 cycles) on the long
  // front-end rows; independent chains keep the multiply port busy.
  __m128 r0 = _mm_setzero_ps(), r1 = _mm_setzero_ps();
  __m128 r2 = _mm_setzero_ps(), r3 = _mm_setzero_ps();
  __m128 i0 = _mm_setzero_ps(), i1 = _mm_setzero_ps();
  __m128 i2 = _mm_setzero_ps(), i3 = _mm_setzero_ps();
  std::size_t t = 0;
  for (; t + 16 <= n; t += 16) {
    r0 = _mm_add_ps(r0, _mm_mul_ps(_mm_loadu_ps(kr + t), _mm_loadu_ps(xi + t)));
    i0 = _mm_add_ps(i0, _mm_mul_ps(_mm_loadu_ps(ki + t), _mm_loadu_ps(xq + t)));
    r1 = _mm_add_ps(
        r1, _mm_mul_ps(_mm_loadu_ps(kr + t + 4), _mm_loadu_ps(xi + t + 4)));
    i1 = _mm_add_ps(
        i1, _mm_mul_ps(_mm_loadu_ps(ki + t + 4), _mm_loadu_ps(xq + t + 4)));
    r2 = _mm_add_ps(
        r2, _mm_mul_ps(_mm_loadu_ps(kr + t + 8), _mm_loadu_ps(xi + t + 8)));
    i2 = _mm_add_ps(
        i2, _mm_mul_ps(_mm_loadu_ps(ki + t + 8), _mm_loadu_ps(xq + t + 8)));
    r3 = _mm_add_ps(
        r3, _mm_mul_ps(_mm_loadu_ps(kr + t + 12), _mm_loadu_ps(xi + t + 12)));
    i3 = _mm_add_ps(
        i3, _mm_mul_ps(_mm_loadu_ps(ki + t + 12), _mm_loadu_ps(xq + t + 12)));
  }
  __m128 accr = _mm_add_ps(_mm_add_ps(r0, r1), _mm_add_ps(r2, r3));
  __m128 acci = _mm_add_ps(_mm_add_ps(i0, i1), _mm_add_ps(i2, i3));
  for (; t + 4 <= n; t += 4) {
    accr = _mm_add_ps(accr,
                      _mm_mul_ps(_mm_loadu_ps(kr + t), _mm_loadu_ps(xi + t)));
    acci = _mm_add_ps(acci,
                      _mm_mul_ps(_mm_loadu_ps(ki + t), _mm_loadu_ps(xq + t)));
  }
  float sum = detail::hsum_f32(_mm_sub_ps(accr, acci));
  for (; t < n; ++t) sum += kr[t] * xi[t] - ki[t] * xq[t];
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

inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i p = _mm_madd_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = detail::add_madd_i64(acc, p);
  }
  std::int64_t sum = detail::hsum_i64(acc);
  for (; i < n; ++i)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return sum;
}

inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  __m128i accr = _mm_setzero_si128();
  __m128i acci = _mm_setzero_si128();
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    const __m128i pr = _mm_madd_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kr + t)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(xi + t)));
    const __m128i pi = _mm_madd_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ki + t)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(xq + t)));
    accr = detail::add_madd_i64(accr, pr);
    acci = detail::add_madd_i64(acci, pi);
  }
  std::int64_t sum = detail::hsum_i64(accr) - detail::hsum_i64(acci);
  for (; t < n; ++t)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return sum;
}

inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t strip) {
  // Strip-mined widening (8-sample madd blocks here); see the AVX2 twin.
  if (strip < 2) return fused_dot_i16(kr, ki, xi, xq, n);
  __m128i acc64r = _mm_setzero_si128();
  __m128i acc64i = _mm_setzero_si128();
  const std::size_t blocks = n / 8;
  std::size_t t = 0;
  for (std::size_t b = 0; b < blocks;) {
    const std::size_t run = std::min(strip, blocks - b);
    __m128i a32r = _mm_setzero_si128();
    __m128i a32i = _mm_setzero_si128();
    for (std::size_t k = 0; k < run; ++k, ++b, t += 8) {
      a32r = _mm_add_epi32(
          a32r,
          _mm_madd_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(kr + t)),
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(xi + t))));
      a32i = _mm_add_epi32(
          a32i,
          _mm_madd_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(ki + t)),
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(xq + t))));
    }
    acc64r = detail::add_madd_i64(acc64r, a32r);
    acc64i = detail::add_madd_i64(acc64i, a32i);
  }
  std::int64_t sum = detail::hsum_i64(acc64r) - detail::hsum_i64(acc64i);
  for (; t < n; ++t)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return sum;
}

inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t strip,
                                   std::int64_t* out) {
  // Four trace streams per kernel pass (8-sample blocks); see the AVX2
  // twin for the rationale and the strip/2 accounting.
  if (strip < 4) {
    for (int s = 0; s < 4; ++s)
      out[s] = fused_dot_i16_strip(kr, ki, xi[s], xq[s], n, strip);
    return;
  }
  const std::size_t pair_strip = strip / 2;
  __m128i acc64[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                      _mm_setzero_si128(), _mm_setzero_si128()};
  const std::size_t blocks = n / 8;
  std::size_t t = 0;
  for (std::size_t b = 0; b < blocks;) {
    const std::size_t run = std::min(pair_strip, blocks - b);
    __m128i a32[4] = {_mm_setzero_si128(), _mm_setzero_si128(),
                      _mm_setzero_si128(), _mm_setzero_si128()};
    for (std::size_t k = 0; k < run; ++k, ++b, t += 8) {
      const __m128i vkr =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kr + t));
      const __m128i vki =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ki + t));
      for (int s = 0; s < 4; ++s) {
        const __m128i pr = _mm_madd_epi16(
            vkr, _mm_loadu_si128(reinterpret_cast<const __m128i*>(xi[s] + t)));
        const __m128i pi = _mm_madd_epi16(
            vki, _mm_loadu_si128(reinterpret_cast<const __m128i*>(xq[s] + t)));
        a32[s] = _mm_add_epi32(a32[s], _mm_sub_epi32(pr, pi));
      }
    }
    for (int s = 0; s < 4; ++s)
      acc64[s] = detail::add_madd_i64(acc64[s], a32[s]);
  }
  for (int s = 0; s < 4; ++s) {
    std::int64_t sum = detail::hsum_i64(acc64[s]);
    for (std::size_t u = t; u < n; ++u)
      sum += static_cast<std::int64_t>(
          static_cast<std::int32_t>(kr[u]) * xi[s][u] -
          static_cast<std::int32_t>(ki[u]) * xq[s][u]);
    out[s] = sum;
  }
}

inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  // SSE2 has no byte-wise widening loads: zero-extend u with unpack
  // against zero, sign-extend w with unpack-against-self + arithmetic
  // shift, then madd the int16 lanes (exact: |u*w| <= 255*128 per product,
  // two per int32 lane).
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i vu =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(u + i));
    const __m128i vw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    const __m128i ulo = _mm_unpacklo_epi8(vu, zero);
    const __m128i uhi = _mm_unpackhi_epi8(vu, zero);
    const __m128i wlo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, vw), 8);
    const __m128i whi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, vw), 8);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(ulo, wlo));
    acc = _mm_add_epi32(acc, _mm_madd_epi16(uhi, whi));
  }
  std::int32_t sum = detail::hsum_i32(acc);
  for (; i < n; ++i)
    sum += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return sum;
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

inline std::int64_t hsum_i64(int64x2_t v) {
  return vgetq_lane_s64(v, 0) + vgetq_lane_s64(v, 1);
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

inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  // Two accumulator chains per stream to cover the fused-MLA latency on
  // the long front-end rows (see the x86 kernels for the rationale).
  float32x4_t r0 = vdupq_n_f32(0.0f), r1 = vdupq_n_f32(0.0f);
  float32x4_t i0 = vdupq_n_f32(0.0f), i1 = vdupq_n_f32(0.0f);
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8) {
    r0 = vmlaq_f32(r0, vld1q_f32(kr + t), vld1q_f32(xi + t));
    i0 = vmlaq_f32(i0, vld1q_f32(ki + t), vld1q_f32(xq + t));
    r1 = vmlaq_f32(r1, vld1q_f32(kr + t + 4), vld1q_f32(xi + t + 4));
    i1 = vmlaq_f32(i1, vld1q_f32(ki + t + 4), vld1q_f32(xq + t + 4));
  }
  float32x4_t accr = vaddq_f32(r0, r1);
  float32x4_t acci = vaddq_f32(i0, i1);
  for (; t + 4 <= n; t += 4) {
    accr = vmlaq_f32(accr, vld1q_f32(kr + t), vld1q_f32(xi + t));
    acci = vmlaq_f32(acci, vld1q_f32(ki + t), vld1q_f32(xq + t));
  }
  float sum = detail::hsum_f32(vsubq_f32(accr, acci));
  for (; t < n; ++t) sum += kr[t] * xi[t] - ki[t] * xq[t];
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

inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t va = vld1q_s16(a + i);
    const int16x8_t vb = vld1q_s16(b + i);
    int32x4_t p = vmull_s16(vget_low_s16(va), vget_low_s16(vb));
    acc = vpadalq_s32(acc, p);
    p = vmull_s16(vget_high_s16(va), vget_high_s16(vb));
    acc = vpadalq_s32(acc, p);
  }
  std::int64_t sum = detail::hsum_i64(acc);
  for (; i < n; ++i)
    sum += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return sum;
}

inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  return dot_i16(kr, xi, n) - dot_i16(ki, xq, n);
}

inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t /*strip*/) {
  // NEON's vmlal/vpadal pipeline widens cheaply already; the strip hint
  // buys nothing here. Exactness makes the two forms bit-identical.
  return fused_dot_i16(kr, ki, xi, xq, n);
}

inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t strip,
                                   std::int64_t* out) {
  for (int s = 0; s < 4; ++s)
    out[s] = fused_dot_i16_strip(kr, ki, xi[s], xq[s], n, strip);
}

inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // u8 values fit int16 after zero-extension, so the product is an exact
    // widening s16 multiply.
    const int16x8_t vu = vreinterpretq_s16_u16(vmovl_u8(vld1_u8(u + i)));
    const int16x8_t vw = vmovl_s8(vld1_s8(w + i));
    acc = vaddq_s32(acc, vmull_s16(vget_low_s16(vu), vget_low_s16(vw)));
    acc = vaddq_s32(acc, vmull_s16(vget_high_s16(vu), vget_high_s16(vw)));
  }
#if defined(__aarch64__)
  std::int32_t sum = vaddvq_s32(acc);
#else
  int32x2_t lo = vadd_s32(vget_low_s32(acc), vget_high_s32(acc));
  lo = vpadd_s32(lo, lo);
  std::int32_t sum = vget_lane_s32(lo, 0);
#endif
  for (; i < n; ++i)
    sum += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return sum;
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
inline float fused_dot_f32(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  return fused_dot_f32_scalar(kr, ki, xi, xq, n);
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
inline std::int64_t dot_i16(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  return dot_i16_scalar(a, b, n);
}
inline std::int64_t fused_dot_i16(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  return fused_dot_i16_scalar(kr, ki, xi, xq, n);
}
inline std::int64_t fused_dot_i16_strip(const std::int16_t* kr,
                                        const std::int16_t* ki,
                                        const std::int16_t* xi,
                                        const std::int16_t* xq, std::size_t n,
                                        std::size_t /*strip*/) {
  return fused_dot_i16_scalar(kr, ki, xi, xq, n);
}
inline void fused_dot_i16_strip_x4(const std::int16_t* kr,
                                   const std::int16_t* ki,
                                   const std::int16_t* const* xi,
                                   const std::int16_t* const* xq,
                                   std::size_t n, std::size_t /*strip*/,
                                   std::int64_t* out) {
  for (int s = 0; s < 4; ++s)
    out[s] = fused_dot_i16_scalar(kr, ki, xi[s], xq[s], n);
}
inline std::int32_t dot_u8i8(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  return dot_u8i8_scalar(u, w, n);
}
inline void add_bias_f32(float* z, const float* b, std::size_t n) {
  add_bias_f32_scalar(z, b, n);
}
inline void add_bias_relu_f32(float* z, const float* b, std::size_t n) {
  add_bias_relu_f32_scalar(z, b, n);
}

#endif

// ------------------------------------------- trace-code quantization ------
//
// Pass 0 of the integer front-end: out[i] = clamp(round_half_even(
// x[i] * scale), lo, hi) with scale an exact power of two and lo/hi the
// int16-range code bounds of the ADC grid. The scalar twin is the
// semantic definition (mlqr::round_half_even — independent of the runtime
// FP rounding mode). The vector version uses cvtpd->epi32, which rounds
// per the MXCSR mode — bit-identical to the scalar twin ONLY under the
// default round-to-nearest(-even) environment, so callers must guard it
// with std::fegetround() == FE_TONEAREST and fall back to the scalar twin
// otherwise. Clamping at the exact integer bounds commutes with
// round-to-nearest, so clamping in the double domain first (which also
// keeps the conversion away from the int32 overflow sentinel) changes
// nothing.

inline void quantize_codes_i16_scalar(const float* x, std::size_t n,
                                      double scale, std::int32_t lo,
                                      std::int32_t hi, std::int16_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = round_half_even(static_cast<double>(x[i]) * scale);
    const double c = r < static_cast<double>(lo)   ? static_cast<double>(lo)
                     : r > static_cast<double>(hi) ? static_cast<double>(hi)
                                                   : r;
    out[i] = static_cast<std::int16_t>(c);
  }
}

#if defined(MLQR_SIMD_AVX2) || defined(MLQR_SIMD_SSE2)

inline void quantize_codes_i16(const float* x, std::size_t n, double scale,
                               std::int32_t lo, std::int32_t hi,
                               std::int16_t* out) {
  const __m128d vscale = _mm_set1_pd(scale);
  const __m128d vlo = _mm_set1_pd(static_cast<double>(lo));
  const __m128d vhi = _mm_set1_pd(static_cast<double>(hi));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i q[2];
    for (std::size_t half = 0; half < 2; ++half) {
      const __m128 f = _mm_loadu_ps(x + i + 4 * half);
      __m128d a = _mm_mul_pd(_mm_cvtps_pd(f), vscale);
      __m128d b =
          _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(f, f)), vscale);
      a = _mm_max_pd(_mm_min_pd(a, vhi), vlo);
      b = _mm_max_pd(_mm_min_pd(b, vhi), vlo);
      // cvtpd_epi32 rounds per MXCSR: nearest-even in the guarded env.
      q[half] = _mm_unpacklo_epi64(_mm_cvtpd_epi32(a), _mm_cvtpd_epi32(b));
    }
    // Values already sit inside the int16 range, so the saturating pack is
    // a pure narrowing.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi32(q[0], q[1]));
  }
  if (i < n) quantize_codes_i16_scalar(x + i, n - i, scale, lo, hi, out + i);
}

#else

inline void quantize_codes_i16(const float* x, std::size_t n, double scale,
                               std::int32_t lo, std::int32_t hi,
                               std::int16_t* out) {
  quantize_codes_i16_scalar(x, n, scale, lo, hi, out);
}

#endif

}  // namespace mlqr::simd
