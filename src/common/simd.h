// The runtime-dispatched SIMD kernels: every hot float and integer loop
// of the library — the float front-end's fused dot products, the
// training products' and the per-shot head's kernels (linalg/gemm.h), the
// batched heads' shot-lane kernels, and every integer kernel,
// requantization included.
//
// The kernels live in one table, compiled once per instruction-set tier
// and picked once, at first use, for the running host:
//
//   tier           compiled with                      needs
//   base           the build's own flags (SSE2 on a   nothing beyond the
//                  default x86-64 build; native under  build itself
//                  MLQR_NATIVE; NEON / scalar else)
//   avx2           -mavx2                             AVX2
//   avx512-vnni    -mavx512f/bw/dq/vl/vnni            AVX-512 F+BW+DQ+VL+
//                                                      VNNI
//
// The avx2 and avx512-vnni tiers exist only in default x86 builds; non-x86
// and MLQR_NATIVE builds carry the base tier alone. Each tier lives in its
// own translation unit (common/simd_tier_*.cpp, all sharing the kernel
// bodies in common/simd_tier_kernels.inc) under its own namespace, and
// defines no shared-linkage symbol outside it — so the linker can never
// hand a wider tier's copy of an inline function to a baseline caller.
// This header holds no instruction-set code.
//
// Every tier returns bit-identical results, so labels do not depend on the
// host. The integer kernels sum exactly; each float kernel computes the one
// evaluation order its scalar reference spells out, with every product
// rounded before its add (the library builds with -ffp-contract=off, so no
// compiler fuses them into an FMA); the requant kernels round as their
// scalar references do (the double-domain ones under the default
// round-to-nearest mode). The *_scalar functions below are the references.
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
// Callers fetch the table once per call (kernels()) and make one indirect
// call per filter row, per-shot head output row (four rows for dot4_f32),
// batched head output row across a block of shots, GEMM row update or
// shot's feature requant, never per sample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mlqr::simd {

/// CPU features a tier needs beyond the build's baseline (Kernels::needs).
enum TierNeeds : unsigned {
  kNeedsAvx2 = 1u << 0,
  kNeedsAvx512Vnni = 1u << 1,  ///< AVX-512 F, BW, DQ, VL and VNNI.
};

/// Shot lanes of the head's transposed activation block: the row stride of
/// lane_dot_*'s `act` operand (and of lane_dot_f32's `out`) and its largest
/// shot count.
inline constexpr std::size_t kLaneShots = 128;

/// One tier's kernels. Contracts (shared by every tier):
///  - dot4_f32 / axpy_f32 / axpy4_f32: the per-shot head and training
///    kernels, each bit for bit its *_scalar reference. dot4_f32's out[r]
///    is dot_f32_scalar(shared, b_r, n). The reduction runs at 128 bits on
///    every tier; the element-wise kernels at the tier's own width.
///  - lane_dot_f32: one float head layer's output row across a transposed
///    block of nb <= kLaneShots shots: out[s] = relu ? (z > 0 ? z : +0) : z
///    for z = dot_f32_scalar(w, act column s, in) + bias — in dot_f32_scalar's
///    order per shot lane (four partials by i % 4 over the whole 4-blocks,
///    then (p0 + p2) + (p1 + p3), then the tail in i order), which no lane
///    width changes, then the bias add. So its z is sgemv's y bit for bit,
///    and a NaN z becomes +0 under relu. Every act row is read up to the
///    vector holding lane nb - 1; out is written only below nb.
///  - fused_dot_f32: sum_t kr[t]*xi[t] - ki[t]*xq[t] in this float order:
///    1. while t + 16 <= n: pr[t % 16] += kr[t]*xi[t] and
///       pi[t % 16] += ki[t]*xq[t] (16 partials per stream, from zero);
///    2. ar[j] = (pr[j] + pr[4+j]) + (pr[8+j] + pr[12+j]) for j < 4, ai
///       likewise;
///    3. while t + 4 <= n: ar[t % 4] += kr[t]*xi[t], ai[t % 4] likewise;
///    4. d = ar - ai; s = (d[0] + d[2]) + (d[1] + d[3]);
///    5. for the remaining t: s += kr[t]*xi[t] - ki[t]*xq[t].
///    fused_dot_f32_scalar is this order written out.
///  - fused_dot_f32_x4: out[s] = fused_dot_f32(kr, ki, xi[s], xq[s], n).
///  - dot_i16 / fused_dot_i16_strip / fused_dot_i16_strip_x4 return exact
///    int64 sums of int16 products. The madd pairing needs the first
///    (kernel / weight) operand free of -32768; the second may use the full
///    range. `strip` certifies strip * 2 * max|kernel code| * 2^15 <=
///    2^31 - 1 (int32 lanes may then sum `strip` madd blocks before
///    widening); strip <= 1 widens every block.
///  - dot_u8i8: sum_i u[i] * w[i], exact in int32 for n <= 65807.
///  - quantize_codes_i16: clamp(round_half_even(x * scale), lo, hi) under
///    the default round-to-nearest FP environment (callers guard it and
///    fall back to quantize_codes_i16_scalar otherwise).
///  - lane_dot_i16 / lane_dot_u8i8: for one head output row, acc[s] =
///    sum_i w[i] * act[i * kLaneShots + s] for every shot s < nb <=
///    kLaneShots, exact in int64. `strip` certifies that `strip`
///    consecutive products sum exactly in int32; 1 widens every product.
///    Weights must not hold the type minimum (the madd pairing again).
///    Every act row is read kLaneShots entries wide; acc is written only
///    below nb.
///  - requant_features: the integer front-end's per-filter requant, for
///    f < n: z = clamp(double(acc[f]) * scale[f] + offset[f], -z_bound,
///    z_bound) with the product rounded before the add, then out[f] =
///    clamp(round_half_even(z * code_scale), lo, hi) — to_code(z, fmt) for
///    code_scale = 2^fmt.frac_bits, lo / hi = fmt's code bounds. Scales,
///    offsets and z_bound must be finite and lo <= hi; the conversion
///    of acc is correctly rounded for every int64 (exact below 2^53).
///    Bit-identical only under the default round-to-nearest FP
///    environment: callers guard it and fall back to
///    requant_features_scalar otherwise.
///  - requant_lanes_i16 / requant_lanes_u8: a head layer's epilogue for
///    one output row across nb <= kLaneShots shots, from the lane kernel's
///    sums: a = saturate(init + acc[s], accum_bits). On the last layer
///    (logit non-null) logit[s] = a. Otherwise act[s] =
///    saturate(shift_round_half_even(max(a, 0), shift), act_bits) +
///    kActBias (0 at int16, 128 into uint8). Needs 2 <= accum_bits <= 63,
///    -63 < shift < 63, and 2 <= act_bits <= 16 (int16) or 8 (uint8);
///    logits need accum_bits <= 32 at int32. Writes only below nb.
struct Kernels {
  const char* name;  ///< "sse2", "avx2", "avx512-vnni", "neon", ...
  unsigned needs;    ///< TierNeeds bits the host must have.
  /// Four rows sharing one operand: out[r] = dot_f32_scalar(shared, b_r,
  /// n).
  void (*dot4_f32)(const float* shared, const float* b0, const float* b1,
                   const float* b2, const float* b3, std::size_t n,
                   float* out);
  void (*axpy_f32)(std::size_t n, float a, const float* x, float* y);
  void (*axpy4_f32)(std::size_t n, const float* a, const float* x0,
                    const float* x1, const float* x2, const float* x3,
                    float* y);
  /// Reads act[i * kLaneShots + s] for i < in; writes out[s] for s < nb.
  void (*lane_dot_f32)(const float* w, std::size_t in, float bias,
                       const float* act, std::size_t nb, bool relu,
                       float* out);
  float (*fused_dot_f32)(const float* kr, const float* ki, const float* xi,
                         const float* xq, std::size_t n);
  /// Four trace streams against one kernel row: out[s] for xi[s], xq[s].
  void (*fused_dot_f32_x4)(const float* kr, const float* ki,
                           const float* const* xi, const float* const* xq,
                           std::size_t n, float* out);
  std::int64_t (*dot_i16)(const std::int16_t* a, const std::int16_t* b,
                          std::size_t n);
  std::int64_t (*fused_dot_i16_strip)(const std::int16_t* kr,
                                      const std::int16_t* ki,
                                      const std::int16_t* xi,
                                      const std::int16_t* xq, std::size_t n,
                                      std::size_t strip);
  /// Four trace streams against one kernel row: out[s] for xi[s], xq[s].
  void (*fused_dot_i16_strip_x4)(const std::int16_t* kr,
                                 const std::int16_t* ki,
                                 const std::int16_t* const* xi,
                                 const std::int16_t* const* xq, std::size_t n,
                                 std::size_t strip, std::int64_t* out);
  std::int32_t (*dot_u8i8)(const std::uint8_t* u, const std::int8_t* w,
                           std::size_t n);
  void (*quantize_codes_i16)(const float* x, std::size_t n, double scale,
                             std::int32_t lo, std::int32_t hi,
                             std::int16_t* out);
  void (*lane_dot_i16)(const std::int16_t* w, std::size_t in,
                       const std::int16_t* act, std::size_t nb,
                       std::size_t strip, std::int64_t* acc);
  void (*lane_dot_u8i8)(const std::int8_t* w, std::size_t in,
                        const std::uint8_t* act, std::size_t nb,
                        std::size_t strip, std::int64_t* acc);
  void (*requant_features)(const std::int64_t* acc, std::size_t n,
                           const double* scale, const double* offset,
                           double z_bound, double code_scale, std::int32_t lo,
                           std::int32_t hi, std::int32_t* out);
  /// The int16 heads: int16 activations, int64 logits.
  void (*requant_lanes_i16)(const std::int64_t* acc, std::size_t nb,
                            std::int64_t init, int accum_bits, int shift,
                            int act_bits, std::int16_t* act,
                            std::int64_t* logit);
  /// The int8 heads: biased uint8 activations, int32 logits.
  void (*requant_lanes_u8)(const std::int64_t* acc, std::size_t nb,
                           std::int64_t init, int accum_bits, int shift,
                           int act_bits, std::uint8_t* act,
                           std::int32_t* logit);
};

/// The kernels every dispatched call uses: the widest compiled tier the
/// host runs, picked on first use (or the tier a live ScopedTier pinned).
const Kernels& kernels();

/// kernels().name — the tier bench reports record.
const char* tier();

/// Every tier compiled into this build, base tier first.
std::span<const Kernels* const> compiled_tiers();

/// Whether the running CPU (and OS register state) can execute `k`.
bool host_runs(const Kernels& k);

/// Test and measurement hook: pins kernels() to `k` for this object's
/// lifetime, so tests can compare tiers through the full datapath. Throws
/// when the host cannot run `k`. Not for concurrent use with inference on
/// other threads.
class ScopedTier {
 public:
  explicit ScopedTier(const Kernels& k);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  const Kernels* prev_;
};

// Scalar references (defined out of line so the tier translation units can
// call them without emitting copies).

/// Four lanes from zero, lane j += a[i]*b[i] for i % 4 == j over the whole
/// 4-blocks, combined as (l0 + l2) + (l1 + l3); then the remaining n % 4
/// products added one by one.
float dot_f32_scalar(const float* a, const float* b, std::size_t n);
/// out[r] = dot_f32_scalar(shared, b_r, n).
void dot4_f32_scalar(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out);
/// y[i] += a * x[i].
void axpy_f32_scalar(std::size_t n, float a, const float* x, float* y);
/// y += a0*x0 + a1*x1 + a2*x2 + a3*x3 (the 4-way register-blocked GEMM
/// update): (((y + a0*x0) + a1*x1) + a2*x2) + a3*x3 over the whole
/// 4-blocks, y + (((a0*x0 + a1*x1) + a2*x2) + a3*x3) on the last n % 4
/// elements.
void axpy4_f32_scalar(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y);
/// Kernels::lane_dot_f32 shot by shot: out[s] = dot_f32_scalar over act's
/// column s plus bias, then relu ? (z > 0 ? z : +0) : z.
void lane_dot_f32_scalar(const float* w, std::size_t in, float bias,
                         const float* act, std::size_t nb, bool relu,
                         float* out);
/// Kernels::fused_dot_f32's evaluation order in plain float arithmetic —
/// what every tier returns, bit for bit.
float fused_dot_f32_scalar(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n);
std::int64_t dot_i16_scalar(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n);
/// sum_t kr[t]*xi[t] - ki[t]*xq[t] with an exact int64 accumulator.
std::int64_t fused_dot_i16_scalar(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n);
/// sum_i u[i]*w[i] with u unsigned 8-bit and w signed 8-bit — the vpdpbusd
/// operand convention of the int8 MLP (activations carry a +128 bias that
/// the caller corrects with a per-row constant).
std::int32_t dot_u8i8_scalar(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n);
/// Pass 0 of the integer front-end: out[i] = clamp(round_half_even(x[i] *
/// scale), lo, hi), with mlqr::round_half_even as the semantic definition —
/// independent of the runtime FP rounding mode.
void quantize_codes_i16_scalar(const float* x, std::size_t n, double scale,
                               std::int32_t lo, std::int32_t hi,
                               std::int16_t* out);
/// Kernels::requant_features with round_half_even as the code rounding, so
/// only the affine step (as in any double arithmetic) follows the runtime
/// FP rounding mode.
void requant_features_scalar(const std::int64_t* acc, std::size_t n,
                             const double* scale, const double* offset,
                             double z_bound, double code_scale,
                             std::int32_t lo, std::int32_t hi,
                             std::int32_t* out);
/// Kernels::requant_lanes_* as the per-shot chain of
/// QuantizedMlpOf::logits_into (saturate_to_bits, shift_round_half_even).
void requant_lanes_i16_scalar(const std::int64_t* acc, std::size_t nb,
                              std::int64_t init, int accum_bits, int shift,
                              int act_bits, std::int16_t* act,
                              std::int64_t* logit);
void requant_lanes_u8_scalar(const std::int64_t* acc, std::size_t nb,
                             std::int64_t init, int accum_bits, int shift,
                             int act_bits, std::uint8_t* act,
                             std::int32_t* logit);

}  // namespace mlqr::simd
