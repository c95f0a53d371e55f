// Runtime-dispatched integer SIMD kernels.
//
// The fixed-point datapath (dsp/quantized_frontend, nn/quantized_mlp) runs
// on a table of integer kernels compiled once per instruction-set tier and
// picked once, at first use, for the running host:
//
//   tier           compiled with                      needs
//   base           the build's own flags (SSE2 on a   nothing beyond the
//                  default x86-64 build; native under  build itself
//                  MLQR_NATIVE; NEON / scalar else)
//   avx2           -mavx2                             AVX2
//   avx512-vnni    -mavx512f/bw/vl/vnni               AVX-512 F+BW+VL+VNNI
//
// The avx2 and avx512-vnni tiers exist only in default x86 builds; non-x86
// and MLQR_NATIVE builds carry the base tier alone. Each tier lives in its
// own translation unit (common/simd_tier_*.cpp, all sharing the kernel
// bodies in common/simd_tier_kernels.inc) under its own namespace, and
// defines no shared-linkage symbol outside it — so the linker can never
// hand a wider tier's copy of an inline function to a baseline caller.
//
// Every kernel sums integers exactly, so all tiers return bit-identical
// results (the *_scalar functions below are the reference). Float
// kernels deliberately stay compile-time (common/simd.h): their vector
// reassociation differs per width, and a runtime pick would make float
// labels depend on the host.
//
// Callers fetch the table once per call (int_kernels()) and make one
// indirect call per filter row or head output row, never per sample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mlqr::simd {

/// CPU features a tier needs beyond the build's baseline (IntKernels::needs).
enum IntTierNeeds : unsigned {
  kNeedsAvx2 = 1u << 0,
  kNeedsAvx512Vnni = 1u << 1,  ///< AVX-512 F, BW, VL and VNNI.
};

/// Shot lanes of the head's transposed activation block: the row stride of
/// lane_dot_*'s `act` operand and its largest shot count.
inline constexpr std::size_t kLaneShots = 128;

/// One tier's integer kernels. Contracts (shared by every tier):
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
struct IntKernels {
  const char* name;  ///< "sse2", "avx2", "avx512-vnni", "neon", ...
  unsigned needs;    ///< IntTierNeeds bits the host must have.
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
};

/// The kernels every integer datapath call uses: the widest compiled tier
/// the host runs, picked on first use (or the tier a live ScopedIntTier
/// pinned).
const IntKernels& int_kernels();

/// int_kernels().name — the integer tier bench reports record.
const char* int_tier();

/// Every tier compiled into this build, base tier first.
std::span<const IntKernels* const> compiled_int_tiers();

/// Whether the running CPU (and OS register state) can execute `k`.
bool host_runs(const IntKernels& k);

/// Test hook: pins int_kernels() to `k` for this object's lifetime, so
/// tests can compare tiers through the full datapath. Throws when the host
/// cannot run `k`. Not for concurrent use with inference on other threads.
class ScopedIntTier {
 public:
  explicit ScopedIntTier(const IntKernels& k);
  ~ScopedIntTier();
  ScopedIntTier(const ScopedIntTier&) = delete;
  ScopedIntTier& operator=(const ScopedIntTier&) = delete;

 private:
  const IntKernels* prev_;
};

// Exact scalar references for the integer kernels (defined out of line so
// the tier translation units can call them without emitting copies).
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

}  // namespace mlqr::simd
