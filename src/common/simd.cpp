// Tier selection (common/simd.h) and the scalar references the tiers
// fall back on. Compiled at the build's baseline flags: the CPU
// probe must run on any host the binary starts on.
#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "common/fixed_point.h"
#include "common/simd.h"

namespace mlqr::simd {

namespace tier_base {
extern const Kernels kKernels;
}
#if defined(MLQR_SIMD_DISPATCH)
namespace tier_avx2 {
extern const Kernels kKernels;
}
namespace tier_avx512 {
extern const Kernels kKernels;
}
#endif

namespace {

constexpr const Kernels* kCompiled[] = {
    &tier_base::kKernels,
#if defined(MLQR_SIMD_DISPATCH)
    &tier_avx2::kKernels,
    &tier_avx512::kKernels,
#endif
};

/// The TierNeeds bits this CPU provides. __builtin_cpu_supports reports
/// a feature only when the OS also saves its register state (XCR0), so a
/// kernel that hides AVX-512 from user space is treated as lacking it.
unsigned host_features() {
  unsigned have = 0;
#if defined(MLQR_SIMD_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) have |= kNeedsAvx2;
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni"))
    have |= kNeedsAvx512Vnni;
#endif
  return have;
}

/// The last compiled tier the host runs: kCompiled is ordered narrow to
/// wide.
const Kernels* best_tier() {
  const Kernels* best = kCompiled[0];
  for (const Kernels* k : kCompiled)
    if (host_runs(*k)) best = k;
  return best;
}

std::atomic<const Kernels*>& active_tier() {
  static std::atomic<const Kernels*> active{best_tier()};
  return active;
}

}  // namespace

const Kernels& kernels() {
  return *active_tier().load(std::memory_order_acquire);
}

const char* tier() { return kernels().name; }

std::span<const Kernels* const> compiled_tiers() { return kCompiled; }

bool host_runs(const Kernels& k) {
  static const unsigned have = host_features();
  return (k.needs & ~have) == 0;
}

ScopedTier::ScopedTier(const Kernels& k) : prev_(&kernels()) {
  MLQR_CHECK_MSG(host_runs(k), "this host cannot run the " << k.name
                                                           << " tier");
  active_tier().store(&k, std::memory_order_release);
}

ScopedTier::~ScopedTier() {
  active_tier().store(prev_, std::memory_order_release);
}

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float lane[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t j = 0; j < 4; ++j) lane[j] += a[i + j] * b[i + j];
  float sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void dot4_f32_scalar(const float* shared, const float* b0, const float* b1,
                     const float* b2, const float* b3, std::size_t n,
                     float* out) {
  out[0] = dot_f32_scalar(shared, b0, n);
  out[1] = dot_f32_scalar(shared, b1, n);
  out[2] = dot_f32_scalar(shared, b2, n);
  out[3] = dot_f32_scalar(shared, b3, n);
}

void axpy_f32_scalar(std::size_t n, float a, const float* x, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void axpy4_f32_scalar(std::size_t n, const float* a, const float* x0,
                      const float* x1, const float* x2, const float* x3,
                      float* y) {
  const std::size_t blocked = n - n % 4;
  std::size_t i = 0;
  for (; i < blocked; ++i)
    y[i] = (((y[i] + a[0] * x0[i]) + a[1] * x1[i]) + a[2] * x2[i]) +
           a[3] * x3[i];
  for (; i < n; ++i)
    y[i] += a[0] * x0[i] + a[1] * x1[i] + a[2] * x2[i] + a[3] * x3[i];
}

void lane_dot_f32_scalar(const float* w, std::size_t in, float bias,
                         const float* act, std::size_t nb, bool relu,
                         float* out) {
  for (std::size_t s = 0; s < nb; ++s) {
    float lane[4] = {};
    std::size_t i = 0;
    for (; i + 4 <= in; i += 4)
      for (std::size_t j = 0; j < 4; ++j)
        lane[j] += w[i + j] * act[(i + j) * kLaneShots + s];
    float sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (; i < in; ++i) sum += w[i] * act[i * kLaneShots + s];
    const float z = sum + bias;
    out[s] = !relu ? z : z > 0.0f ? z : 0.0f;
  }
}

float fused_dot_f32_scalar(const float* kr, const float* ki, const float* xi,
                           const float* xq, std::size_t n) {
  float pr[16] = {}, pi[16] = {};
  std::size_t t = 0;
  for (; t + 16 <= n; t += 16) {
    for (std::size_t j = 0; j < 16; ++j) {
      pr[j] += kr[t + j] * xi[t + j];
      pi[j] += ki[t + j] * xq[t + j];
    }
  }
  float ar[4], ai[4];
  for (std::size_t j = 0; j < 4; ++j) {
    ar[j] = (pr[j] + pr[4 + j]) + (pr[8 + j] + pr[12 + j]);
    ai[j] = (pi[j] + pi[4 + j]) + (pi[8 + j] + pi[12 + j]);
  }
  for (; t + 4 <= n; t += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      ar[j] += kr[t + j] * xi[t + j];
      ai[j] += ki[t + j] * xq[t + j];
    }
  }
  float d[4];
  for (std::size_t j = 0; j < 4; ++j) d[j] = ar[j] - ai[j];
  float sum = (d[0] + d[2]) + (d[1] + d[3]);
  for (; t < n; ++t) sum += kr[t] * xi[t] - ki[t] * xq[t];
  return sum;
}

std::int64_t dot_i16_scalar(const std::int16_t* a, const std::int16_t* b,
                            std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int64_t>(static_cast<std::int32_t>(a[i]) * b[i]);
  return acc;
}

std::int64_t fused_dot_i16_scalar(const std::int16_t* kr,
                                  const std::int16_t* ki,
                                  const std::int16_t* xi,
                                  const std::int16_t* xq, std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t t = 0; t < n; ++t)
    acc += static_cast<std::int64_t>(static_cast<std::int32_t>(kr[t]) * xi[t] -
                                     static_cast<std::int32_t>(ki[t]) * xq[t]);
  return acc;
}

std::int32_t dot_u8i8_scalar(const std::uint8_t* u, const std::int8_t* w,
                             std::size_t n) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int32_t>(u[i]) * static_cast<std::int32_t>(w[i]);
  return acc;
}

void quantize_codes_i16_scalar(const float* x, std::size_t n, double scale,
                               std::int32_t lo, std::int32_t hi,
                               std::int16_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = round_half_even(static_cast<double>(x[i]) * scale);
    const double c = r < static_cast<double>(lo)   ? static_cast<double>(lo)
                     : r > static_cast<double>(hi) ? static_cast<double>(hi)
                                                   : r;
    out[i] = static_cast<std::int16_t>(c);
  }
}

void requant_features_scalar(const std::int64_t* acc, std::size_t n,
                             const double* scale, const double* offset,
                             double z_bound, double code_scale,
                             std::int32_t lo, std::int32_t hi,
                             std::int32_t* out) {
  for (std::size_t f = 0; f < n; ++f) {
    const double z = std::clamp(
        static_cast<double>(acc[f]) * scale[f] + offset[f], -z_bound, z_bound);
    // to_code's chain: scaling by 2^F is exact, round_half_even is
    // mode-independent, and the clamp at the (integer) code bounds comes
    // after the rounding.
    const double r = round_half_even(z * code_scale);
    out[f] = r <= static_cast<double>(lo)   ? lo
             : r >= static_cast<double>(hi) ? hi
                                            : static_cast<std::int32_t>(r);
  }
}

namespace {

template <typename Act, typename Logit>
void requant_lanes_reference(const std::int64_t* acc, std::size_t nb,
                             std::int64_t init, int accum_bits, int shift,
                             int act_bits, std::int32_t act_bias, Act* act,
                             Logit* logit) {
  for (std::size_t s = 0; s < nb; ++s) {
    const std::int64_t a = saturate_to_bits(init + acc[s], accum_bits);
    if (logit != nullptr) {
      logit[s] = static_cast<Logit>(a);
    } else {
      const std::int64_t code = saturate_to_bits(
          shift_round_half_even(std::max<std::int64_t>(a, 0), shift),
          act_bits);
      act[s] = static_cast<Act>(code + act_bias);
    }
  }
}

}  // namespace

void requant_lanes_i16_scalar(const std::int64_t* acc, std::size_t nb,
                              std::int64_t init, int accum_bits, int shift,
                              int act_bits, std::int16_t* act,
                              std::int64_t* logit) {
  requant_lanes_reference(acc, nb, init, accum_bits, shift, act_bits, 0, act,
                          logit);
}

void requant_lanes_u8_scalar(const std::int64_t* acc, std::size_t nb,
                             std::int64_t init, int accum_bits, int shift,
                             int act_bits, std::uint8_t* act,
                             std::int32_t* logit) {
  requant_lanes_reference(acc, nb, init, accum_bits, shift, act_bits, 128,
                          act, logit);
}

}  // namespace mlqr::simd
