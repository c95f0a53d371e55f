// Integer tier selection (common/simd_int.h) and the exact scalar
// references the tiers fall back on. Compiled at the build's baseline
// flags: the CPU probe must run on any host the binary starts on.
#include <atomic>

#include "common/error.h"
#include "common/fixed_point.h"
#include "common/simd_int.h"

namespace mlqr::simd {

namespace tier_base {
extern const IntKernels kKernels;
}
#if defined(MLQR_SIMD_INT_DISPATCH)
namespace tier_avx2 {
extern const IntKernels kKernels;
}
namespace tier_avx512 {
extern const IntKernels kKernels;
}
#endif

namespace {

constexpr const IntKernels* kCompiled[] = {
    &tier_base::kKernels,
#if defined(MLQR_SIMD_INT_DISPATCH)
    &tier_avx2::kKernels,
    &tier_avx512::kKernels,
#endif
};

/// The IntTierNeeds bits this CPU provides. __builtin_cpu_supports reports
/// a feature only when the OS also saves its register state (XCR0), so a
/// kernel that hides AVX-512 from user space is treated as lacking it.
unsigned host_features() {
  unsigned have = 0;
#if defined(MLQR_SIMD_INT_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) have |= kNeedsAvx2;
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vnni"))
    have |= kNeedsAvx512Vnni;
#endif
  return have;
}

/// The last compiled tier the host runs: kCompiled is ordered narrow to
/// wide.
const IntKernels* best_tier() {
  const IntKernels* best = kCompiled[0];
  for (const IntKernels* k : kCompiled)
    if (host_runs(*k)) best = k;
  return best;
}

std::atomic<const IntKernels*>& active_tier() {
  static std::atomic<const IntKernels*> active{best_tier()};
  return active;
}

}  // namespace

const IntKernels& int_kernels() {
  return *active_tier().load(std::memory_order_acquire);
}

const char* int_tier() { return int_kernels().name; }

std::span<const IntKernels* const> compiled_int_tiers() { return kCompiled; }

bool host_runs(const IntKernels& k) {
  static const unsigned have = host_features();
  return (k.needs & ~have) == 0;
}

ScopedIntTier::ScopedIntTier(const IntKernels& k)
    : prev_(&int_kernels()) {
  MLQR_CHECK_MSG(host_runs(k), "this host cannot run the " << k.name
                                                           << " integer tier");
  active_tier().store(&k, std::memory_order_release);
}

ScopedIntTier::~ScopedIntTier() {
  active_tier().store(prev_, std::memory_order_release);
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

}  // namespace mlqr::simd
