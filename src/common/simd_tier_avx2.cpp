// The AVX2 kernel tier (compiled with -mavx2; x86 default builds only).
// See common/simd.h; the kernel bodies are
// common/simd_tier_kernels.inc.
#define MLQR_SIMD_TIER_NS tier_avx2
#define MLQR_SIMD_TIER_NEEDS kNeedsAvx2
#include "common/simd_tier_kernels.inc"
