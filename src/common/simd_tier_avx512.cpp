// The AVX-512 kernel tier (compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vl -mavx512vnni; x86 default builds only).
// See common/simd.h; the kernel bodies are
// common/simd_tier_kernels.inc.
#define MLQR_SIMD_TIER_NS tier_avx512
#define MLQR_SIMD_TIER_NEEDS kNeedsAvx512Vnni
#include "common/simd_tier_kernels.inc"
