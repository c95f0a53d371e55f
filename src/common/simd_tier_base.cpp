// The base kernel tier: the kernels at the build's own flags (SSE2 on a
// default x86-64 build, the host's ISA under MLQR_NATIVE, NEON or scalar
// elsewhere). It needs nothing beyond what the whole binary needs.
// See common/simd.h; the kernel bodies are
// common/simd_tier_kernels.inc.
#define MLQR_SIMD_TIER_NS tier_base
#define MLQR_SIMD_TIER_NEEDS 0
#include "common/simd_tier_kernels.inc"
