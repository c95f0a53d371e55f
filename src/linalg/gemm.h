// Single-precision GEMM for the neural-network training path.
//
// BLAS-style row-major sgemm with optional transposition of either operand.
// The kernel uses an i-k-j loop order (unit-stride accumulation into C),
// register-blocked inner kernels from the runtime-picked SIMD table
// (common/simd.h: 4-way axpy for the streaming-B case, 4-way
// shared-operand dots for transposed B), fetched once per call, and
// parallelizes over blocks of rows of C — enough to train the
// 686 k-parameter FNN baseline in seconds-per-epoch without an external
// BLAS. Each kernel sums in its scalar reference's fixed order on every
// tier, so results are bit-identical across hosts; that order differs
// from a naive i-j-k loop by normal float rounding (tests compare against
// one with a relative tolerance).
#pragma once

#include <cstddef>

namespace mlqr {

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// op(A) is M x K, op(B) is K x N, C is M x N.
/// lda/ldb/ldc are the leading dimensions of the *stored* matrices.
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// sgemm without the internal parallel_for: always runs on the calling
/// thread, whatever the problem size. The batched inference path calls
/// this from inside EngineCore worker slots, where nesting another
/// thread-pool fan-out would deadlock-prone-ly re-enter the shared pool.
/// Same kernels as sgemm, so results are bit-identical to the serial
/// branch of sgemm.
void sgemm_serial(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc);

/// y = A * x (+ bias) for row-major A (m x n). Used on the inference path
/// where batch size is 1 and GEMM overhead would dominate.
void sgemv(std::size_t m, std::size_t n, const float* a, std::size_t lda,
           const float* x, const float* bias_or_null, float* y);

}  // namespace mlqr
