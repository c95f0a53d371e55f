// Single-precision GEMM for the neural-network training path, and the
// GEMV of the per-shot inference path (Mlp::logits_into). The batched
// inference heads do not come through here: Mlp::classify_batch_into runs
// the shot-lane kernel (simd::Kernels::lane_dot_f32), which sums in
// sgemv's order.
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

/// y = A * x (+ bias) for row-major A (m x n). Used on the inference path
/// where batch size is 1 and GEMM overhead would dominate. Every y[i] is
/// dot_f32(A row i, x) + bias[i], computed four rows per dot4_f32 call
/// (one padded call for the m % 4 leftover rows).
void sgemv(std::size_t m, std::size_t n, const float* a, std::size_t lda,
           const float* x, const float* bias_or_null, float* y);

}  // namespace mlqr
