// Single-precision products for the neural-network training path, and the
// GEMV of the per-shot inference path (Mlp::logits_into). The batched
// inference heads do not come through here: Mlp::classify_batch_into runs
// the shot-lane kernel (simd::Kernels::lane_dot_f32), which sums in
// sgemv's order.
//
// The three GEMMs are the three products one dense layer's backprop
// computes (nn/trainer.cpp), each on packed row-major operands:
//  - forward, Z = A·Wᵀ + b: every row of Z is sgemv's body over W with the
//    bias fused, four W rows per shared-operand dot (dot4_f32);
//  - weight gradient, dW = Δᵀ·A, and input gradient, dA = Δ·W: i-k-j
//    accumulation into each output row (unit stride), four k steps per
//    sweep (axpy4_f32).
// Kernels come from the runtime-picked SIMD table (common/simd.h), fetched
// once per call, and each product fans blocks of output rows out over the
// thread pool once it has enough arithmetic — enough to train the
// 686 k-parameter FNN baseline in seconds-per-epoch without an external
// BLAS. Each kernel sums in its scalar reference's fixed order on every
// tier, so results are bit-identical across hosts; that order differs
// from a naive i-j-k loop by normal float rounding (tests compare against
// one with a relative tolerance). Every output element is overwritten.
#pragma once

#include <cstddef>

namespace mlqr {

/// Z = A·Wᵀ + bias for A (m x k), W (n x k), bias (n) and Z (m x n): row i
/// of Z is sgemv(n, k, w, A row i, bias).
void sgemm_abt_bias(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* w, const float* bias,
                    float* z);

/// C = Aᵀ·B for A (k x m), B (k x n) and C (m x n).
void sgemm_atb(std::size_t m, std::size_t n, std::size_t k, const float* a,
               const float* b, float* c);

/// C = A·B for A (m x k), B (k x n) and C (m x n).
void sgemm_ab(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c);

/// y = A * x + bias for row-major A (m x n). Used on the inference path
/// where batch size is 1 and GEMM overhead would dominate. Every y[i] is
/// dot_f32_scalar(A row i, x, n) + bias[i], computed four rows per
/// dot4_f32 call (one padded call for the m % 4 leftover rows).
void sgemv(std::size_t m, std::size_t n, const float* a, const float* x,
           const float* bias, float* y);

}  // namespace mlqr
