#include "linalg/gemm.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"

namespace mlqr {

namespace {

// Scalar element accessor honouring the transpose flag.
inline float elem(const float* p, std::size_t ld, bool trans, std::size_t r,
                  std::size_t c) {
  return trans ? p[c * ld + r] : p[r * ld + c];
}

// Non-transposed-B case: C[i,:] accumulates alpha * a_ik * B[k,:]. The k
// loop is blocked by four so each sweep over the C row performs four
// vector FMAs per load/store of the accumulator (axpy4_f32) instead of
// one — the classic register-blocked update that turns the kernel from
// store-bound into FMA-bound.
void gemm_rows_b(const simd::Kernels& kern, bool trans_a, std::size_t row_lo,
                 std::size_t row_hi, std::size_t n, std::size_t k, float alpha,
                 const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    std::size_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float aik[4] = {alpha * elem(a, lda, trans_a, i, kk),
                            alpha * elem(a, lda, trans_a, i, kk + 1),
                            alpha * elem(a, lda, trans_a, i, kk + 2),
                            alpha * elem(a, lda, trans_a, i, kk + 3)};
      if (aik[0] == 0.0f && aik[1] == 0.0f && aik[2] == 0.0f &&
          aik[3] == 0.0f)
        continue;
      kern.axpy4_f32(n, aik, b + kk * ldb, b + (kk + 1) * ldb,
                     b + (kk + 2) * ldb, b + (kk + 3) * ldb, crow);
    }
    for (; kk < k; ++kk) {
      const float aik = alpha * elem(a, lda, trans_a, i, kk);
      if (aik == 0.0f) continue;
      kern.axpy_f32(n, aik, b + kk * ldb, crow);
    }
  }
}

// Transposed-B case: op(B)[kk, j] = B[j, kk], so C[i, j] is a dot product
// of op(A) row i against B row j. Rows of B are blocked by four so the
// shared A row streams from registers/L1 once per block (dot4_f32).
// When A is transposed its row is strided — it is packed once per i into
// `arow_scratch` so the inner dots stay unit-stride.
void gemm_rows_bt(const simd::Kernels& kern, bool trans_a,
                  std::size_t row_lo, std::size_t row_hi, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc, std::vector<float>& arow_scratch) {
  if (trans_a) arow_scratch.resize(k);
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    const float* arow;
    if (trans_a) {
      for (std::size_t kk = 0; kk < k; ++kk)
        arow_scratch[kk] = a[kk * lda + i];
      arow = arow_scratch.data();
    } else {
      arow = a + i * lda;
    }
    float* crow = c + i * ldc;
    // beta == 0 must overwrite (not scale) whatever is in C — garbage may
    // include NaN, and 0 * NaN would propagate it.
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      float dots[4];
      kern.dot4_f32(arow, b + j * ldb, b + (j + 1) * ldb, b + (j + 2) * ldb,
                    b + (j + 3) * ldb, k, dots);
      for (std::size_t r = 0; r < 4; ++r)
        crow[j + r] = alpha * dots[r] +
                      (beta == 0.0f ? 0.0f : beta * crow[j + r]);
    }
    for (; j < n; ++j) {
      const float dot = kern.dot_f32(arow, b + j * ldb, k);
      crow[j] = alpha * dot + (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
  }
}

void gemm_rows(const simd::Kernels& kern, bool trans_a, bool trans_b,
               std::size_t row_lo, std::size_t row_hi, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc) {
  if (!trans_b) {
    gemm_rows_b(kern, trans_a, row_lo, row_hi, n, k, alpha, a, lda, b, ldb,
                beta, c, ldc);
  } else {
    std::vector<float> scratch;
    gemm_rows_bt(kern, trans_a, row_lo, row_hi, n, k, alpha, a, lda, b, ldb,
                 beta, c, ldc, scratch);
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (m == 0 || n == 0) return;
  const simd::Kernels& kern = simd::kernels();
  // Parallelize when there is enough arithmetic to amortize thread fork.
  const std::size_t flops = 2 * m * n * k;
  if (flops < (1u << 20) || m < 4) {
    gemm_rows(kern, trans_a, trans_b, 0, m, n, k, alpha, a, lda, b, ldb, beta,
              c, ldc);
    return;
  }
  parallel_for_chunked(0, m, [&](std::size_t lo, std::size_t hi) {
    gemm_rows(kern, trans_a, trans_b, lo, hi, n, k, alpha, a, lda, b, ldb,
              beta, c, ldc);
  });
}

void sgemv(std::size_t m, std::size_t n, const float* a, std::size_t lda,
           const float* x, const float* bias_or_null, float* y) {
  // Four rows per pass share every load of x (dot4_f32). The m % 4
  // leftover rows take one more call that repeats the last row in the
  // unused slots and drops their outputs: each out[r] is dot_f32 bit for
  // bit, so padding costs no accuracy and saves an indirect call per row.
  const simd::Kernels& kern = simd::kernels();
  for (std::size_t i = 0; i < m; i += 4) {
    const std::size_t rows = std::min<std::size_t>(4, m - i);
    const float* row[4];
    for (std::size_t r = 0; r < 4; ++r)
      row[r] = a + (i + std::min(r, rows - 1)) * lda;
    float dots[4];
    kern.dot4_f32(x, row[0], row[1], row[2], row[3], n, dots);
    for (std::size_t r = 0; r < rows; ++r)
      y[i + r] =
          dots[r] + (bias_or_null != nullptr ? bias_or_null[i + r] : 0.0f);
  }
}

}  // namespace mlqr
