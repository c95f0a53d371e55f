#include "linalg/gemm.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/simd.h"

namespace mlqr {

namespace {

// sgemv's body on a fetched kernel table. Four rows per pass share every
// load of x (dot4_f32). The m % 4 leftover rows take one more call that
// repeats the last row in the unused slots and drops their outputs: each
// out[r] is dot_f32_scalar bit for bit, so padding costs no accuracy and
// saves an indirect call per row.
void gemv_rows(const simd::Kernels& kern, std::size_t m, std::size_t n,
               const float* a, const float* x, const float* bias, float* y) {
  for (std::size_t i = 0; i < m; i += 4) {
    const std::size_t rows = std::min<std::size_t>(4, m - i);
    const float* row[4];
    for (std::size_t r = 0; r < 4; ++r)
      row[r] = a + (i + std::min(r, rows - 1)) * n;
    float dots[4];
    kern.dot4_f32(x, row[0], row[1], row[2], row[3], n, dots);
    for (std::size_t r = 0; r < rows; ++r) y[i + r] = dots[r] + bias[i + r];
  }
}

// Rows [row_lo, row_hi) of C = op(A)·B, where op(A)[i, kk] is
// a[i * a_row + kk * a_col] and B is k x n: C[i,:] accumulates
// op(A)[i, kk] * B[kk,:]. The k loop is blocked by four so each sweep over
// the C row performs four vector FMAs per load/store of the accumulator
// (axpy4_f32) instead of one — the classic register-blocked update that
// turns the kernel from store-bound into FMA-bound.
void gemm_rows_b(const simd::Kernels& kern, std::size_t row_lo,
                 std::size_t row_hi, std::size_t n, std::size_t k,
                 const float* a, std::size_t a_row, std::size_t a_col,
                 const float* b, float* c) {
  for (std::size_t i = row_lo; i < row_hi; ++i) {
    const float* ai = a + i * a_row;
    float* crow = c + i * n;
    std::fill(crow, crow + n, 0.0f);
    std::size_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float aik[4] = {ai[kk * a_col], ai[(kk + 1) * a_col],
                            ai[(kk + 2) * a_col], ai[(kk + 3) * a_col]};
      if (aik[0] == 0.0f && aik[1] == 0.0f && aik[2] == 0.0f &&
          aik[3] == 0.0f)
        continue;
      kern.axpy4_f32(n, aik, b + kk * n, b + (kk + 1) * n, b + (kk + 2) * n,
                     b + (kk + 3) * n, crow);
    }
    for (; kk < k; ++kk) {
      const float aik = ai[kk * a_col];
      if (aik == 0.0f) continue;
      kern.axpy_f32(n, aik, b + kk * n, crow);
    }
  }
}

// Runs rows(lo, hi) over [0, m): serially, or across the thread pool when
// there is enough arithmetic to amortize the fork.
void for_row_blocks(std::size_t m, std::size_t n, std::size_t k,
                    FunctionRef<void(std::size_t, std::size_t)> rows) {
  if (2 * m * n * k < (1u << 20) || m < 4) {
    rows(0, m);
    return;
  }
  parallel_for_chunked(0, m, rows);
}

}  // namespace

void sgemm_abt_bias(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* w, const float* bias,
                    float* z) {
  const simd::Kernels& kern = simd::kernels();
  for_row_blocks(m, n, k, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      gemv_rows(kern, n, k, w, a + i * k, bias, z + i * n);
  });
}

void sgemm_atb(std::size_t m, std::size_t n, std::size_t k, const float* a,
               const float* b, float* c) {
  const simd::Kernels& kern = simd::kernels();
  for_row_blocks(m, n, k, [&](std::size_t lo, std::size_t hi) {
    gemm_rows_b(kern, lo, hi, n, k, a, 1, m, b, c);
  });
}

void sgemm_ab(std::size_t m, std::size_t n, std::size_t k, const float* a,
              const float* b, float* c) {
  const simd::Kernels& kern = simd::kernels();
  for_row_blocks(m, n, k, [&](std::size_t lo, std::size_t hi) {
    gemm_rows_b(kern, lo, hi, n, k, a, k, 1, b, c);
  });
}

void sgemv(std::size_t m, std::size_t n, const float* a, const float* x,
           const float* bias, float* y) {
  gemv_rows(simd::kernels(), m, n, a, x, bias, y);
}

}  // namespace mlqr
