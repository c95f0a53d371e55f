#include "linalg/cholesky.h"

#include <cmath>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {

std::optional<Cholesky> Cholesky::factor(const Matrix& a, double jitter) {
  MLQR_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      double sum = a(i, j) + (i == j ? jitter : 0.0);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0) return std::nullopt;
        l(j, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return Cholesky(std::move(l));
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

void Cholesky::save(std::ostream& os) const {
  io::write_u64(os, l_.rows());
  io::write_vec_f64(os, l_.data());
}

Cholesky Cholesky::load(std::istream& is) {
  const std::size_t n = io::read_count(is, 1u << 12, 8);
  MLQR_CHECK_MSG(n > 0, "corrupt Cholesky factor: zero dimension");
  const std::vector<double> entries = io::read_vec_f64(is);
  MLQR_CHECK_MSG(entries.size() == n * n,
                 "Cholesky factor payload does not match its dimension ("
                     << entries.size() << " entries for n=" << n << ')');
  Matrix l(n, n, 0.0);
  std::copy(entries.begin(), entries.end(), l.data().begin());
  // Every substitution divides by the diagonal and assumes the strict upper
  // part is zero; reject any stream where that does not hold.
  for (std::size_t i = 0; i < n; ++i) {
    MLQR_CHECK_MSG(std::isfinite(l(i, i)) && l(i, i) > 0.0,
                   "Cholesky factor diagonal is not positive finite");
    for (std::size_t j = i + 1; j < n; ++j)
      MLQR_CHECK_MSG(l(i, j) == 0.0,
                     "Cholesky factor has a nonzero upper triangle");
    for (std::size_t j = 0; j < i; ++j)
      MLQR_CHECK_MSG(std::isfinite(l(i, j)),
                     "Cholesky factor entry is not finite");
  }
  return Cholesky(std::move(l));
}

double Cholesky::mahalanobis_squared(std::span<const double> x) const {
  // Solve L z = x, then distance = z^T z.
  const std::size_t n = l_.rows();
  MLQR_CHECK(x.size() == n);
  std::vector<double> z(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l_(i, k) * z[k];
    z[i] = sum / l_(i, i);
    acc += z[i] * z[i];
  }
  return acc;
}

}  // namespace mlqr
