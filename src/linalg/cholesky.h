// Cholesky factorization for covariance matrices (QDA / Mahalanobis paths).
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace mlqr {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  /// Factorizes A = L L^T. Returns std::nullopt when A is not positive
  /// definite (after adding `jitter` * I, which regularizes near-singular
  /// sample covariances from small trace counts).
  static std::optional<Cholesky> factor(const Matrix& a, double jitter = 0.0);

  /// log(det A) = 2 * sum(log L_ii) — used by the QDA discriminant.
  double log_det() const;

  /// Mahalanobis squared distance x^T A^{-1} x.
  double mahalanobis_squared(std::span<const double> x) const;

  const Matrix& lower() const { return l_; }

  /// Binary little-endian persistence of the factor (calibration snapshot
  /// leaf: exact f64 bit patterns of L). load throws mlqr::Error unless
  /// the stream decodes to a well-formed factor — square, lower-triangular
  /// with an all-zero strict upper part, and a positive finite diagonal —
  /// so a corrupt snapshot cannot smuggle in a factor mahalanobis_squared()
  /// would choke on (division by a zero/NaN pivot).
  void save(std::ostream& os) const;
  static Cholesky load(std::istream& is);

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

}  // namespace mlqr
