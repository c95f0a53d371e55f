// Linear and quadratic discriminant analysis over real feature vectors.
//
// The paper's Table V baselines: class-conditional Gaussians with a shared
// covariance (LDA) or per-class covariances (QDA), uniform priors (the
// macro fidelity metric scores levels equally, so balanced priors are the
// matching Bayes rule).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace mlqr {

enum class GaussianKind { kLda, kQda };

/// Gaussian classifier over row-major double features.
class GaussianClassifier {
 public:
  /// Fits from (n x dim) features and labels in [0, n_classes). Classes
  /// absent from the data keep a -inf discriminant (never predicted).
  /// Every covariance gets a 1e-9 diagonal load before its factorization,
  /// which regularizes covariances from small classes.
  static GaussianClassifier fit(std::span<const double> features,
                                std::size_t dim, std::span<const int> labels,
                                std::size_t n_classes, GaussianKind kind);

  int predict(std::span<const double> x) const;

  /// Per-class discriminant scores (log-posterior up to a constant).
  std::vector<double> scores(std::span<const double> x) const;

  GaussianKind kind() const { return kind_; }
  std::size_t dim() const { return dim_; }
  std::size_t n_classes() const { return means_.size(); }

  /// Binary little-endian persistence (calibration snapshot leaf): kind,
  /// dims, per-class means/presence, and the exact Cholesky factors —
  /// scores() on a reloaded classifier is bit-identical. load throws
  /// mlqr::Error unless the factor layout matches the kind exactly (one
  /// pooled factor for LDA, one per present class for QDA).
  void save(std::ostream& os) const;
  static GaussianClassifier load(std::istream& is);

 private:
  GaussianKind kind_ = GaussianKind::kLda;
  std::size_t dim_ = 0;
  std::vector<std::vector<double>> means_;      ///< Per class (empty if absent).
  std::vector<Cholesky> chols_;                 ///< Per class (QDA) or [0] (LDA).
  std::vector<double> log_dets_;                ///< Matching chols_.
  std::vector<bool> present_;
};

}  // namespace mlqr
