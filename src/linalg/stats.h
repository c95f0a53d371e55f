// Sample statistics over row-major datasets (rows = observations).
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace mlqr {

/// Mean of each column over the given rows. `data` holds row-major
/// observations with `dim` columns; `rows` indexes which observations to
/// include (all when empty is not allowed — pass explicit indices).
std::vector<double> column_mean(std::span<const double> data, std::size_t dim,
                                std::span<const std::size_t> rows);

/// Sample covariance (denominator n-1; n-0 when only one row) over the
/// selected rows, centered at `mean`.
Matrix covariance(std::span<const double> data, std::size_t dim,
                  std::span<const std::size_t> rows,
                  std::span<const double> mean);

/// Scalar helpers.
double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  ///< Sample variance (n-1).

/// Welford-style streaming accumulator for per-time-bin trace statistics —
/// the matched-filter builder uses one per (state, time-bin).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance; 0 when fewer than two samples.
  double variance() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace mlqr
