#include "linalg/stats.h"

#include "common/error.h"

namespace mlqr {

std::vector<double> column_mean(std::span<const double> data, std::size_t dim,
                                std::span<const std::size_t> rows) {
  MLQR_CHECK(dim > 0);
  MLQR_CHECK_MSG(!rows.empty(), "column_mean over zero rows");
  std::vector<double> mu(dim, 0.0);
  for (std::size_t r : rows) {
    MLQR_CHECK((r + 1) * dim <= data.size());
    const double* row = data.data() + r * dim;
    for (std::size_t c = 0; c < dim; ++c) mu[c] += row[c];
  }
  const double inv = 1.0 / static_cast<double>(rows.size());
  for (double& v : mu) v *= inv;
  return mu;
}

Matrix covariance(std::span<const double> data, std::size_t dim,
                  std::span<const std::size_t> rows,
                  std::span<const double> mean_vec) {
  MLQR_CHECK(mean_vec.size() == dim);
  MLQR_CHECK(!rows.empty());
  Matrix cov(dim, dim, 0.0);
  std::vector<double> centered(dim);
  for (std::size_t r : rows) {
    const double* row = data.data() + r * dim;
    for (std::size_t c = 0; c < dim; ++c) centered[c] = row[c] - mean_vec[c];
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t j = i; j < dim; ++j)
        cov(i, j) += centered[i] * centered[j];
  }
  const double denom =
      rows.size() > 1 ? static_cast<double>(rows.size() - 1) : 1.0;
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = i; j < dim; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  return cov;
}

double mean(std::span<const double> xs) {
  MLQR_CHECK(!xs.empty());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  MLQR_CHECK(xs.size() >= 2);
  const double mu = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size() - 1);
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

}  // namespace mlqr
