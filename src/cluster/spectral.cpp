#include "cluster/spectral.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/kmeans.h"
#include "common/error.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

namespace mlqr {

namespace {

constexpr std::size_t kClusters = 3;
constexpr std::size_t kNeighbors = 12;
constexpr int kKmeansMaxIter = 100;
constexpr int kKmeansRestarts = 4;

}  // namespace

std::vector<int> spectral_cluster(std::span<const double> points,
                                  std::size_t dim, Rng& rng) {
  MLQR_CHECK(dim > 0 && points.size() % dim == 0);
  const std::size_t n = points.size() / dim;
  MLQR_CHECK_MSG(n >= kClusters, "spectral_cluster: too few points");
  MLQR_CHECK_MSG(n <= 2000, "spectral_cluster is dense O(n^3); subsample "
                            "above ~2000 points (got " << n << ')');

  const std::size_t k_nn = std::min<std::size_t>(kNeighbors, n - 1);

  // Pairwise squared distances (symmetric, n x n).
  Matrix d2(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      double acc = 0.0;
      for (std::size_t c = 0; c < dim; ++c) {
        const double d = points[a * dim + c] - points[b * dim + c];
        acc += d * d;
      }
      d2(a, b) = acc;
      d2(b, a) = acc;
    }
  }

  // Local scale per point: distance to its k-th nearest neighbour
  // (Zelnik-Manor/Perona self-tuning), robust to density contrast between
  // the big computational clusters and the tiny leakage cluster.
  std::vector<double> sigma(n, 0.0);
  std::vector<double> row(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) row[b] = d2(a, b);
    std::nth_element(row.begin(), row.begin() + k_nn, row.end());
    sigma[a] = std::sqrt(std::max(row[k_nn], 1e-18));
  }

  // kNN affinity (symmetrized by max): w_ab = exp(-d2 / (sigma_a sigma_b)).
  Matrix w(n, n, 0.0);
  std::vector<std::size_t> order(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) order[b] = b;
    std::nth_element(order.begin(), order.begin() + k_nn, order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return d2(a, x) < d2(a, y);
                     });
    for (std::size_t r = 0; r <= k_nn; ++r) {
      const std::size_t b = order[r];
      if (b == a) continue;
      const double weight = std::exp(-d2(a, b) / (sigma[a] * sigma[b]));
      w(a, b) = std::max(w(a, b), weight);
      w(b, a) = w(a, b);
    }
  }

  // Symmetric normalized Laplacian: L = I - D^{-1/2} W D^{-1/2}.
  std::vector<double> inv_sqrt_deg(n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    double deg = 0.0;
    for (std::size_t b = 0; b < n; ++b) deg += w(a, b);
    inv_sqrt_deg[a] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  Matrix lap(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b)
      lap(a, b) = (a == b ? 1.0 : 0.0) -
                  inv_sqrt_deg[a] * w(a, b) * inv_sqrt_deg[b];
  }

  const EigenDecomposition eig = jacobi_eigen_symmetric(lap, 1e-10, 48);

  // Embedding: bottom kClusters eigenvectors, rows L2-normalized.
  const std::size_t kc = kClusters;
  std::vector<double> embedding(n * kc, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    double norm = 0.0;
    for (std::size_t j = 0; j < kc; ++j) {
      const double v = eig.eigenvectors(a, j);
      embedding[a * kc + j] = v;
      norm += v * v;
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12)
      for (std::size_t j = 0; j < kc; ++j) embedding[a * kc + j] /= norm;
  }

  KMeansResult km = kmeans(embedding, kc, kc, rng, kKmeansMaxIter,
                           kKmeansRestarts);
  return km.labels;
}

}  // namespace mlqr
