// Spectral clustering on a k-nearest-neighbour affinity graph.
//
// Used to discover the rare natural-leakage cluster in MTV space without
// explicit |2> calibration (paper SSV-A). The pipeline: kNN graph with
// locally scaled Gaussian weights -> symmetric normalized Laplacian ->
// bottom-k eigenvectors (dense Jacobi; the input is a few hundred
// subsampled points) -> row-normalized embedding -> k-means. It always
// finds three clusters (levels |0>, |1>, |2>) on a 12-nearest-neighbour
// graph, with 4 k-means restarts of at most 100 iterations.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mlqr {

/// Clusters row-major points (n x dim) into three labels. n is expected to
/// be modest (<= ~800); subsample upstream for larger sets.
std::vector<int> spectral_cluster(std::span<const double> points,
                                  std::size_t dim, Rng& rng);

}  // namespace mlqr
