#include "linalg/cholesky.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace mlqr {
namespace {

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += n;  // Well conditioned.
  return a;
}

TEST(Cholesky, FactorReconstructs) {
  const Matrix a = random_spd(5, 11);
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  const Matrix recon = chol->lower().multiply(chol->lower().transposed());
  EXPECT_LT(recon.frobenius_distance(a), 1e-8);
}

TEST(Cholesky, LogDetMatchesKnown) {
  Matrix a(2, 2, 0.0);
  a(0, 0) = 4.0;
  a(1, 1) = 9.0;
  const auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  EXPECT_NEAR(chol->log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, MahalanobisIdentityIsSquaredNorm) {
  const Matrix eye = Matrix::identity(3);
  const auto chol = Cholesky::factor(eye);
  ASSERT_TRUE(chol.has_value());
  const std::vector<double> x{1.0, 2.0, 2.0};
  EXPECT_NEAR(chol->mahalanobis_squared(x), 9.0, 1e-12);
}

TEST(Cholesky, NonPositiveDefiniteReturnsNullopt) {
  Matrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_FALSE(Cholesky::factor(a).has_value());
}

TEST(Cholesky, JitterRescuesSingular) {
  Matrix a(2, 2, 1.0);  // Rank 1.
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  EXPECT_TRUE(Cholesky::factor(a, 1e-6).has_value());
}

}  // namespace
}  // namespace mlqr
