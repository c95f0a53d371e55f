#include "linalg/gemm.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace mlqr {
namespace {

/// The three training products: Z = A·Wᵀ + b, C = Aᵀ·B and C = A·B.
enum class Product { kAbtBias, kAtb, kAb };

const char* product_name(Product p) {
  switch (p) {
    case Product::kAbtBias: return "abt_bias";
    case Product::kAtb: return "atb";
    case Product::kAb: return "ab";
  }
  return "?";
}

using Dims = std::array<std::size_t, 3>;  // m, n, k.
using Shape = std::tuple<Product, Dims>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

// Every output starts as NaN garbage, which each product must overwrite
// (0 * NaN would propagate it), and is checked against a naive i-j-k loop.
TEST_P(GemmShapes, MatchesReference) {
  const auto [product, dims] = GetParam();
  const auto [m, n, k] = dims;
  Rng rng(m * 1000 + n * 100 + k);
  const bool bt = product == Product::kAbtBias;
  std::vector<float> a(m * k), b(n * k), bias(bt ? n : 0);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto& v : bias) v = static_cast<float>(rng.normal());
  std::vector<float> c(m * n, std::numeric_limits<float>::quiet_NaN());

  // Stored operand element accessors per product.
  auto a_at = [&](std::size_t i, std::size_t kk) {
    return product == Product::kAtb ? a[kk * m + i] : a[i * k + kk];
  };
  auto b_at = [&](std::size_t kk, std::size_t j) {
    return bt ? b[j * k + kk] : b[kk * n + j];
  };
  switch (product) {
    case Product::kAbtBias:
      sgemm_abt_bias(m, n, k, a.data(), b.data(), bias.data(), c.data());
      break;
    case Product::kAtb:
      sgemm_atb(m, n, k, a.data(), b.data(), c.data());
      break;
    case Product::kAb:
      sgemm_ab(m, n, k, a.data(), b.data(), c.data());
      break;
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float ref = bt ? bias[j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) ref += a_at(i, kk) * b_at(kk, j);
      EXPECT_NEAR(c[i * n + j], ref, 1e-3f * (std::abs(ref) + 1.0f))
          << product_name(product) << " i=" << i << " j=" << j;
    }
  }

  // The forward product's rows are sgemv's outputs bit for bit.
  if (bt) {
    std::vector<float> y(n);
    for (std::size_t i = 0; i < m; ++i) {
      sgemv(n, k, b.data(), a.data() + i * k, bias.data(), y.data());
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(c[i * n + j]),
                  std::bit_cast<std::uint32_t>(y[j]))
            << "i=" << i << " j=" << j;
    }
  }
}

const auto kProducts =
    ::testing::Values(Product::kAbtBias, Product::kAtb, Product::kAb);

// Dimensions straddling the SIMD vector widths: 1/7/17/33 never hit a 4-,
// 8- or 16-lane boundary, so every kernel's tail path runs.
INSTANTIATE_TEST_SUITE_P(
    TailDimensions, GemmShapes,
    ::testing::Combine(kProducts,
                       ::testing::Values(Dims{1, 1, 1}, Dims{1, 7, 17},
                                         Dims{7, 17, 33}, Dims{17, 33, 7},
                                         Dims{33, 1, 7}, Dims{5, 5, 5})));

// Larger shapes from the training path; 128 x 96 x 64 passes the
// row-parallel fan-out threshold (2·m·n·k >= 2^20 and m >= 4).
INSTANTIATE_TEST_SUITE_P(
    TrainingShapes, GemmShapes,
    ::testing::Combine(kProducts,
                       ::testing::Values(Dims{64, 32, 128}, Dims{33, 65, 17},
                                         Dims{128, 96, 64}, Dims{1, 3, 500})));

TEST(Gemv, MatchesManual) {
  // 2x3 matrix times vector plus bias.
  std::vector<float> a{1, 2, 3, 4, 5, 6};
  std::vector<float> x{1, 0, -1};
  std::vector<float> bias{10, 20};
  std::vector<float> y(2);
  sgemv(2, 3, a.data(), x.data(), bias.data(), y.data());
  EXPECT_FLOAT_EQ(y[0], 10 + 1 - 3);
  EXPECT_FLOAT_EQ(y[1], 20 + 4 - 6);
}

TEST(Gemv, TailDimensionsMatchReference) {
  // m covers the 4-row blocking's tails, n the dot kernel's lane tails.
  Rng rng(99);
  for (std::size_t m : {1u, 4u, 7u, 17u, 33u}) {
    for (std::size_t n : {1u, 7u, 17u, 33u}) {
      std::vector<float> a(m * n), x(n), bias(m), y(m);
      for (auto& v : a) v = static_cast<float>(rng.normal());
      for (auto& v : x) v = static_cast<float>(rng.normal());
      for (auto& v : bias) v = static_cast<float>(rng.normal());
      sgemv(m, n, a.data(), x.data(), bias.data(), y.data());
      for (std::size_t i = 0; i < m; ++i) {
        float ref = bias[i];
        for (std::size_t j = 0; j < n; ++j) ref += a[i * n + j] * x[j];
        EXPECT_NEAR(y[i], ref, 1e-4f * (std::abs(ref) + 1.0f))
            << "m=" << m << " n=" << n << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace mlqr
