#include "qec/surface_code.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"

namespace mlqr {
namespace {

class SurfaceCodeDistances : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SurfaceCodeDistances, StabilizerCountIsDSquaredMinusOne) {
  const std::size_t d = GetParam();
  const SurfaceCode code(d);
  EXPECT_EQ(code.num_data(), d * d);
  EXPECT_EQ(code.num_stabilizers(), d * d - 1);
}

TEST_P(SurfaceCodeDistances, StabilizerWeightsAreTwoOrFour) {
  const SurfaceCode code(GetParam());
  std::size_t weight2 = 0, weight4 = 0;
  for (const Stabilizer& s : code.stabilizers()) {
    ASSERT_TRUE(s.data.size() == 2 || s.data.size() == 4);
    (s.data.size() == 2 ? weight2 : weight4)++;
  }
  const std::size_t d = GetParam();
  EXPECT_EQ(weight2, 2 * (d - 1));
  EXPECT_EQ(weight4, (d - 1) * (d - 1));
}

TEST_P(SurfaceCodeDistances, BalancedXAndZ) {
  const SurfaceCode code(GetParam());
  std::size_t x = 0, z = 0;
  for (const Stabilizer& s : code.stabilizers())
    (s.type == StabilizerType::kX ? x : z)++;
  // Rotated codes have (d^2-1)/2 of each.
  EXPECT_EQ(x, z);
}

TEST_P(SurfaceCodeDistances, AdjacencyIsConsistent) {
  const SurfaceCode code(GetParam());
  for (std::size_t a = 0; a < code.num_stabilizers(); ++a) {
    for (std::size_t q : code.stabilizer(a).data) {
      ASSERT_LT(q, code.num_data());
      const auto& back = code.stabilizers_of_data(q);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end());
    }
  }
}

TEST_P(SurfaceCodeDistances, EveryDataQubitTouchesAtLeastTwoStabilizers) {
  const SurfaceCode code(GetParam());
  for (std::size_t q = 0; q < code.num_data(); ++q) {
    EXPECT_GE(code.stabilizers_of_data(q).size(), 2u);
    EXPECT_LE(code.stabilizers_of_data(q).size(), 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, SurfaceCodeDistances,
                         ::testing::Values(3, 5, 7, 9, 11));

TEST(SurfaceCode, Distance3HandChecked) {
  const SurfaceCode code(3);
  EXPECT_EQ(code.num_data(), 9u);
  EXPECT_EQ(code.num_stabilizers(), 8u);
  // The center data qubit (1,1), row-major index 4, touches 4 stabilizers.
  EXPECT_EQ(code.stabilizers_of_data(4).size(), 4u);
}

TEST(SurfaceCode, InvalidDistanceThrows) {
  EXPECT_THROW(SurfaceCode(2), Error);
  EXPECT_THROW(SurfaceCode(4), Error);
  EXPECT_THROW(SurfaceCode(1), Error);
}

TEST(SurfaceCode, NoDuplicateDataInStabilizer) {
  const SurfaceCode code(7);
  for (const Stabilizer& s : code.stabilizers()) {
    std::set<std::size_t> unique(s.data.begin(), s.data.end());
    EXPECT_EQ(unique.size(), s.data.size());
  }
}

}  // namespace
}  // namespace mlqr
