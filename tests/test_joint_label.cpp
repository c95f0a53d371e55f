#include "discrim/joint_label.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mlqr {
namespace {

TEST(JointLabel, CountsMatchPaper) {
  EXPECT_EQ(joint_class_count(5, 2), 32u);    // Two-level five-qubit.
  EXPECT_EQ(joint_class_count(5, 3), 243u);   // Three-level five-qubit.
  EXPECT_EQ(joint_class_count(1, 3), 3u);
}

TEST(JointLabel, EncodeIsLittleEndianBaseK) {
  EXPECT_EQ(encode_joint(std::vector<int>{1, 0, 0, 0, 0}, 3), 1u);
  EXPECT_EQ(encode_joint(std::vector<int>{0, 1, 0, 0, 0}, 3), 3u);
  EXPECT_EQ(encode_joint(std::vector<int>{2, 2, 2, 2, 2}, 3), 242u);
}

TEST(JointLabel, DecodeInvertsEncode) {
  const std::vector<int> levels{2, 0, 1, 2, 1};
  const std::size_t joint = encode_joint(levels, 3);
  std::vector<int> decoded(5);
  decode_joint_into(joint, 3, decoded);
  EXPECT_EQ(decoded, levels);
}

class JointRoundTrip
    : public ::testing::TestWithParam<std::pair<std::size_t, int>> {};

TEST_P(JointRoundTrip, AllClassesRoundTrip) {
  const auto [n_qubits, k] = GetParam();
  const std::size_t total = joint_class_count(n_qubits, k);
  std::vector<int> levels(n_qubits);
  for (std::size_t j = 0; j < total; ++j) {
    decode_joint_into(j, k, levels);
    for (int l : levels) {
      EXPECT_GE(l, 0);
      EXPECT_LT(l, k);
    }
    EXPECT_EQ(encode_joint(levels, k), j);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JointRoundTrip,
    ::testing::Values(std::pair<std::size_t, int>{1, 2},
                      std::pair<std::size_t, int>{3, 2},
                      std::pair<std::size_t, int>{5, 2},
                      std::pair<std::size_t, int>{2, 3},
                      std::pair<std::size_t, int>{5, 3},
                      std::pair<std::size_t, int>{3, 4}));

TEST(JointLabel, RejectsBadInput) {
  EXPECT_THROW(encode_joint(std::vector<int>{3}, 3), Error);
  EXPECT_THROW(encode_joint(std::vector<int>{-1}, 3), Error);
  std::vector<int> levels(5);
  EXPECT_THROW(decode_joint_into(243, 3, levels), Error);
  EXPECT_THROW(joint_class_count(64, 3), Error);  // Overflow.
}

}  // namespace
}  // namespace mlqr
